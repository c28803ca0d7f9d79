"""Scaling families, constraint projections, and mountain-pass paths.

The central object is the two-parameter rescaling v_lambda = lambda^alpha
v(lambda^beta x).  Every functional is a linear form in the moments of
model.Moments, and along a ray each moment is a power of lambda, so
projections, sweeps and paths take v's moments once and price every
v_lambda exactly on that algebra (Moments.scaled).  A profile is
resampled (rescale) only to be handed out, by project_to_constraint, and
no moments are taken of it.  The region of a pair (classify_exponents)
picks the projection ray and the mountain-pass path.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    EmptyConstraintSample,
    GluingFailed,
    InvalidInput,
    InvalidParameter,
    NoNegativeEndpoint,
    NoRoot,
    NotOnConstraint,
    NumericalOverflow,
    TruncationOverflow,
    Unsupported,
    WrongRegion,
)
from .model import (
    AMPLITUDE_RAY,
    CONSTRAINT_TOL,
    INTERIOR,
    INVALID,
    Moments,
    Nonlinearity,
    PowerKG,
    ScalingExponents,
    classify_exponents,
    moments,
)
from .radial_core import GridFunction, _integral, brent

PROJECTION_TOL = 1e-8          # residual bound for projections, times ||w||_H1^2
C_SEARCH_CAP = 2.0**30
MAX_LOST_MASS = 1e-7           # relative L2 mass a rescaling may push past r = R
PATH_SAMPLES = 64              # samples per path segment before argmax refinement
ARGMAX_REL_TOL = 1e-6          # refinement stops once the path maximum moves less than this
ARGMAX_ROUNDS = 12             # refinement rounds at most
ARGMAX_LAM_GRID = np.geomspace(0.5, 2.0, 33)  # ray profile of an interior projection
SCAN_LAMBDAS = np.geomspace(1e-4, 1e4, 321)   # algebra scan that brackets every projection
P_BOUNDARY_TOL = 1e-3          # |P| <= tol * ||v||_H1^2 counts as on the P = 0 boundary
P_ZERO = ScalingExponents(0.0, -1.0)  # a limit pair; K_{0,-1} = -2 P in dimension 2
L2_RAY = ScalingExponents(1.0, 1.0)   # lambda v(lambda x) keeps ||v||^2 in dimension 2
WIDTH_RAY = ScalingExponents(0.0, 1.0)  # the dilation v(lambda x)


def exponent_region(se: ScalingExponents, nl: Nonlinearity, dimension: int) -> str:
    """The region of (alpha, beta) for nl's power in this dimension,
    INTERIOR or LIMIT; an invalid pair raises WrongRegion.

    Regions, rays and paths rest on moments that scale by powers of
    lambda, which holds for the power family only.
    """
    if not isinstance(nl, PowerKG):
        raise Unsupported("exponent regions are defined for the power family only")
    region = classify_exponents(se.alpha, se.beta, nl.p, dimension)
    if region == INVALID:
        raise WrongRegion(f"({se.alpha:g},{se.beta:g}) is not an admissible exponent pair")
    return region


def rescale(v: GridFunction, lam: float, se: ScalingExponents) -> GridFunction:
    """lambda^alpha v(lambda^beta x) resampled on v's own grid.

    Linear interpolation, zero extension beyond R.  When the rescaled
    profile spills past the domain edge (the part of v beyond radius
    lambda^beta R maps outside), the spilled relative L2 mass must stay
    below MAX_LOST_MASS, else TruncationOverflow.
    """
    lam = float(lam)
    if not (lam > 0.0) or not math.isfinite(lam):
        raise InvalidParameter(f"scaling parameter must be positive and finite, got {lam!r}")
    grid = v.grid
    amp = lam**se.alpha
    stretch = lam**se.beta
    if stretch == 1.0:
        return GridFunction._adopt(grid, amp * v.values)
    cut = stretch * grid.outer_radius
    if cut < grid.outer_radius:
        # the weighted mass in one row; the nodes past the cut are its tail
        mass = np.multiply(v.values, v.values)
        total = _integral(mass, grid, mass)
        lost = float(mass[np.searchsorted(grid.r, cut, side="right"):].sum())
        if total > 0.0 and lost > MAX_LOST_MASS * total:
            raise TruncationOverflow(
                f"rescaling with lambda={lam:.6g} pushes {lost / total:.3e} of the "
                f"L2 mass past r={grid.outer_radius:g} (limit {MAX_LOST_MASS:.1e})")
    new_vals = np.interp(stretch * grid.r, grid.r, v.values, right=0.0)
    if amp != 1.0:
        new_vals *= amp
    if grid.dimension >= 2:
        new_vals[-1] = 0.0
    return GridFunction._adopt(grid, new_vals)


def family_action(v: GridFunction, nl: PowerKG, se: ScalingExponents, lam: float) -> float:
    """S(v_lambda) on the scaling algebra; lam = 0 gives the zero function, hence 0."""
    if lam == 0.0:
        return 0.0
    return moments(v, nl).scaled(lam, se).action()


def _sign_change(samples) -> tuple[int, int] | None:
    """Indices (i, j) of the first pair of consecutive finite nonzero
    samples with opposite signs, or None.

    Exact zeros are skipped rather than taken as roots: a root on a node
    is bracketed by its nonzero neighbours, while a K that is zero only by
    roundoff brackets nothing.  Non-finite samples (an overflowed scan
    node) carry no sign and are skipped the same way.
    """
    samples = np.asarray(samples, dtype=float)
    nonzero = np.flatnonzero(np.isfinite(samples) & (samples != 0.0))
    signs = np.sign(samples[nonzero])
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if flips.size == 0:
        return None
    return int(nonzero[flips[0]]), int(nonzero[flips[0] + 1])


def _project(base: Moments, se: ScalingExponents, ray: ScalingExponents | None = None
             ) -> tuple[float, ScalingExponents, Moments]:
    """lambda*, the ray and the moments of the projection of a profile whose
    moments are base, on the scaling algebra; see project_to_constraint."""
    if ray is None:
        ray = se if exponent_region(se, base.nl, base.dimension) == INTERIOR else AMPLITUDE_RAY
    if base.h1 == 0.0:
        raise InvalidInput("cannot project the zero function")
    _, exp2 = math.frexp(max(abs(se.alpha), abs(se.beta)))
    k_pair = se
    if exp2 < 0:
        k_pair = ScalingExponents(math.ldexp(se.alpha, -exp2), math.ldexp(se.beta, -exp2))

    if ray == AMPLITUDE_RAY:
        lam_star = base.amplitude_root(k_pair)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = _sign_change(base.scaled(SCAN_LAMBDAS, ray).constraint(k_pair))
        if bracket is None:
            raise NoRoot(
                f"K_({se.alpha:g},{se.beta:g}) has no sign change along the "
                f"({ray.alpha:g},{ray.beta:g}) ray of this profile")
        lam_star = brent(lambda lam: base.scaled(lam, ray).constraint(k_pair),
                         SCAN_LAMBDAS[bracket[0]], SCAN_LAMBDAS[bracket[1]],
                         xtol=1e-14, rtol=8.9e-16)
    try:
        m = base.scaled(lam_star, ray)
        finite = math.isfinite(m.h1 + m.pot)
    except OverflowError:  # a power of lambda* past the float range
        finite = False
    if not finite:
        raise NumericalOverflow(f"the moments at lambda* = {lam_star:.6g} leave the float range")
    residual = m.constraint(k_pair)
    if abs(residual) > PROJECTION_TOL * m.h1:
        raise ConvergenceError(
            f"projection residual {residual:.3e} exceeds {PROJECTION_TOL:.0e} * its H1 norm")
    return lam_star, ray, m


def project_to_constraint(v: GridFunction, nl: PowerKG, se: ScalingExponents,
                          ray: ScalingExponents | None = None
                          ) -> tuple[float, GridFunction, Moments]:
    """Root lambda* of lambda -> K_{alpha,beta}(v_lambda) along a scaling
    ray, the projected profile, and the moments of the projection.

    The region picks the ray: an interior pair is projected along its own
    ray, a limit pair by amplitude (AMPLITUDE_RAY), because its own ray
    leaves K's sign unchanged, and an invalid pair raises WrongRegion.  An
    explicit ray overrides that choice.  The root is found on the scaling
    algebra of v's moments (Moments.scaled).  Along the amplitude ray it is
    Moments.amplitude_root, whatever its magnitude; NoRoot unless positive
    and finite.  Along any other ray a scan over SCAN_LAMBDAS (1e-4 to 1e4)
    brackets it between two finite nodes and one Brent solve finds it;
    exact zeros of K are never roots by themselves, so NoRoot means the
    nonzero samples of K show no sign change.  The moments returned, v's
    scaled to lambda*, must be finite (else NumericalOverflow) and satisfy
    |K| <= PROJECTION_TOL ||.||_H1^2 (else ConvergenceError).  K is linear
    in (alpha, beta), so a pair below 1/2 in both components is lifted by
    a power of two (exact) first: subnormal exponents leave K no precision.

    The profile is v resampled once at lambda* (rescale; TruncationOverflow
    when it spills past R); no moments are taken of it.  By amplitude it
    is v's values times lambda* and its moments match the returned ones to
    roundoff; along a ray that compresses v to a few nodes per width they
    miss them, and only the returned moments are exact for v_lambda*.  The
    sweeps project every member here and read only lambda* and the moments.
    """
    lam_star, ray, m = _project(moments(v, nl), se, ray)
    return lam_star, rescale(v, lam_star, ray), m


# -- mountain-pass paths ------------------------------------------------------

@dataclass(frozen=True)
class PathSample:
    """A sampled path t -> gamma(t) with its action values.

    Every path here starts at gamma(0) = 0, so admissibility, membership
    in the competitor class of the mountain-pass level, means
    S(gamma(1)) < 0.
    """

    t: np.ndarray
    action_values: np.ndarray
    segment_breaks: tuple[float, ...] = ()

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        s = np.asarray(self.action_values, dtype=float)
        if t.ndim != 1 or t.shape != s.shape:
            raise InvalidInput("parameter and action arrays must match in shape")
        if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
            raise InvalidInput("path parameters must increase strictly from 0 to 1")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("path action values must be finite")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "action_values", s)

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.action_values))

    @property
    def admissible(self) -> bool:
        return bool(self.action_values[-1] < 0.0)

    @property
    def max_action(self) -> float:
        return float(self.action_values[self.argmax_index])


def _refine_argmax(ts: list, ss: list, evaluate) -> tuple[np.ndarray, np.ndarray]:
    """Quadruple the sampling density around the running argmax until the
    maximum stabilizes to ARGMAX_REL_TOL (relative)."""
    current = max(ss)
    for _ in range(ARGMAX_ROUNDS):
        j = int(np.argmax(ss))
        lo = ts[max(j - 1, 0)]
        hi = ts[min(j + 1, len(ts) - 1)]
        fresh = [tt for tt in np.linspace(lo, hi, 9) if tt not in ts]
        if not fresh:
            break
        for tt in fresh:
            ts.append(tt)
            ss.append(evaluate(tt))
        order = np.argsort(ts)
        ts[:] = list(np.asarray(ts)[order])
        ss[:] = list(np.asarray(ss)[order])
        new = max(ss)
        if abs(new - current) <= ARGMAX_REL_TOL * max(abs(new), 1e-300):
            current = new
            break
        current = new
    return np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)


def _ray_path(base: Moments, se: ScalingExponents):
    """The ray path gamma(t) = v_{tC} of an interior exponent pair.

    All three scaling exponents are positive in the interior region, so the
    ray starts at 0; C is doubled until the action at the endpoint is
    negative.  On the constraint the action along the ray peaks at lambda=1.
    """
    big_c = 2.0
    while base.scaled(big_c, se).action() >= 0.0:
        big_c *= 2.0
        if big_c > C_SEARCH_CAP:
            raise NoNegativeEndpoint(
                "action stays nonnegative along the ray out to lambda = 2^30")

    def evaluate(t: float) -> float:
        return base.scaled(t * big_c, se).action()

    return evaluate, list(np.linspace(0.0, 1.0, PATH_SAMPLES)), ()


def _glued_path(base: Moments, se: ScalingExponents):
    """The glued path of a limit exponent pair.

    One scaling exponent vanishes in the limit region, so the ray alone
    neither starts at zero nor turns the action negative.  The path glues
    up to three pieces: the amplitude segment t v_{lambda0} (lambda0 halved
    until its Nehari value is positive: dS(t v)/dt = t [(||grad v||^2 +
    m0 ||v||^2) - t^(p-1) ||v||_{p+1}^{p+1}] is then positive on (0, 1], so
    the segment's action rises strictly), the ray from lambda0 out to C,
    and, when the ray action never crosses zero, a final amplitude segment
    t v_C.  C is grown until either S(v_C) < 0 or the Nehari value of v_C
    is nonpositive; the latter makes the final segment monotone decreasing,
    so it certainly reaches negative action.

    The Nehari value of v_lambda is q + (a nonnegative term) - P lambda^c,
    q the moment whose power of lambda is 0 and P = ||v||_{p+1}^{p+1},
    c > 0, so 40 halvings find a positive value unless v = 0 (q = 0) or P
    exceeds q by about 2^(40 c); GluingFailed then.
    """
    # lambda0: the amplitude segment toward v_{lambda0} must rise monotonically
    lam0 = 0.5
    for _ in range(40):
        m_lam0 = base.scaled(lam0, se)
        if m_lam0.nehari() > 0.0:
            break
        lam0 *= 0.5
    else:
        raise GluingFailed("no lambda0 with a positive Nehari value in 40 halvings")

    # C: ray endpoint with either negative action or nonpositive Nehari value
    big_c = 2.0
    while True:
        m_c = base.scaled(big_c, se)
        s_c = m_c.action()
        if s_c < 0.0 or m_c.nehari() <= 0.0:
            break
        big_c *= 2.0
        if big_c > C_SEARCH_CAP:
            raise NoNegativeEndpoint(
                "ray action stays nonnegative with positive Nehari value out to 2^30")

    t_end = 1.0
    if s_c >= 0.0:
        t_end = 2.0
        while m_c.scaled(t_end, AMPLITUDE_RAY).action() >= 0.0:
            t_end *= 2.0
            if t_end > C_SEARCH_CAP:
                raise NoNegativeEndpoint("final amplitude segment never turns negative")

    three = t_end > 1.0
    t_a = 1.0 / 3.0 if three else 0.5
    t_b = 2.0 / 3.0 if three else 1.0
    log_ratio = math.log(big_c / lam0)

    def evaluate(t: float) -> float:
        if t <= t_a:
            return m_lam0.scaled(t / t_a, AMPLITUDE_RAY).action()
        if t <= t_b:
            lam = lam0 * math.exp(log_ratio * (t - t_a) / (t_b - t_a))
            return base.scaled(lam, se).action()
        amp = 1.0 + (t_end - 1.0) * (t - t_b) / (1.0 - t_b)
        return m_c.scaled(amp, AMPLITUDE_RAY).action()

    ts = list(np.linspace(0.0, t_a, PATH_SAMPLES))
    ts += list(np.linspace(t_a, t_b, PATH_SAMPLES))[1:]
    if three:
        ts += list(np.linspace(t_b, 1.0, PATH_SAMPLES))[1:]
    return evaluate, ts, (t_a, t_b) if three else (t_a,)


def build_path(v: GridFunction, nl: PowerKG, se: ScalingExponents) -> PathSample:
    """A mountain-pass path through v, which must lie on K_{alpha,beta} = 0.

    The region picks the path: the ray path of an interior pair, the glued
    path of a limit pair; an invalid pair raises WrongRegion.  Every sample
    is priced on the scaling algebra of v's moments and the samples are
    refined around the maximum.
    """
    return _path_through(moments(v, nl), se)


def _path_through(base: Moments, se: ScalingExponents) -> PathSample:
    """build_path of the profile whose moments are base; the path command
    passes the moments of a projection."""
    region = exponent_region(se, base.nl, base.dimension)
    residual = base.constraint(se)
    if abs(residual) > CONSTRAINT_TOL * base.h1:
        raise NotOnConstraint(
            f"K_({se.alpha:g},{se.beta:g}) = {residual:.3e} is not zero at this profile")
    # a recipe gives t -> S(gamma(t)), the first samples of t and the segment breaks
    recipe = _ray_path if region == INTERIOR else _glued_path
    evaluate, ts, segment_breaks = recipe(base, se)
    ss = [evaluate(tt) for tt in ts]
    t_arr, s_arr = _refine_argmax(ts, ss, evaluate)
    return PathSample(t=t_arr, action_values=s_arr, segment_breaks=segment_breaks)


def mountain_pass_estimate(paths) -> float:
    """min over paths of max-over-samples action: an upper bound for the
    mountain-pass level."""
    paths = list(paths)
    if not paths:
        raise InvalidParameter("need at least one path")
    for path in paths:
        if not path.admissible:
            raise InvalidInput("every path must end at negative action")
    return min(path.max_action for path in paths)


# -- verification sweeps ------------------------------------------------------

# a bump's factor is formed within BUMP_REACH widths of its centre; past
# that |eps| exp(-49) < 2^-54, so 1 + eps exp(...) rounds to exactly 1.0
BUMP_REACH = 7.0


class _MadeOnRead(Sequence):
    """n items, item i made by make(i) each time it is read: the sweeps
    and evolve take one item at a time, so no two are held at once."""

    def __init__(self, n: int, make):
        self.n, self.make = n, make

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        picked = range(self.n)[i]
        if isinstance(picked, range):
            return [self.make(j) for j in picked]
        return self.make(picked)


def _bumped(v: GridFunction, eps: float, x0: float, width: float) -> GridFunction:
    """v times 1 + eps exp(-((r - x0)/width)^2), the factor formed within
    BUMP_REACH widths of x0 (|eps| <= 0.3 makes it exactly 1.0 beyond)."""
    r = v.grid.r
    lo, hi = np.searchsorted(r, (x0 - BUMP_REACH * width, x0 + BUMP_REACH * width))
    vals = v.values.copy()
    vals[lo:hi] *= 1.0 + eps * np.exp(-(((r[lo:hi] - x0) / width) ** 2))
    return GridFunction._adopt(v.grid, vals)


def default_trial_family(gs, count: int = 50, seed: int = 0) -> Sequence[GridFunction]:
    """The ground state, a width family around it, and seeded bump
    perturbations: the stock trial set for the minimization checks.

    Member 0 is the profile, members 1..n_width its width rescalings,
    the rest bump perturbations whose (eps, x0, width) are drawn up front.
    The members are made as they are read, so the family holds the
    profile and its draws, not count profiles.
    """
    for name, value in (("count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if count < 3:
        raise InvalidParameter("trial family needs at least 3 members")
    if seed < 0:
        raise InvalidParameter(f"seed must be nonnegative, got {seed!r}")
    v = gs.profile
    n_width = (count - 1) // 2
    rng = np.random.default_rng(seed)
    bumps = [(rng.uniform(-0.3, 0.3), rng.uniform(0.0, v.grid.outer_radius / 8.0),
              rng.uniform(0.5, 2.0)) for _ in range(count - 1 - n_width)]
    widths = np.geomspace(0.5, 2.0, n_width)

    def member(i: int) -> GridFunction:
        if i == 0:
            return v
        if i <= n_width:
            return rescale(v, float(widths[i - 1]), WIDTH_RAY)
        return _bumped(v, *bumps[i - 1 - n_width])

    return _MadeOnRead(count, member)


def _tolerance(tol: float | None, m_ref: float) -> float:
    """tol, 1e-3 |m_ref| when None; InvalidParameter unless positive and finite."""
    if tol is None:
        return 1e-3 * abs(m_ref)
    if not 0.0 < tol < math.inf:
        raise InvalidParameter(f"tol must be positive and finite, got {tol!r}")
    return tol


def _least(values: list, none_placed: str) -> tuple[float, int]:
    """The least value a sweep recorded and its index.  InvalidParameter
    when the sweep read no member, EmptyConstraintSample(none_placed) when
    every value is None."""
    if not values:
        raise InvalidParameter("empty trial family")
    evaluated = [(value, i) for i, value in enumerate(values) if value is not None]
    if not evaluated:
        raise EmptyConstraintSample(none_placed)
    return min(evaluated)


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of minimizing S over the projected trial family."""

    alpha: float
    beta: float
    region: str
    m_ref: float
    tol: float
    members_total: int
    lambdas: tuple
    actions: tuple
    failures: tuple          # (member index, error class name)
    argmax_cells_off: tuple  # interior region only: |argmax - cell of lambda=1|
    min_action: float
    argmin_index: int

    @property
    def min_above_reference(self) -> bool:
        return self.min_action >= self.m_ref - self.tol

    @property
    def attained(self) -> bool:
        return self.min_action <= self.m_ref + self.tol

    @property
    def argmax_at_unity(self) -> bool:
        return all(off <= 1 for off in self.argmax_cells_off)

    @property
    def passed(self) -> bool:
        return self.min_above_reference and self.attained and self.argmax_at_unity


def verify_min_on_constraint(trials, nl: PowerKG, se: ScalingExponents, m_ref: float,
                             tol: float | None = None) -> MinimizationReport:
    """Project every trial onto the K_{alpha,beta} = 0 set and minimize S.

    Each member is projected along the ray its region picks (see
    project_to_constraint).  For an interior pair each projected member's
    scaling profile on ARGMAX_LAM_GRID is checked to peak at lambda = 1
    (within one grid cell).  A limit pair's ray profile is flat in the
    critical power case, so no argmax check applies.

    The trials are read once, in order, and the region is taken from the
    first one read, so any iterable serves; a trial that cannot be made
    raises out of the sweep.
    """
    tol = _tolerance(tol, m_ref)
    unity_cell = int(np.argmin(np.abs(ARGMAX_LAM_GRID - 1.0)))

    region = None
    lambdas, actions, failures, cells_off = [], [], [], []
    for i, trial in enumerate(trials):
        if region is None:
            region = exponent_region(se, nl, trial.grid.dimension)
        try:
            lam_star, _, m = project_to_constraint(trial, nl, se)
        except (NoRoot, TruncationOverflow, ConvergenceError, InvalidInput) as err:
            failures.append((i, type(err).__name__))
            lambdas.append(None)
            actions.append(None)
            continue
        lambdas.append(lam_star)
        actions.append(m.action())
        if region == INTERIOR:
            profile = m.scaled(ARGMAX_LAM_GRID, se).action()
            cells_off.append(abs(int(np.argmax(profile)) - unity_cell))
    min_action, argmin_index = _least(actions, "no trial could be placed on the constraint")
    return MinimizationReport(
        alpha=se.alpha, beta=se.beta, region=region, m_ref=m_ref, tol=tol,
        members_total=len(lambdas),
        lambdas=tuple(lambdas), actions=tuple(actions),
        failures=tuple(failures), argmax_cells_off=tuple(cells_off),
        min_action=min_action, argmin_index=argmin_index,
    )


@dataclass(frozen=True)
class KineticReport:
    """Outcome of minimizing T over the P >= 0 set (dimension 2)."""

    m_ref: float
    tol: float
    members_total: int
    lambdas: tuple           # P-projection parameter; None for on-boundary members
    kinetics: tuple          # T after projection; None for skipped members
    skipped: tuple           # member indices outside the set: zero, or P below the boundary band
    failures: tuple
    min_kinetic: float
    argmin_index: int

    @property
    def passed(self) -> bool:
        return self.min_kinetic >= self.m_ref - self.tol


def verify_T_min_over_P(trials, nl: PowerKG, m_ref: float,
                        tol: float | None = None) -> KineticReport:
    """Check m = min{T(v) : v != 0, P(v) >= 0} on a trial family.

    Members with P > 0 are scaled down to the P = 0 boundary first (that
    only lowers T), members within P_BOUNDARY_TOL * ||v||_H1^2 of the
    boundary are taken as they stand, and members with P < 0 lie outside
    the constraint set and are skipped, as is the zero function.  In
    dimension 2, P = -K_{0,-1}/2 exactly, so the boundary is the P_ZERO
    constraint, projected along the L2-invariant ray lambda v(lambda x)
    (L2_RAY); P > 0 pins the root in (0, 1).  A later member on a grid of
    another dimension is recorded as an Unsupported failure.  The trials
    are read once, in order, as in verify_min_on_constraint.
    """
    tol = _tolerance(tol, m_ref)
    lambdas, kinetics, skipped, failures = [], [], [], []
    for i, trial in enumerate(trials):
        if i == 0 and trial.grid.dimension != 2:
            raise Unsupported("the T/P equivalence is a dimension-2 statement")
        m = moments(trial, nl)
        band = P_BOUNDARY_TOL * m.h1
        p_val = m.potential()
        lam0 = None
        if p_val < -band or m.h1 == 0.0:
            skipped.append(i)
            m = None
        elif p_val > band:
            try:
                if trial.grid.dimension != 2:
                    raise Unsupported("P = -K_{0,-1}/2 holds in dimension 2 only")
                lam0, _, m = project_to_constraint(trial, nl, P_ZERO, ray=L2_RAY)
            except (Unsupported, NoRoot, ConvergenceError, TruncationOverflow) as err:
                failures.append((i, type(err).__name__))
                m = None
        lambdas.append(lam0)
        kinetics.append(None if m is None else m.kinetic)
    min_kinetic, argmin_index = _least(kinetics, "no trial lies in the P >= 0 set")
    return KineticReport(
        m_ref=m_ref, tol=tol, members_total=len(lambdas),
        lambdas=tuple(lambdas), kinetics=tuple(kinetics),
        skipped=tuple(skipped), failures=tuple(failures),
        min_kinetic=min_kinetic, argmin_index=argmin_index,
    )
