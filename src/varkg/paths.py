"""Scaling families, constraint projections, and mountain-pass paths.

The central object is the two-parameter rescaling v_lambda = lambda^alpha
v(lambda^beta x).  Every functional is a linear form in the moments of
model.Moments, and along a ray each moment is a power of lambda, so the
moments of v_lambda have two sources: the moments of the profile resampled
on the grid, or the base moments scaled exactly (Moments.scaled).  The
resampled moments are preferred; the scaled ones take over when the
rescaled profile no longer fits the grid, and they locate the bracket of
every constraint projection.  This module does no arithmetic of its own
on the moments.  The region of a pair (classify_exponents) picks the
projection ray and the mountain-pass path.
"""

from __future__ import annotations

import math
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
    PreconditionFailed,
    TruncationOverflow,
    Unsupported,
    WrongRegion,
)
from .model import (
    AMPLITUDE_RAY,
    INTERIOR,
    INVALID,
    Moments,
    Nonlinearity,
    PowerKG,
    ScalingExponents,
    classify_exponents,
    kinetic_T,
    moments,
    pohozaev_P,
)
from .radial_core import GridFunction, brent, l2_norm_sq

# |K| <= tol * ||v||_H1^2 counts as "on the constraint"; matches the
# Nehari tolerance a validated ground state is allowed to carry
ON_CONSTRAINT_TOL = 1e-3
PROJECTION_TOL = 1e-8          # residual bound for projections, same relative scale
C_SEARCH_CAP = 2.0**30
MAX_LOST_MASS = 1e-7           # relative L2 mass a rescaling may push past r = R
PATH_SAMPLES = 64              # samples per path segment before argmax refinement
ARGMAX_REL_TOL = 1e-6          # refinement stops once the path maximum moves less than this
ARGMAX_ROUNDS = 12             # refinement rounds at most
ARGMAX_LAM_GRID = np.geomspace(0.5, 2.0, 33)  # ray profile of an interior projection
SCAN_LAMBDAS = np.geomspace(1e-4, 1e4, 321)   # algebra scan that brackets every projection
P_BOUNDARY_TOL = 1e-3          # |P| <= tol * ||v||_H1^2 counts as on the P = 0 boundary
P_ZERO = ScalingExponents(0.0, -1.0)  # a limit pair; K_{0,-1} = -2 P in dimension 2


def _region(se: ScalingExponents, nl: Nonlinearity, dimension: int) -> str:
    """The region of (alpha, beta) for nl's power in this dimension.

    Regions, rays and paths rest on moments that scale by powers of
    lambda, which holds for the power family only.
    """
    if not isinstance(nl, PowerKG):
        raise Unsupported("exponent regions are defined for the power family only")
    return classify_exponents(se.alpha, se.beta, nl.p, dimension)


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
    if v.is_complex:
        raise InvalidInput("rescaling is defined for real profiles only")
    grid = v.grid
    amp = lam**se.alpha
    stretch = lam**se.beta
    if stretch == 1.0:
        new_vals = amp * v.values
    else:
        cut = stretch * grid.outer_radius
        if cut < grid.outer_radius:
            tail = grid.r > cut
            lost = float(np.sum(grid.weights[tail] * v.values[tail] ** 2))
            total = l2_norm_sq(v)
            if total > 0.0 and lost > MAX_LOST_MASS * total:
                raise TruncationOverflow(
                    f"rescaling with lambda={lam:.6g} pushes {lost / total:.3e} of the "
                    f"L2 mass past r={grid.outer_radius:g} (limit {MAX_LOST_MASS:.1e})")
        new_vals = amp * np.interp(stretch * grid.r, grid.r, v.values, right=0.0)
        if grid.dimension >= 2:
            new_vals[-1] = 0.0
    return GridFunction(grid, new_vals)


def _moments_at(v: GridFunction, nl: PowerKG, se: ScalingExponents, lam: float) -> Moments:
    """Moments of v_lambda: resampled when representable, scaled base moments otherwise."""
    try:
        return moments(rescale(v, lam, se), nl)
    except TruncationOverflow:
        return moments(v, nl).scaled(lam, se, nl, v.grid.dimension)


def family_action(v: GridFunction, nl: PowerKG, se: ScalingExponents, lam: float) -> float:
    """S(v_lambda); lam = 0 gives the zero function, hence 0."""
    if lam == 0.0:
        return 0.0
    return _moments_at(v, nl, se, lam).action(nl)


def action_profile(v: GridFunction, nl: PowerKG, se: ScalingExponents,
                   lam_grid) -> list[tuple[float, float]]:
    """S along the scaling family, as (lambda, S(v_lambda)) pairs."""
    lams = np.asarray(lam_grid, dtype=float)
    if lams.size == 0:
        raise InvalidParameter("lambda grid is empty")
    return [(float(lam), family_action(v, nl, se, float(lam))) for lam in lams]


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


def project_to_constraint(v: GridFunction, nl: PowerKG, se: ScalingExponents,
                          ray: ScalingExponents | None = None) -> tuple[float, GridFunction]:
    """Root of lambda -> K_{alpha,beta}(v_lambda) along a scaling ray.

    The region picks the ray: an interior pair is projected along its own
    ray, a limit pair by amplitude (AMPLITUDE_RAY), because its own ray
    leaves K's sign unchanged, and an invalid pair raises WrongRegion.  An
    explicit ray overrides that choice.  A scan of the exact scaling
    algebra over SCAN_LAMBDAS brackets the root between two finite scan
    nodes; one Brent solve on that bracket then finds the root of the
    resampled grid map.  When quadrature error moves the grid map's root
    past a node, a 33-point rescan around the two nodes brackets it
    instead.  A root that lies exactly on a scan node is returned too; a
    profile already on the constraint gives lambda = 1.  Exact zeros of K
    are never taken as roots by themselves: NoRoot means the nonzero
    samples of K show no sign change along the ray.  The projected profile
    w must satisfy |K(w)| <= PROJECTION_TOL ||w||_H1^2, else
    ConvergenceError.  K is linear in (alpha, beta), so a pair below 1/2
    in both components is lifted by a power of two (exact) before the
    scan, the solve and the residual check; subnormal exponents would
    leave K no precision.
    """
    n = v.grid.dimension
    if ray is None:
        region = _region(se, nl, n)
        if region == INVALID:
            raise WrongRegion(f"({se.alpha:g},{se.beta:g}) is not an admissible exponent pair")
        ray = se if region == INTERIOR else AMPLITUDE_RAY
    base = moments(v, nl)
    if base.h1 == 0.0:
        raise InvalidInput("cannot project the zero function")
    _, exp2 = math.frexp(max(abs(se.alpha), abs(se.beta)))
    k_pair = se
    if exp2 < 0:
        k_pair = ScalingExponents(math.ldexp(se.alpha, -exp2), math.ldexp(se.beta, -exp2))

    with np.errstate(over="ignore", invalid="ignore"):
        bracket = _sign_change(base.scaled(SCAN_LAMBDAS, ray, nl, n).constraint(nl, k_pair, n))
    if bracket is None:
        raise NoRoot(
            f"K_({se.alpha:g},{se.beta:g}) has no sign change along the "
            f"({ray.alpha:g},{ray.beta:g}) ray of this profile")

    def k_discrete(lam: float) -> float:
        return _moments_at(v, nl, ray, lam).constraint(nl, k_pair, n)

    lo, hi = SCAN_LAMBDAS[bracket[0]], SCAN_LAMBDAS[bracket[1]]
    if _sign_change([k_discrete(lo), k_discrete(hi)]) is None:
        # quadrature error can shift a marginal root; rescan around the nodes
        scan = np.geomspace(lo / 4.0, hi * 4.0, 33)
        bracket = _sign_change([k_discrete(lam) for lam in scan])
        if bracket is None:
            raise NoRoot("constraint map loses its sign change on the grid")
        lo, hi = scan[bracket[0]], scan[bracket[1]]
    lam_star = brent(k_discrete, lo, hi, xtol=1e-14, rtol=8.9e-16)
    projected = rescale(v, lam_star, ray)
    m = moments(projected, nl)
    residual = m.constraint(nl, k_pair, n)
    if abs(residual) > PROJECTION_TOL * m.h1:
        raise ConvergenceError(
            f"projection residual {residual:.3e} exceeds {PROJECTION_TOL:.0e} * its H1 norm")
    return lam_star, projected


def project_to_P_zero(v: GridFunction, nl: PowerKG) -> tuple[float, GridFunction]:
    """Shrink v_lambda = lambda v(lambda x) until P vanishes (dimension 2).

    In dimension 2, P = -K_{0,-1}/2 exactly, so P = 0 is the constraint of
    the limit pair (0, -1), projected along the L2-invariant ray (1, 1) by
    project_to_constraint.  P(v) > 0 pins the root in (0, 1).
    """
    if v.grid.dimension != 2:
        raise Unsupported("the P = 0 projection uses the L2-invariant scaling of dimension 2")
    p0 = pohozaev_P(v, nl)
    if p0 == 0.0:
        return 1.0, v
    if p0 < 0.0:
        raise PreconditionFailed(f"P(v) = {p0:.3e} <= 0; nothing to project")
    return project_to_constraint(v, nl, P_ZERO, ray=ScalingExponents(1.0, 1.0))


# -- mountain-pass paths ------------------------------------------------------

@dataclass(frozen=True)
class PathSample:
    """A sampled path t -> gamma(t) with its action values.

    Admissibility means gamma(0) = 0 and S(gamma(1)) < 0: exactly the
    competitor class of the mountain-pass level.  end is gamma(1) on the
    grid, or None when gamma(1) does not fit on it; the action values
    then come from the scaled moments.
    """

    t: np.ndarray
    action_values: np.ndarray
    start: GridFunction
    end: GridFunction | None
    argmax_index: int
    starts_at_zero: bool
    negative_endpoint: bool
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
    def admissible(self) -> bool:
        return self.starts_at_zero and self.negative_endpoint

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


def _require_on_constraint(v: GridFunction, nl: PowerKG, se: ScalingExponents) -> None:
    m = moments(v, nl)
    residual = m.constraint(nl, se, v.grid.dimension)
    if abs(residual) > ON_CONSTRAINT_TOL * m.h1:
        raise NotOnConstraint(
            f"K_({se.alpha:g},{se.beta:g}) = {residual:.3e} is not zero at this profile")


def _ray_path(v: GridFunction, nl: PowerKG, se: ScalingExponents):
    """The ray path gamma(t) = v_{tC} of an interior exponent pair.

    All three scaling exponents are positive in the interior region, so the
    ray starts at 0; C is doubled until the action at the endpoint is
    negative.  On the constraint the action along the ray peaks at lambda=1.
    """
    big_c = 2.0
    while family_action(v, nl, se, big_c) >= 0.0:
        big_c *= 2.0
        if big_c > C_SEARCH_CAP:
            raise NoNegativeEndpoint(
                "action stays nonnegative along the ray out to lambda = 2^30")

    def evaluate(t: float) -> float:
        return family_action(v, nl, se, t * big_c)

    return evaluate, list(np.linspace(0.0, 1.0, PATH_SAMPLES)), big_c, 1.0, ()


def _glued_path(v: GridFunction, nl: PowerKG, se: ScalingExponents):
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
    """
    n = v.grid.dimension

    # lambda0: the amplitude segment toward v_{lambda0} must rise monotonically
    lam0 = 0.5
    for _ in range(40):
        m_lam0 = _moments_at(v, nl, se, lam0)
        if m_lam0.nehari(nl) > 0.0:
            break
        lam0 *= 0.5
    else:
        raise GluingFailed("no lambda0 with a positive Nehari value in 40 halvings")

    # C: ray endpoint with either negative action or nonpositive Nehari value
    big_c = 2.0
    while True:
        m_c = _moments_at(v, nl, se, big_c)
        s_c = m_c.action(nl)
        if s_c < 0.0 or m_c.nehari(nl) <= 0.0:
            break
        big_c *= 2.0
        if big_c > C_SEARCH_CAP:
            raise NoNegativeEndpoint(
                "ray action stays nonnegative with positive Nehari value out to 2^30")

    t_end = 1.0
    if s_c >= 0.0:
        t_end = 2.0
        while m_c.scaled(t_end, AMPLITUDE_RAY, nl, n).action(nl) >= 0.0:
            t_end *= 2.0
            if t_end > C_SEARCH_CAP:
                raise NoNegativeEndpoint("final amplitude segment never turns negative")

    three = t_end > 1.0
    t_a = 1.0 / 3.0 if three else 0.5
    t_b = 2.0 / 3.0 if three else 1.0
    log_ratio = math.log(big_c / lam0)

    def evaluate(t: float) -> float:
        if t <= t_a:
            return m_lam0.scaled(t / t_a, AMPLITUDE_RAY, nl, n).action(nl)
        if t <= t_b:
            lam = lam0 * math.exp(log_ratio * (t - t_a) / (t_b - t_a))
            return family_action(v, nl, se, lam)
        amp = 1.0 + (t_end - 1.0) * (t - t_b) / (1.0 - t_b)
        return m_c.scaled(amp, AMPLITUDE_RAY, nl, n).action(nl)

    ts = list(np.linspace(0.0, t_a, PATH_SAMPLES))
    ts += list(np.linspace(t_a, t_b, PATH_SAMPLES))[1:]
    if three:
        ts += list(np.linspace(t_b, 1.0, PATH_SAMPLES))[1:]
    return evaluate, ts, big_c, t_end, (t_a, t_b) if three else (t_a,)


def build_path(v: GridFunction, nl: PowerKG, se: ScalingExponents) -> PathSample:
    """A mountain-pass path through v, which must lie on K_{alpha,beta} = 0.

    The region picks the path: the ray path of an interior pair, the glued
    path of a limit pair; an invalid pair raises WrongRegion.  The samples
    are refined around the maximum.  The endpoint is None when it spills
    past r = R.
    """
    region = _region(se, nl, v.grid.dimension)
    if region == INVALID:
        raise WrongRegion(f"({se.alpha:g},{se.beta:g}) is not an admissible exponent pair")
    _require_on_constraint(v, nl, se)
    # a recipe gives t -> S(gamma(t)), the first samples of t, C, amp
    # (gamma(1) = amp * v_C) and the segment breaks
    recipe = _ray_path if region == INTERIOR else _glued_path
    evaluate, ts, big_c, amp, segment_breaks = recipe(v, nl, se)
    ss = [evaluate(tt) for tt in ts]
    t_arr, s_arr = _refine_argmax(ts, ss, evaluate)
    try:
        end = GridFunction(v.grid, amp * rescale(v, big_c, se).values)
    except TruncationOverflow:
        end = None
    return PathSample(
        t=t_arr,
        action_values=s_arr,
        start=GridFunction.zeros(v.grid),
        end=end,
        argmax_index=int(np.argmax(s_arr)),
        starts_at_zero=True,
        negative_endpoint=bool(s_arr[-1] < 0.0),
        segment_breaks=segment_breaks,
    )


def mountain_pass_estimate(paths) -> float:
    """min over paths of max-over-samples action: an upper bound for the
    mountain-pass level."""
    paths = list(paths)
    if not paths:
        raise InvalidParameter("need at least one path")
    for path in paths:
        if not path.admissible:
            raise InvalidInput("every path must start at zero and end at negative action")
    return min(path.max_action for path in paths)


# -- verification sweeps ------------------------------------------------------

def default_trial_family(gs, count: int = 50, seed: int = 0) -> list[GridFunction]:
    """The ground state, a width family around it, and seeded bump
    perturbations: the stock trial set for the minimization checks."""
    if count < 3:
        raise InvalidParameter("trial family needs at least 3 members")
    v = gs.profile
    grid = v.grid
    rng = np.random.default_rng(seed)
    members = [v]
    n_width = (count - 1) // 2
    width_ray = ScalingExponents(0.0, 1.0)
    for w in np.geomspace(0.5, 2.0, n_width):
        members.append(rescale(v, float(w), width_ray))
    r = grid.r
    while len(members) < count:
        eps = rng.uniform(-0.3, 0.3)
        x0 = rng.uniform(0.0, grid.outer_radius / 8.0)
        width = rng.uniform(0.5, 2.0)
        bump = 1.0 + eps * np.exp(-(((r - x0) / width) ** 2))
        members.append(GridFunction(grid, v.values * bump))
    return members


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
    """
    trials = list(trials)
    if not trials:
        raise InvalidParameter("empty trial family")
    dimension = trials[0].grid.dimension
    region = _region(se, nl, dimension)
    if region == INVALID:
        raise WrongRegion(f"({se.alpha:g},{se.beta:g}) classifies as {region}")
    if tol is None:
        tol = 1e-3 * abs(m_ref)
    unity_cell = int(np.argmin(np.abs(ARGMAX_LAM_GRID - 1.0)))

    lambdas, actions, failures, cells_off = [], [], [], []
    for i, trial in enumerate(trials):
        try:
            lam_star, projected = project_to_constraint(trial, nl, se)
        except (NoRoot, TruncationOverflow, ConvergenceError, InvalidInput) as err:
            failures.append((i, type(err).__name__))
            lambdas.append(None)
            actions.append(None)
            continue
        lambdas.append(lam_star)
        m = moments(projected, nl)
        actions.append(m.action(nl))
        if region == INTERIOR:
            # the ray profile of the projected moments transforms exactly
            # under scaling; the resampled map would fold interpolation
            # error into the peak location for strongly compressed members
            profile = m.scaled(ARGMAX_LAM_GRID, se, nl, dimension).action(nl)
            cells_off.append(abs(int(np.argmax(profile)) - unity_cell))
    evaluated = [(s, i) for i, s in enumerate(actions) if s is not None]
    if not evaluated:
        raise EmptyConstraintSample("no trial could be placed on the constraint")
    min_action, argmin_index = min(evaluated)
    return MinimizationReport(
        alpha=se.alpha, beta=se.beta, region=region, m_ref=m_ref, tol=tol,
        members_total=len(trials),
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
    skipped: tuple           # member indices with P below the boundary band (outside the set)
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
    the constraint set and are skipped.
    """
    trials = list(trials)
    if not trials:
        raise InvalidParameter("empty trial family")
    if trials[0].grid.dimension != 2:
        raise Unsupported("the T/P equivalence is a dimension-2 statement")
    if tol is None:
        tol = 1e-3 * abs(m_ref)
    lambdas, kinetics, skipped, failures = [], [], [], []
    for i, trial in enumerate(trials):
        m = moments(trial, nl)
        band = P_BOUNDARY_TOL * m.h1
        p_val = m.potential(nl)
        if p_val < -band:
            skipped.append(i)
            lambdas.append(None)
            kinetics.append(None)
            continue
        if p_val <= band:
            lambdas.append(None)
            kinetics.append(m.kinetic)
            continue
        try:
            lam0, projected = project_to_P_zero(trial, nl)
        except (PreconditionFailed, Unsupported, NoRoot, ConvergenceError,
                TruncationOverflow) as err:
            failures.append((i, type(err).__name__))
            lambdas.append(None)
            kinetics.append(None)
            continue
        lambdas.append(lam0)
        kinetics.append(kinetic_T(projected))
    evaluated = [(t, i) for i, t in enumerate(kinetics) if t is not None]
    if not evaluated:
        raise EmptyConstraintSample("no trial lies in the P >= 0 set")
    min_kinetic, argmin_index = min(evaluated)
    return KineticReport(
        m_ref=m_ref, tol=tol, members_total=len(trials),
        lambdas=tuple(lambdas), kinetics=tuple(kinetics),
        skipped=tuple(skipped), failures=tuple(failures),
        min_kinetic=min_kinetic, argmin_index=argmin_index,
    )
