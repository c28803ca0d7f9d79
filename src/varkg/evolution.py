"""Radial wave dynamics u_tt = lap(u) + g(u) with invariant-set tracking.

The integrator is the position-form leapfrog on one conservative radial
operator per grid (Strauss & Vazquez, J. Comput. Phys. 28, 1978) with a
homogeneous Dirichlet edge.  Blow-up is escape of the H1 norm past a
fixed multiple of its initial value; radiation reaching the outer boundary
and loss of finiteness are separate recorded terminations, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParameter,
    NumericalOverflow,
    PreconditionFailed,
    Unsupported,
)
from .ground_state import GroundState
from .model import ScalingExponents, _force_into, _moment_arrays, flow_nonlinearity
from .paths import rescale
from .radial_core import (
    SPHERE_SURFACE,
    GridFunction,
    RadialGrid,
    grad_norm_sq,
    l2_norm_sq,
    require_same_grid,
)

REACHED_TMAX = "ReachedTmax"
BLOWUP_DETECTED = "BlowupDetected"
NON_FINITE = "NonFinite"
BOUNDARY_CONTAMINATION = "BoundaryContamination"

DEFAULT_CFL = 0.4
RECORD_INTERVAL = 0.05    # time between diagnostic records, rounded to whole steps
BOUNDARY_ZONE = 0.1       # outer fraction of the domain watched for contamination
BOUNDARY_FRACTION = 0.01  # H1-norm fraction allowed to ARRIVE in that zone: the
                          # guard fires on growth past the initial fraction, so
                          # data that legitimately lives near the edge (Dirichlet
                          # eigenmodes) is not rejected outright
RESOLUTION_TOL = 1e-2     # relative error allowed in the resampled moments of
                          # dilated initial data


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one record time.  energy is the conserved energy
    of the discrete system (see _discrete_energy); the remaining
    functionals use the model-module quadratures."""

    t: float
    energy: float
    action: float
    p_value: float
    kinetic: float
    h1_norm: float
    in_invariant_set: bool


@dataclass(frozen=True)
class Trajectory:
    records: tuple
    termination: str
    final_u: np.ndarray
    m_ref: float | None

    @property
    def diagnostic_records(self) -> tuple:
        """The records diagnostics read: all but the one that raised
        BlowupDetected or BoundaryContamination, past whose threshold the
        state is outside the regime the diagnostics describe."""
        if self.termination in (BLOWUP_DETECTED, BOUNDARY_CONTAMINATION):
            return self.records[:-1]
        return self.records


@lru_cache(maxsize=8)
def _operator(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """The grid's conservative operator: face[i] = surf r_{i+1/2}^(N-1) / h
    weighs u_{i+1} - u_i, cell[i] = surf (r_{i+1/2}^N - r_{i-1/2}^N) / N is
    the shell of node i ([0, h/2] and [R - h/2, R] at the ends), and stiffness
    is the Gershgorin bound on -lap, cell-weighted symmetric, on free nodes."""
    n = grid.dimension
    surf = SPHERE_SURFACE[n]
    edges = np.concatenate(([0.0], grid.r[:-1] + 0.5 * grid.spacing, [grid.outer_radius]))
    face = surf * edges[1:-1] ** (n - 1) / grid.spacing
    cell = surf * np.diff(edges**n) / n
    s = 1.0 / np.sqrt(cell)
    s[-1] = 0.0  # the Dirichlet node is not free
    pair = face * (s[1:] + s[:-1])
    stiffness = float((s[:-1] * (pair + np.append(0.0, pair[:-1]))).max())
    face.flags.writeable = cell.flags.writeable = False  # every caller shares them
    return face, cell, stiffness


def _laplacian_into(u: np.ndarray, grid: RadialGrid, out: np.ndarray, scale: float):
    """A call writing scale times the Laplacian of u's current values into out:
    flux difference over cell measure (see _operator), zero at the Dirichlet
    edge, so -cell * lap(u) is the exact gradient of the energy's face term.
    scale multiplies the faces once, here; 1.0 leaves them exact."""
    face, cell, _ = _operator(grid)
    face = scale * face
    flux, out_lo, cell_lo = np.zeros(u.size), out[:-1], cell[:-1]
    u_hi, u_lo, flux_hi, flux_lo = u[1:], u[:-1], flux[1:], flux[:-1]
    def laplacian():
        np.subtract(u_hi, u_lo, out=flux_hi)
        np.multiply(face, flux_hi, out=flux_hi)
        np.subtract(flux_hi, flux_lo, out=out_lo)  # flux[0] = 0: nothing crosses the origin
        np.divide(out_lo, cell_lo, out=out_lo)
        out[-1] = 0.0
    return laplacian


def _leapfrog(u: np.ndarray, v: np.ndarray, dt: float, grid: RadialGrid, flow,
              n_steps: int, stride: int):
    """Advance (u, v) in place by n_steps leapfrog steps of the flow in position
    form (Hairer, Lubich & Wanner, Acta Numerica 12, 2003): w = dt v drifts
    u += w and kicks w += A = dt^2 (lap(u) + g(u)), dt^2 folded into the faces
    and the force; buffers are made once a run.  It is kick-drift-kick up to
    roundoff, 1e-11 relative over 300 steps.  At each stride-th step and the
    last it writes v = (w + A/2)/dt and yields the count; a dt outside
    (0, 2/sqrt(stiffness + mass)] raises at the first next()."""
    bound = 2.0 / math.sqrt(_operator(grid)[2] + flow.mass)
    if not (0.0 < dt <= bound):
        raise InvalidParameter(f"dt = {dt:g} is outside the leapfrog stability range "
                               f"(0, {bound:g}], i.e. cfl <= {bound / grid.spacing:.4g}")
    acc, force, dt2 = np.empty(u.size), np.empty(u.size), dt * dt
    laplacian, push = _laplacian_into(u, grid, acc, dt2), _force_into(u, flow, dt2, force)
    def accelerate():
        laplacian()
        push()
        np.add(acc, force, out=acc)
        acc[-1] = 0.0
    accelerate()
    w = dt * v + 0.5 * acc  # dt times the velocity at the first half step
    for k in range(1, n_steps + 1):
        np.add(u, w, out=u)
        u[-1] = 0.0
        accelerate()
        if k % stride == 0 or k == n_steps:
            np.divide(w + 0.5 * acc, dt, out=v)
            yield k
        np.add(w, acc, out=w)


def _outer_fraction(grid: RadialGrid, arrays: tuple, outer: slice) -> float:
    """Square root of the outer nodes' share of the H1 moment, from _record's arrays."""
    m, uu, dd = arrays
    if m.h1 == 0.0:
        return 0.0
    return math.sqrt(float((grid.weights[outer] * (uu[outer] + dd[outer])).sum()) / m.h1)


def _discrete_energy(u: np.ndarray, v: np.ndarray, grid: RadialGrid, flow) -> float:
    """Energy of the semi-discrete system of the flow nonlinearity on the
    operator's faces and cells, conserved in every dimension (its gradient
    is -cell * (lap + g)) up to the leapfrog's bounded O(dt^2) oscillation.
    It is energy_E to O(h^2)."""
    face, cell, _ = _operator(grid)
    du = np.diff(u)
    nodal = cell * (0.5 * v * v - flow.G(u))
    return float(nodal.sum()) + 0.5 * float((face * du * du).sum())


def _record(grid: RadialGrid, u: np.ndarray, v: np.ndarray, t: float,
            flow, m_ref: float | None) -> tuple[TrajectoryRecord, tuple]:
    """The diagnostics at one record time and u's _moment_arrays; the only
    place that decides membership in {E < m_ref, P > 0}, E the flow's energy."""
    energy = _discrete_energy(u, v, grid, flow)
    arrays = _moment_arrays(u, grid, flow)
    m = arrays[0]
    p_val = m.potential()
    in_set = m_ref is not None and energy < m_ref and p_val > 0.0
    return (TrajectoryRecord(t, energy, m.action(), p_val, m.kinetic, math.sqrt(m.h1), in_set),
            arrays)


def evolve(u0: GridFunction, v0: GridFunction, nl, t_max: float,
           blowup_factor: float = 5.0, m_ref: float | None = None,
           cfl: float = DEFAULT_CFL) -> Trajectory:
    """Integrate to t_max or to the first recorded termination event.

    dt <= cfl * h divides t_max in at most 2**53 steps and passes the leapfrog's
    stability bound.  Diagnostics (energy, action, P, T, H1 norm, invariant-set
    flag) and the event checks (finiteness, H1 escape past blowup_factor times
    its start value, boundary contamination) run every RECORD_INTERVAL, in
    steps.  They are taken with the flow's nonlinearity (see flow_nonlinearity),
    so E and S agree on data at rest.  The first record is that of the data
    themselves, so its flag is their membership in the invariant set.
    """
    flow = flow_nonlinearity(nl)
    require_same_grid(u0, v0)
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be positive and finite, got {t_max!r}")
    if not (blowup_factor > 1.0):
        raise InvalidParameter("blowup_factor must exceed 1")
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise InvalidParameter(f"cfl must be positive and finite, got {cfl!r}")
    grid = u0.grid
    steps = t_max / (cfl * grid.spacing) if cfl * grid.spacing > 0.0 else math.inf
    if not steps <= 2.0**53:  # past it k * dt no longer names distinct record times
        raise InvalidParameter(f"t_max = {t_max!r} at cfl = {cfl!r} takes more than 2**53 steps")
    n_steps = max(1, math.ceil(steps))
    dt = t_max / n_steps
    stride = max(1, round(RECORD_INTERVAL / dt))

    u, v = np.array(u0.values, dtype=float), np.array(v0.values, dtype=float)
    # the zone is the tail of the grid, r >= (1 - BOUNDARY_ZONE) R
    outer = slice(int(np.searchsorted(grid.r, (1.0 - BOUNDARY_ZONE) * grid.outer_radius)), None)
    termination = REACHED_TMAX

    # losing finiteness is a recorded event; silence the intermediate
    # overflow warnings on the way to its detection
    with np.errstate(over="ignore", invalid="ignore"):
        rec, arrays = _record(grid, u, v, 0.0, flow, m_ref)
        records, h1_init, frac_init = [rec], rec.h1_norm, _outer_fraction(grid, arrays, outer)
        arrays = None  # u*u and d*d held through the steps raised the peak RSS
        for k in _leapfrog(u, v, dt, grid, flow, n_steps, stride):
            t = k * dt
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                termination = NON_FINITE
                break
            try:
                rec, arrays = _record(grid, u, v, t, flow, m_ref)
            except NumericalOverflow:
                # finite state whose diagnostics left the representable
                # range: the same terminal event as literal infinities
                termination = NON_FINITE
                break
            records.append(rec)
            if rec.h1_norm > blowup_factor * h1_init:
                termination = BLOWUP_DETECTED
                break
            if _outer_fraction(grid, arrays, outer) > frac_init + BOUNDARY_FRACTION:
                termination = BOUNDARY_CONTAMINATION
                break
            arrays = None

    return Trajectory(tuple(records), termination, u, m_ref)


def make_initial_data(gs: GroundState, lam: float, mu: float) -> GridFunction:
    """The dilated-rescaled profile lam * phi(x/mu).

    lam = mu = 1 reproduces the profile bit-for-bit.  Membership in the
    invariant set is read off the trajectory's first record (see evolve).
    The real radial flow carries standing waves only at omega = 0, so a
    ground state whose nonlinearity differs from its flow's (see
    flow_nonlinearity) is rejected: its level m would use a mass the flow
    does not.  In dimension 2 phi(x/mu) has the gradient moment of phi and
    mu^2 times its L2 moment; a mu whose resampled profile misses either
    by more than RESOLUTION_TOL (relative), or so small that R/mu overflows,
    is not resolved by the grid and raises InvalidParameter, as does a lam
    or mu not positive and finite;
    lam * phi past the float range raises NumericalOverflow.
    """
    if gs.grid.dimension != 2:
        raise Unsupported("instability data construction is specific to dimension 2")
    for name, value in (("lambda", lam), ("mu", mu)):
        if not (value > 0.0 and math.isfinite(value)):
            raise InvalidParameter(f"{name} must be positive and finite, got {value!r}")
    nl = gs.nonlinearity
    if flow_nonlinearity(nl) != nl:
        raise Unsupported("the real radial flow carries standing waves only at omega = 0, "
                          f"got {nl!r}")
    stretch = 1.0 / mu
    if not math.isfinite(stretch * gs.grid.outer_radius):
        raise InvalidParameter(f"the grid does not resolve mu = {mu!r}: "
                               "R/mu is past the float range")
    stretched = rescale(gs.profile, stretch, ScalingExponents(0.0, 1.0))
    got = np.array([grad_norm_sq(stretched), l2_norm_sq(stretched)])
    exact = np.array([grad_norm_sq(gs.profile), mu * mu * l2_norm_sq(gs.profile)])
    with np.errstate(divide="ignore", invalid="ignore"):
        off = float(np.max(np.abs(got - exact) / exact))
    if not off <= RESOLUTION_TOL:
        raise InvalidParameter(f"the grid does not resolve mu = {mu:g}: the dilated profile's "
                               f"moments are off by {off:.3g} (limit {RESOLUTION_TOL:g})")
    if not math.isfinite(lam * float(np.abs(stretched.values).max())):
        raise NumericalOverflow(f"lambda = {lam:g} takes the profile past the float range")
    return GridFunction(stretched.grid, lam * stretched.values)


@dataclass(frozen=True)
class InvariantReport:
    """Invariant-set diagnostics over a trajectory's records."""

    in_set_throughout: bool
    min_p: float
    min_kinetic: float


def invariant_monitor(traj: Trajectory) -> InvariantReport:
    """Check that a trajectory started inside {E < m, P > 0} stays there.

    The record that raised a termination event is excluded: past the
    escape (or contamination) threshold the state is outside the regime
    the membership flags describe.  in_set_throughout says whether every
    remaining record is inside the set; min_p is the observed lower bound
    on P over them, and min_kinetic the kinetic minimum, which membership
    forces to be at least m."""
    if not traj.records:
        raise PreconditionFailed("trajectory has no records")
    if traj.m_ref is None:
        raise PreconditionFailed("trajectory carries no reference level")
    if not traj.records[0].in_invariant_set:
        raise PreconditionFailed("trajectory did not start inside the invariant set")
    records = traj.diagnostic_records
    return InvariantReport(
        in_set_throughout=all(rec.in_invariant_set for rec in records),
        min_p=min(rec.p_value for rec in records),
        min_kinetic=min(rec.kinetic for rec in records),
    )


def energy_drift(traj: Trajectory) -> float:
    """Largest-magnitude signed energy drift (E(t) - E(0))/|E(0)| over the
    trajectory's diagnostic_records (absolute drift when E(0) = 0)."""
    records = traj.diagnostic_records
    if len(records) < 2:
        raise InvalidInput("need at least two records to measure drift")
    e0 = records[0].energy
    drifts = np.array([rec.energy - e0 for rec in records[1:]])
    if e0 != 0.0:
        drifts = drifts / abs(e0)
    return float(drifts[np.argmax(np.abs(drifts))])
