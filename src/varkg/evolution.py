"""Radial wave dynamics u_tt = lap(u) + g(u) with invariant-set tracking.

The integrator is the kick-drift-kick leapfrog on the radial grid, with
the symmetric origin stencil and a homogeneous Dirichlet edge.  Blow-up
is operationalized as escape of the H1 norm past a fixed multiple of its
initial value; radiation reaching the outer boundary and loss of
finiteness are separate recorded terminations, never silent states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParameter,
    NumericalOverflow,
    PreconditionFailed,
    Unsupported,
)
from .ground_state import GroundState, least_energy
from .model import ScalingExponents, dynamic_pair, moments
from .paths import rescale
from .radial_core import (
    SPHERE_SURFACE,
    GridFunction,
    RadialGrid,
    _derivative_kernel,
    require_same_grid,
)

REACHED_TMAX = "ReachedTmax"
BLOWUP_DETECTED = "BlowupDetected"
NON_FINITE = "NonFinite"
BOUNDARY_CONTAMINATION = "BoundaryContamination"

DEFAULT_CFL = 0.4
BOUNDARY_ZONE = 0.1       # outer fraction of the domain watched for contamination
BOUNDARY_FRACTION = 0.01  # H1-norm fraction allowed to ARRIVE in that zone: the
                          # guard fires on growth past the initial fraction, so
                          # data that legitimately lives near the edge (Dirichlet
                          # eigenmodes) is not rejected outright


@dataclass
class EvolutionState:
    """Raw (u, u_t) arrays at one time.  Finiteness is checked by the
    driver at diagnostic times, not enforced here: a non-finite state is
    a detected event."""

    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one record time.  energy is the conserved energy
    of the discrete system (see discrete_energy); the remaining
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
    final_state: EvolutionState
    m_ref: float | None


def radial_laplacian(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Second-order radial Laplacian; the origin uses the symmetric stencil
    lap(0) = 2N (u_1 - u_0)/h^2 and the Dirichlet edge is held at zero."""
    h = grid.spacing
    n = grid.dimension
    lap = np.zeros_like(values)
    lap[0] = 2.0 * n * (values[1] - values[0]) / h**2
    centered = values[2:] - 2.0 * values[1:-1] + values[:-2]
    lap[1:-1] = centered / h**2
    if n > 1:
        lap[1:-1] += (n - 1) / grid.r[1:-1] * (values[2:] - values[:-2]) / (2.0 * h)
    return lap


def _acceleration(values: np.ndarray, grid: RadialGrid, g) -> np.ndarray:
    acc = radial_laplacian(values, grid) + g(values)
    acc[-1] = 0.0
    return acc


def step(state: EvolutionState, dt: float, nl, cfl: float = DEFAULT_CFL) -> EvolutionState:
    """One kick-drift-kick leapfrog step."""
    h = state.grid.spacing
    if not (0.0 < dt <= cfl * h):
        raise InvalidParameter(f"dt = {dt:g} violates dt <= {cfl:g} * h = {cfl * h:g}")
    g, _ = dynamic_pair(nl)
    vh = state.v + 0.5 * dt * _acceleration(state.u, state.grid, g)
    u1 = state.u + dt * vh
    u1[-1] = 0.0
    v1 = vh + 0.5 * dt * _acceleration(u1, state.grid, g)
    return EvolutionState(state.grid, u1, v1, state.t + dt)


def _outer_fraction(u: np.ndarray, grid: RadialGrid, outer: np.ndarray) -> float:
    du = _derivative_kernel(u, grid)
    density = grid.weights * (u * u + du * du)
    total = float(density.sum())
    if total == 0.0:
        return 0.0
    return math.sqrt(float(density[outer].sum()) / total)


def _discrete_energy(u: np.ndarray, v: np.ndarray, grid: RadialGrid, nl) -> float:
    """Energy of the semi-discrete system the integrator actually solves.

    The gradient term lives on cell faces and the potential on nodes
    weighted by finite-volume cell measures; with the dimension-2 radial
    stencil (which coincides with the conservative flux form) this
    quantity is exactly conserved by the spatial discretization, so the
    leapfrog keeps it within a bounded O(dt^2) oscillation even when a
    focusing core outruns the mesh.  It agrees with energy_E to O(h^2)
    on resolved fields.
    """
    _, big_g = dynamic_pair(nl)
    h = grid.spacing
    n = grid.dimension
    surf = SPHERE_SURFACE[n]
    r_face = grid.r[:-1] + 0.5 * h
    du = np.diff(u) / h
    grad_term = 0.5 * surf * h * float((r_face ** (n - 1) * du * du).sum())
    cell = np.empty(grid.cells + 1)
    cell[1:-1] = surf * grid.r[1:-1] ** (n - 1) * h
    cell[0] = surf * (0.5 * h) ** n / n
    cell[-1] = 0.5 * surf * grid.outer_radius ** (n - 1) * h
    kinetic = 0.5 * float((cell * v * v).sum())
    potential = -float((cell * big_g(u)).sum())
    return kinetic + grad_term + potential


def discrete_energy(u: GridFunction, v: GridFunction, nl) -> float:
    """Conserved energy of the discretized flow; see _discrete_energy."""
    require_same_grid(u, v)
    return _discrete_energy(u.values, v.values, u.grid, nl)


def _record(grid: RadialGrid, u: np.ndarray, v: np.ndarray, t: float,
            nl, m_ref: float | None) -> TrajectoryRecord:
    energy = _discrete_energy(u, v, grid, nl)
    m = moments(GridFunction(grid, u), nl)
    p_val = m.potential(nl)
    in_set = m_ref is not None and energy < m_ref and p_val > 0.0
    return TrajectoryRecord(t, energy, m.action(nl), p_val, m.kinetic, math.sqrt(m.h1), in_set)


def evolve(u0: GridFunction, v0: GridFunction, nl, t_max: float,
           blowup_factor: float = 5.0, m_ref: float | None = None,
           diag_stride: int | None = None, cfl: float = DEFAULT_CFL) -> Trajectory:
    """Integrate to t_max or to the first recorded termination event.

    Diagnostics (energy, action, P, T, H1 norm, invariant-set flag) are
    taken every diag_stride steps; the three event checks (finiteness,
    H1 escape past blowup_factor times its initial value, outer-boundary
    contamination) run at those same times.
    """
    require_same_grid(u0, v0)
    if u0.is_complex or v0.is_complex:
        raise InvalidInput("evolution is real-valued")
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be positive and finite, got {t_max!r}")
    if not (blowup_factor > 1.0):
        raise InvalidParameter("blowup_factor must exceed 1")
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise InvalidParameter(f"cfl must be positive and finite, got {cfl!r}")
    grid = u0.grid
    h = grid.spacing
    n_steps = max(1, math.ceil(t_max / (cfl * h)))
    dt = t_max / n_steps
    if diag_stride is None:
        diag_stride = max(1, round(0.05 / dt))
    g, _ = dynamic_pair(nl)

    u = u0.values.copy()
    v = v0.values.copy()
    records = [_record(grid, u, v, 0.0, nl, m_ref)]
    h1_init = records[0].h1_norm
    outer = grid.r >= (1.0 - BOUNDARY_ZONE) * grid.outer_radius
    frac_init = _outer_fraction(u, grid, outer)
    termination = REACHED_TMAX

    # losing finiteness is a recorded event; silence the intermediate
    # overflow warnings on the way to its detection
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _acceleration(u, grid, g)
        for k in range(1, n_steps + 1):
            vh = v + 0.5 * dt * acc
            u = u + dt * vh
            u[-1] = 0.0
            acc = _acceleration(u, grid, g)
            v = vh + 0.5 * dt * acc
            if k % diag_stride != 0 and k != n_steps:
                continue
            t = k * dt
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                termination = NON_FINITE
                break
            try:
                rec = _record(grid, u, v, t, nl, m_ref)
            except NumericalOverflow:
                # finite state whose diagnostics left the representable
                # range: the same terminal event as literal infinities
                termination = NON_FINITE
                break
            records.append(rec)
            if rec.h1_norm > blowup_factor * h1_init:
                termination = BLOWUP_DETECTED
                break
            if _outer_fraction(u, grid, outer) > frac_init + BOUNDARY_FRACTION:
                termination = BOUNDARY_CONTAMINATION
                break

    final = EvolutionState(grid, u, v, records[-1].t if termination != NON_FINITE else k * dt)
    return Trajectory(tuple(records), termination, final, m_ref)


def make_initial_data(gs: GroundState, lam: float, mu: float,
                      grid: RadialGrid | None = None) -> tuple[GridFunction, dict]:
    """Dilated-rescaled profile lam * phi(x/mu) with its membership report.

    lam = mu = 1 on the ground state's own grid reproduces the profile
    bit-for-bit, so E equals the reference level exactly and the boundary
    case lands outside the open invariant set by construction.
    """
    if gs.grid.dimension != 2:
        raise Unsupported("instability data construction is specific to dimension 2")
    if not (lam > 0.0 and mu > 0.0):
        raise InvalidParameter("lam and mu must be positive")
    nl = gs.nonlinearity
    base = gs.profile
    if grid is not None and grid != gs.grid:
        if grid.dimension != 2:
            raise Unsupported("target grid must be two-dimensional")
        vals = np.interp(grid.r, gs.grid.r, base.values, right=0.0)
        vals[-1] = 0.0
        base = GridFunction(grid, vals)
    stretched = rescale(base, 1.0 / mu, ScalingExponents(0.0, 1.0, ""))
    u = GridFunction(base.grid, lam * stretched.values)
    m_ref = least_energy(gs)
    m = moments(u, nl)
    action = m.action(nl)
    p_val = m.potential(nl)
    energy = action  # E(u, 0) = S(u): the data start at rest
    report = {
        "action": action,
        "p_value": p_val,
        "energy": energy,
        "m_ref": m_ref,
        "in_invariant_set": bool(energy < m_ref and p_val > 0.0),
    }
    return u, report


@dataclass(frozen=True)
class InvariantReport:
    """Invariant-set diagnostics over a trajectory's records."""

    in_set_throughout: bool
    first_violation_time: float | None
    min_p: float
    min_p_time: float
    min_kinetic: float
    records_checked: int

    @property
    def passed(self) -> bool:
        return self.in_set_throughout and self.min_p > 0.0


def invariant_monitor(traj: Trajectory) -> InvariantReport:
    """Check that a trajectory started inside {E < m, P > 0} stays there.

    The record that raised a termination event is excluded: past the
    escape (or contamination) threshold the state is outside the regime
    the membership flags describe.  The reported min_p is the observed
    positive lower bound on P; the kinetic minimum is included because
    membership forces T >= m."""
    if not traj.records:
        raise PreconditionFailed("trajectory has no records")
    if traj.m_ref is None:
        raise PreconditionFailed("trajectory carries no reference level")
    if not traj.records[0].in_invariant_set:
        raise PreconditionFailed("trajectory did not start inside the invariant set")
    records = traj.records
    if traj.termination in (BLOWUP_DETECTED, BOUNDARY_CONTAMINATION) and len(records) > 1:
        records = records[:-1]
    first_violation = None
    for rec in records:
        if not rec.in_invariant_set:
            first_violation = rec.t
            break
    min_p_rec = min(records, key=lambda rec: rec.p_value)
    min_kin = min(rec.kinetic for rec in records)
    return InvariantReport(
        in_set_throughout=first_violation is None,
        first_violation_time=first_violation,
        min_p=min_p_rec.p_value,
        min_p_time=min_p_rec.t,
        min_kinetic=min_kin,
        records_checked=len(records),
    )


def energy_drift(traj: Trajectory, end: int | None = None) -> float:
    """Largest-magnitude signed energy drift (E(t) - E(0))/|E(0)| over the
    records (absolute drift when E(0) = 0).  Pass end to exclude trailing
    records, e.g. the escape record of a blow-up run."""
    records = traj.records if end is None else traj.records[:end]
    if len(records) < 2:
        raise InvalidInput("need at least two records to measure drift")
    e0 = records[0].energy
    drifts = np.array([rec.energy - e0 for rec in records[1:]])
    if e0 != 0.0:
        drifts = drifts / abs(e0)
    return float(drifts[np.argmax(np.abs(drifts))])
