"""Radial wave dynamics u_tt = lap(u) + g(u) with invariant-set tracking.

The integrator is the position-form leapfrog on one conservative radial
operator per grid (Strauss & Vazquez, J. Comput. Phys. 28, 1978) with a
homogeneous Dirichlet edge.  Blow-up is escape of the H1 norm past a
fixed multiple of its initial value; radiation reaching the outer boundary
and loss of finiteness are separate recorded terminations, never silent.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    InvalidInput,
    InvalidParameter,
    NumericalOverflow,
    PreconditionFailed,
    Unsupported,
)
from .ground_state import GroundState
from .model import (
    Moments,
    PowerKG,
    _abs_power,
    flow_nonlinearity,
    moments,
)
from .paths import WIDTH_RAY, rescale
from .radial_core import SPHERE_SURFACE, GridFunction, RadialGrid, require_same_grid

REACHED_TMAX = "ReachedTmax"
BLOWUP_DETECTED = "BlowupDetected"
NON_FINITE = "NonFinite"
BOUNDARY_CONTAMINATION = "BoundaryContamination"

DEFAULT_CFL = 0.4
BLOWUP_FACTOR = 5.0       # H1-norm growth over its start value that counts as blow-up
RECORD_INTERVAL = 0.05    # time between diagnostic records, rounded to whole steps
BOUNDARY_ZONE = 0.1       # outer fraction of the domain watched for contamination
BOUNDARY_FRACTION = 0.01  # H1-norm fraction allowed to ARRIVE in that zone: the
                          # guard fires on growth past the initial fraction, so
                          # data that legitimately lives near the edge (Dirichlet
                          # eigenmodes) is not rejected outright
RESOLUTION_TOL = 1e-2     # relative error allowed in the resampled moments of
                          # dilated initial data
_LINE = 8                 # float64s in a 64-byte cache line


class TrajectoryRecord(NamedTuple):
    """Diagnostics at one record time.  energy is the conserved energy
    of the discrete system; the remaining functionals are the model
    module's forms on moments taken on the same faces and cells (see
    _record)."""

    t: float
    energy: float
    action: float
    p_value: float
    kinetic: float
    h1_norm: float
    in_invariant_set: bool


# a TrajectoryRecord packed: its six floats and its flag
_PACKED_RECORD = struct.Struct("6d?")


def _bits(x: float | None) -> bytes | None:
    return None if x is None else struct.pack("d", x)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's records, its termination, its final u and the level its
    invariant-set flags compare with.  The records are kept packed, 49 bytes
    each (see _PACKED_RECORD), and become TrajectoryRecords each time they
    are read: as objects they took five times the memory, which a batch of
    runs holds until its last run ends.  Two trajectories are equal when
    all four agree bit for bit."""

    packed_records: bytearray
    termination: str
    final_u: np.ndarray
    m_ref: float | None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.packed_records == other.packed_records
                and self.termination == other.termination
                and _bits(self.m_ref) == _bits(other.m_ref)
                and self.final_u.dtype == other.final_u.dtype
                and self.final_u.shape == other.final_u.shape
                and self.final_u.tobytes() == other.final_u.tobytes())

    @property
    def records(self) -> tuple:
        """The TrajectoryRecords, unpacked on each read."""
        return tuple(TrajectoryRecord(*fields)
                     for fields in _PACKED_RECORD.iter_unpack(self.packed_records))

    @property
    def diagnostic_records(self) -> tuple:
        """The records diagnostics read: all but the one that raised
        BlowupDetected or BoundaryContamination, past whose threshold the
        state is outside the regime the diagnostics describe."""
        records = self.records
        if self.termination in (BLOWUP_DETECTED, BOUNDARY_CONTAMINATION):
            return records[:-1]
        return records


@lru_cache(maxsize=8)
def _operator(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """The grid's conservative operator: face[i] = surf r_{i+1/2}^(N-1) / h
    weighs u_{i+1} - u_i, cell[i] = surf (r_{i+1/2}^N - r_{i-1/2}^N) / N is
    the shell of node i ([0, h/2] and [R - h/2, R] at the ends), and kappa
    is h^2 times the Gershgorin bound on -lap, cell-weighted symmetric, on
    free nodes, formed with s = h / sqrt(cell) so that each product stays
    O(1) in h and no accepted spacing overflows it."""
    n = grid.dimension
    surf = SPHERE_SURFACE[n]
    edges = np.concatenate(([0.0], grid.r[:-1] + 0.5 * grid.spacing, [grid.outer_radius]))
    face = surf * edges[1:-1] ** (n - 1) / grid.spacing
    cell = surf * np.diff(edges**n) / n
    s = grid.spacing / np.sqrt(cell)
    s[-1] = 0.0  # the Dirichlet node is not free
    pair = face * (s[1:] + s[:-1])
    kappa = float((s[:-1] * (pair + np.append(0.0, pair[:-1]))).max())
    face.flags.writeable = cell.flags.writeable = False  # every caller shares them
    return face, cell, kappa


def _placed(rows: int, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroed storage for rows of nodes floats, each row padded to whole
    64-byte lines with one lead column before its node 0, so that node 0 of
    every row starts a line.  Three views of it: the (rows, nodes) rows; the
    lead-shifted view, of the same shape one column earlier, whose [..., 1:]
    are each row's first nodes - 1 nodes on their lines (the Laplacian's flux,
    see _step_views); and the flat view from row 0's node 0 to the last
    row's last node, the padding between rows included, for the elementwise
    passes.  A row's lead column is the last padding column of the row
    before it (of the storage's head, for row 0)."""
    stride = -(-(nodes + 1) // _LINE) * _LINE
    raw = np.zeros(rows * stride + _LINE)
    first = _LINE - raw.ctypes.data // 8 % _LINE  # row 0's node 0, in 1.._LINE
    lines = raw[first - 1:first - 1 + rows * stride].reshape(rows, stride)
    return lines[:, 1:nodes + 1], lines[:, :nodes], raw[first:first + (rows - 1) * stride + nodes]


def _step_operator(grid: RadialGrid, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The faces times scale and the reciprocal cell measure of the free
    nodes (see _operator), the arrays the step's Laplacian streams (see
    _steps), formed once a run, each starting a 64-byte line (see _placed).
    Scale 1.0 leaves the faces exact."""
    face, cell, _ = _operator(grid)
    scaled, inv_cell = (_placed(1, face.size)[0][0] for _ in range(2))
    return np.multiply(scale, face, out=scaled), np.divide(1.0, cell[:-1], out=inv_cell)


def _units(flow, dt: float) -> tuple[float, float] | None:
    """(s, s dt) for a power flow, s = dt^(2/(p-1)): the leapfrog marches
    U = s u and W = s dt v, in which the kick dt^2 s g(u) is
    U (|U|^(p-1) - dt^2 m0), with coefficient one.  None for a general g,
    and where s, s^(p+1) or (s dt)^2, which _record divides by, is not a
    normal float (p = 1.01 at dt = 0.02, or dt = 1e-160): such a run keeps
    s = 1 and multiplies dt^2 into the force."""
    if not isinstance(flow, PowerKG):
        return None
    try:
        s = dt ** (2.0 / (flow.p - 1.0))
        divisors = (s, s ** (flow.p + 1.0), (s * dt) ** 2)
    except OverflowError:
        return None
    if all(sys.float_info.min <= x < math.inf for x in divisors):
        return s, s * dt
    return None


def _step_views(u, v, w, acc) -> tuple:
    """The views a step streams over the current rows, u, v, w and acc each
    the views of _placed: the flat views of all four, for the elementwise
    passes, where a power's force gives -0.0 on U's zero padding; the rows
    of u and v, which a general g's force runs over alone, so that a g(0)
    other than 0 never reaches the padding, which therefore stays +0.0 in
    u, w and acc, and in v at each yield; u[1:] and u[:-1];
    the flux, v's lead-shifted view (see _placed), [1:] and [:-1] and its
    origin column, so that the fluxes land on v's own nodes, one node ahead
    of the faces they cross; acc's rows but their edge column, which the
    Laplacian writes; and the edge columns of u and acc, which the step
    zeroes.  A single row goes as plain vectors, whose calls cost less than
    those of (1, M+1) views."""
    (u_rows, _, uf), (v_rows, flux, vf), (_, _, wf), (a_rows, _, af) = u, v, w, acc
    if len(u_rows) == 1:
        u_rows, v_rows, flux, a_rows = u_rows[0], v_rows[0], flux[0], a_rows[0]
    return (uf, vf, wf, af, u_rows, v_rows, u_rows[..., 1:], u_rows[..., :-1],
            flux[..., 1:], flux[..., :-1], flux[..., 0], a_rows[..., :-1],
            u_rows[..., -1], a_rows[..., -1])


def _steps(views: tuple, run: tuple, k: int, last: int) -> None:
    """Leapfrog steps k + 1 to last over the views of _step_views, each a
    drift U += W, the acceleration A = dt^2 lap(U) + F, zero at the edge, and
    the kick W += A; step 0 (k = -1) takes the first acceleration and the
    half kick W += A/2 alone.  The Laplacian is the flux difference times
    1/cell, so -cell lap(u) is the exact gradient of the energy's face term;
    F is U (|U|^(p-1) - dt^2 m0) in scaled units, dt^2 (|u|^(p-1) u - m0 u)
    where the run keeps s = 1, and dt^2 g(u) for a general g.  At step last
    it writes V = W + A/2 into v, divided by dt where the run keeps s = 1,
    before the kick.  The step is one loop of direct numpy calls with
    positional outputs: ten at p = 3 in scaled units.  Between yields v is
    the step's scratch, the flux and the force.  run holds what every step
    reads besides the rows: the faces times dt^2 and 1/cell of
    _step_operator, dt, dt^2, the mass term dt^2 m0, p - 1 and g (None for a
    general g and for a power, in turn), and whether the run is scaled."""
    (uf, vf, wf, af, u_rows, v_rows, u_hi, u_lo, flux_hi, flux_lo, origin, a_lo,
     u_edge, a_edge) = views
    face, inv_cell, dt, dt2, mass, q, g, scaled = run
    add, subtract, multiply = np.add, np.subtract, np.multiply
    square = q == 2.0
    for j in range(k + 1, last + 1):
        if j:
            add(uf, wf, uf)
            u_edge[()] = 0.0
        origin[()] = 0.0  # nothing crosses the origin
        subtract(u_hi, u_lo, flux_hi)
        multiply(face, flux_hi, flux_hi)
        subtract(flux_hi, flux_lo, a_lo)
        multiply(a_lo, inv_cell, a_lo)
        if g is not None:
            multiply(dt2, g(u_rows), v_rows)
        else:
            if square:
                multiply(uf, uf, vf)
            else:
                _abs_power(uf, q, vf)
            if not scaled:
                multiply(dt2, vf, vf)
            subtract(vf, mass, vf)
            multiply(uf, vf, vf)
        add(af, vf, af)
        a_edge[()] = 0.0
        if not j:
            add(wf, multiply(af, 0.5, vf), wf)
            continue
        if j == last:
            add(wf, multiply(af, 0.5, vf), vf)
            if not scaled:
                np.divide(vf, dt, vf)
        add(wf, af, wf)


def _kept(x, keep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of x, the views of _placed, that the boolean mask keep marks,
    copied one by one into fresh placed storage of just those rows."""
    rows = x[0]
    y = _placed(int(np.count_nonzero(keep)), rows.shape[1])
    for new, old in zip(y[0], compress(rows, keep)):
        new[...] = old
    return y


def _leapfrog(u: tuple, v: tuple, dt: float, grid: RadialGrid, flow,
              n_steps: int, stride: int):
    """Advance the rows of u and v, each the views of _placed over (rows, M+1)
    node values, in place by n_steps leapfrog steps of the flow in position
    form (Hairer, Lubich & Wanner, Acta Numerica 12, 2003), in the units of
    _units: U = s u drifts U += W and W = s dt v kicks W += A = s dt^2
    (lap(u) + g(u)), dt^2 folded into the faces and the force (see _steps).
    It is kick-drift-kick up to roundoff, 1e-11 relative over 300 steps.
    The rows of u hold U from the first next() on.

    At each stride-th step and the last it yields (k, U, V, (s, sv)): U and
    V = sv v, their row views, and the units, (s, s dt) or, where the run
    keeps s = 1, (1, 1).  A run holds four placed arrays of u's rows (w and
    acc placed here) and the two of _step_operator, and every store of a
    step starts each row on a 64-byte line.  Sent a boolean mask over the
    rows instead of None, it carries on with the masked rows of u and w
    alone, moved into fresh placed storage one array at a time, and with
    fresh v and acc: the next yield hands out new arrays, and the generator
    keeps no reference to the old ones (whose memory goes once the caller
    drops its own).  A dt outside (0, 2h/sqrt(kappa + mass h^2)] raises at
    the first next(), kappa the operator's bound in units of h (see
    _operator)."""
    h = grid.spacing
    bound = 2.0 * h / math.hypot(math.sqrt(_operator(grid)[2]), math.sqrt(flow.mass) * h)
    if not (0.0 < dt <= bound):
        raise InvalidParameter(f"dt = {dt:g} is outside the leapfrog stability range "
                               f"(0, {bound:g}], i.e. cfl <= {bound / h:.4g}")
    units = _units(flow, dt)
    s, sdt = units or (1.0, dt)
    dt2 = dt * dt
    power = isinstance(flow, PowerKG)
    run = (*_step_operator(grid, dt2), dt, dt2, dt2 * flow.mass,
           flow.p - 1.0 if power else None, None if power else flow.g, units is not None)
    w, acc = _placed(*u[0].shape), _placed(*u[0].shape)
    np.multiply(u[2], s, out=u[2])
    np.multiply(v[2], sdt, out=w[2])
    scale = units or (1.0, 1.0)  # where s = 1 is kept, a yield writes v itself
    views = _step_views(u, v, w, acc)
    _steps(views, run, -1, 0)
    k = 0
    while k < n_steps:
        last, k = k, min(k + stride, n_steps)
        _steps(views, run, last, k)
        keep = yield k, u[0], v[0], scale
        if keep is not None:  # drop every view of the old rows, then the rows
            views = v = acc = None
            u = _kept(u, keep)
            w = _kept(w, keep)
            v, acc = _placed(*u[0].shape), _placed(*u[0].shape)
            views = _step_views(u, v, w, acc)


def _record(grid: RadialGrid, u: np.ndarray, v: np.ndarray, t: float,
            flow, m_ref: float | None, outer: slice,
            scale: tuple[float, float] = (1.0, 1.0)) -> tuple[TrajectoryRecord, float]:
    """The diagnostics at one record time and u's boundary share, the square
    root of the H1 moment's part on the outer cells and the faces between
    them; the only place that decides membership in {E < m_ref, P > 0}.
    u and v are the state in the units scale = (s, sv) (see _leapfrog), s u
    and sv v, and the sums taken on them are divided by s^2 (grad and l2),
    s^(p+1) (pot) and sv^2 (the kinetic sum); the share is a ratio of sums
    and needs no division.  At scale (1, 1) every division is exact.

    Every sum is one dot product on the operator's faces and cells (see
    _operator): grad = face . du^2 is E's face term, l2 = cell . u^2 and
    pot = cell . |u|^(p+1) or, for a general g, cell . G(u).  S, P, T and H1
    are the forms on these moments, and E = (1/2) (cell v) . v + S is the
    semi-discrete energy regrouped, so E = S bit for bit on data at rest.
    All are the forms on moments(u, flow), E with (1/2) ||v||^2 added, to
    O(h^2); E is conserved up to the leapfrog's bounded O(dt^2) oscillation.
    The boundary share dots the outer parts of the same arrays.  A record
    allocates u^2 and one scratch array (and G(u), for a general g).

    np.dot is BLAS ddot, OpenBLAS in numpy's own builds.  Each row of a batch
    is dotted alone, so its record is bit for bit its solo run's.  Past
    10,000 nodes OpenBLAS may split a dot across threads, so the last bits
    of a record can depend on OPENBLAS_NUM_THREADS.
    NumericalOverflow when pot leaves the float range or u or v is not
    finite; they are scanned only when E is not, as a non-finite node makes it.
    """
    face, cell, _ = _operator(grid)
    s, sv = scale
    uu, work = np.multiply(u, u), np.empty_like(u)
    if isinstance(flow, PowerKG):
        pot = float(np.dot(cell, _abs_power(u, flow.p + 1.0, work, uu))) / s ** (flow.p + 1.0)
    else:
        pot = float(np.dot(cell, flow.G(u)))
    if not math.isfinite(pot):
        raise NumericalOverflow("the potential moment left the representable range")
    kin = float(np.dot(np.multiply(cell, v, out=work), v)) / (sv * sv)
    du = np.subtract(u[1:], u[:-1], out=work[:-1])
    du2 = np.multiply(du, du, out=du)
    grad, l2, s2 = float(np.dot(face, du2)), float(np.dot(cell, uu)), s * s
    m = Moments(grad / s2, l2 / s2, pot, flow, grid.dimension)
    action = m.action()
    energy = 0.5 * kin + action
    if not math.isfinite(energy) and not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NumericalOverflow("the state is no longer finite")
    p_val = m.potential()
    in_set = m_ref is not None and energy < m_ref and p_val > 0.0
    h1 = l2 + grad  # m.h1 at scale (1, 1)
    share = (0.0 if h1 == 0.0 else
             math.sqrt((float(np.dot(cell[outer], uu[outer]))
                        + float(np.dot(face[outer], du2[outer]))) / h1))
    return (TrajectoryRecord(t, energy, action, p_val, m.kinetic, math.sqrt(m.h1), in_set),
            share)


def evolve(u0: GridFunction | Sequence[GridFunction], v0: GridFunction | Sequence[GridFunction],
           nl, t_max: float, m_ref: float | None = None,
           cfl: float = DEFAULT_CFL) -> Trajectory | list[Trajectory]:
    """Integrate to t_max or to the first recorded termination event.

    dt <= cfl * h divides t_max in at most 2**53 steps and passes the leapfrog's
    stability bound.  Diagnostics (energy, action, P, T, H1 norm, invariant-set
    flag) and the event checks (finiteness, H1 escape past BLOWUP_FACTOR times
    its start value, boundary contamination) run every RECORD_INTERVAL, in
    steps.  They are taken with the flow's nonlinearity (see flow_nonlinearity)
    on the flow's own faces and cells (see _record), so E and S agree bit
    for bit on data at rest.  The first record is that of the data
    themselves, taken in scale 1 before the leapfrog moves them into its
    units (see _units), so its flag is their membership in the invariant set
    of the finite level m_ref (None: no level, every flag False).  Later
    records are taken on the leapfrog's rows, U = s u and V = sv v, and
    divide their sums by the units (see _record).  A run needs its first
    record, so an overflow there refuses the call, alone or in a batch,
    with NumericalOverflow naming the pair ("initial pair i: ..."); an
    overflow in a later record ends that run NonFinite.

    u0 and v0 are one pair of GridFunctions, which gives one Trajectory, or
    equal-length sequences of them on one grid, which give a list with one
    Trajectory per pair.  The pairs then march as the rows of one leapfrog,
    each bit for bit the run it makes alone; their inputs are read one at a
    time, straight into the leapfrog's storage, and the batch holds four
    arrays of (pairs, M+1) floats, each row padded to whole 64-byte lines
    (see _placed), down to the pairs still running, and the records of every
    run (seven floats each, see Trajectory) until the last ends.  A run's
    final u is U/s: a fresh array for a run that leaves a batch early, and for
    the runs still going at the end a view of the last of those arrays,
    divided by s in place.
    Inputs of any other kind raise InvalidInput.
    """
    single = isinstance(u0, GridFunction)
    sized = isinstance(u0, Sized) and isinstance(v0, Sized)
    if isinstance(v0, GridFunction) != single or not (single or sized):
        raise InvalidInput("u0 and v0 must both be GridFunctions or both sized sequences of them")
    rows = 1 if single else len(u0)
    if not single and len(v0) != rows:
        raise InvalidInput(f"{rows} initial profiles against {len(v0)} initial velocities")
    if rows == 0:
        raise InvalidInput("no initial data to evolve")
    flow = flow_nonlinearity(nl)
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be positive and finite, got {t_max!r}")
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise InvalidParameter(f"cfl must be positive and finite, got {cfl!r}")
    if m_ref is not None and not math.isfinite(m_ref):
        raise InvalidParameter(f"m_ref must be finite or None, got {m_ref!r}")
    u = v = None
    for i, (a, b) in enumerate([(u0, v0)] if single else zip(u0, v0)):
        if not (isinstance(a, GridFunction) and isinstance(b, GridFunction)):
            raise InvalidInput(f"initial pair {i} is not two GridFunctions")
        if u is None:
            grid = a.grid
            u, v = _placed(rows, grid.cells + 1), _placed(rows, grid.cells + 1)
        require_same_grid(a, b)
        if a.grid != grid:
            raise GridMismatch(f"runs on different grids: {grid!r} vs {a.grid!r}")
        u[0][i], v[0][i] = a.values, b.values
    steps = t_max / (cfl * grid.spacing) if cfl * grid.spacing > 0.0 else math.inf
    if not steps <= 2.0**53:  # past it k * dt no longer names distinct record times
        raise InvalidParameter(f"t_max = {t_max!r} at cfl = {cfl!r} takes more than 2**53 steps")
    n_steps = max(1, math.ceil(steps))
    dt = t_max / n_steps
    stride = max(1, round(RECORD_INTERVAL / dt))

    # the zone is the tail of the grid, r >= (1 - BOUNDARY_ZONE) R
    outer = slice(int(np.searchsorted(grid.r, (1.0 - BOUNDARY_ZONE) * grid.outer_radius)), None)
    records = [bytearray() for _ in range(rows)]  # packed (see Trajectory)
    terminations, final_u = [REACHED_TMAX] * rows, [None] * rows

    # losing finiteness is a recorded event; silence the intermediate
    # overflow warnings on the way to its detection
    with np.errstate(over="ignore", invalid="ignore"):
        h1_init, share_init = [], []
        for i in range(rows):
            try:
                rec, share = _record(grid, u[0][i], v[0][i], 0.0, flow, m_ref, outer)
            except NumericalOverflow as err:  # nothing marched yet: refuse the call
                raise NumericalOverflow(f"initial pair {i}: {err}") from err
            records[i] += _PACKED_RECORD.pack(*rec)
            h1_init.append(rec.h1_norm)
            share_init.append(share)
        live = list(range(rows))  # the run of each row the leapfrog carries
        run_rows = _leapfrog(u, v, dt, grid, flow, n_steps, stride)
        k, u, v, scale = next(run_rows)
        while True:
            t, keep = k * dt, []
            for i, run in enumerate(live):
                try:
                    rec, share = _record(grid, u[i], v[i], t, flow, m_ref, outer, scale)
                except NumericalOverflow:
                    # a state no longer finite, or a finite one whose diagnostics
                    # left the representable range: the same terminal event
                    terminations[run] = NON_FINITE
                else:
                    records[run] += _PACKED_RECORD.pack(*rec)
                    if rec.h1_norm > BLOWUP_FACTOR * h1_init[run]:
                        terminations[run] = BLOWUP_DETECTED
                    elif share > share_init[run] + BOUNDARY_FRACTION:
                        terminations[run] = BOUNDARY_CONTAMINATION
                keep.append(terminations[run] == REACHED_TMAX)
            if k == n_steps or not any(keep):
                break
            if not all(keep):  # the ended runs leave the batch with U/s of their row
                for i, run in enumerate(live):
                    if not keep[i]:
                        final_u[run] = np.divide(u[i], scale[0])
                live = [run for run, kept in zip(live, keep) if kept]
            u = v = None  # the leapfrog frees the dropped rows once no one holds them
            k, u, v, scale = run_rows.send(None if all(keep) else np.array(keep))
        np.divide(u, scale[0], out=u)  # u = U/s, which overflows where U is past max/s
    for i, run in enumerate(live):
        final_u[run] = u[i]
    trajectories = [Trajectory(*run, m_ref) for run in zip(records, terminations, final_u)]
    return trajectories[0] if single else trajectories


def make_initial_data(gs: GroundState, lam: float, mu: float) -> GridFunction:
    """The dilated-rescaled profile lam * phi(x/mu).

    lam = mu = 1 reproduces the profile bit-for-bit.  Membership in the
    invariant set is read off the trajectory's first record (see evolve).
    The real radial flow carries standing waves only at omega = 0, so a
    ground state whose nonlinearity differs from its flow's (see
    flow_nonlinearity) is rejected: its level m would use a mass the flow
    does not.  A mu whose resampled profile misses the gradient or L2
    moment that Moments.scaled gives phi(x/mu) by more than RESOLUTION_TOL
    (relative), or so small that R/mu overflows,
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
    stretched = rescale(gs.profile, stretch, WIDTH_RAY)
    got = np.array(moments(stretched, nl)[:2])
    exact = np.array(gs.moments.scaled(stretch, WIDTH_RAY)[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        off = float(np.max(np.abs(got - exact) / exact))
    if not off <= RESOLUTION_TOL:
        raise InvalidParameter(f"the grid does not resolve mu = {mu:g}: the dilated profile's "
                               f"moments are off by {off:.3g} (limit {RESOLUTION_TOL:g})")
    if not math.isfinite(lam * float(np.abs(stretched.values).max())):
        raise NumericalOverflow(f"lambda = {lam:g} takes the profile past the float range")
    return GridFunction._adopt(stretched.grid, lam * stretched.values)


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
    records = traj.diagnostic_records
    if not records:
        raise PreconditionFailed("trajectory has no records")
    if traj.m_ref is None:
        raise PreconditionFailed("trajectory carries no reference level")
    if not records[0].in_invariant_set:
        raise PreconditionFailed("trajectory did not start inside the invariant set")
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
