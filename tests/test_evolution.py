"""Leapfrog radial Klein-Gordon evolution and the invariant-set machinery."""

import ast
import collections
import dataclasses
import functools
import math
import os
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import j0

from varkg import (
    BLOWUP_DETECTED,
    BOUNDARY_CONTAMINATION,
    GeneralG,
    GridFunction,
    GridMismatch,
    InvalidInput,
    InvalidParameter,
    NON_FINITE,
    NumericalOverflow,
    PowerKG,
    PreconditionFailed,
    REACHED_TMAX,
    RadialGrid,
    TruncationOverflow,
    Unsupported,
    energy_drift,
    evolve,
    invariant_monitor,
    make_initial_data,
    moments,
    shoot_radial,
)

import varkg.evolution
import varkg.model
from varkg.evolution import (
    BOUNDARY_ZONE,
    _leapfrog,
    _operator,
    _placed,
    _record,
)
from varkg.model import Moments, _abs_power, flow_nonlinearity
from varkg.radial_core import SPHERE_SURFACE

from general_g import CUBIC_QUINTIC, LINEAR_KG
from oracle_townes import J0_FIRST_ZERO


ZERO = GridFunction.zeros(RadialGrid(2, 10.0, 100))


def outer_zone(grid):
    """The boundary zone as evolve hands it to _record: the nodes from
    r >= (1 - BOUNDARY_ZONE) R on."""
    return slice(int(np.searchsorted(grid.r, (1.0 - BOUNDARY_ZONE) * grid.outer_radius)), None)


def eigenmode(outer=10.0, cells=400):
    """Lowest Dirichlet mode of the 2d linear problem with its period."""
    grid = RadialGrid(2, outer, cells)
    k = J0_FIRST_ZERO / outer
    vals = j0(k * grid.r)
    vals[-1] = 0.0
    period = 2.0 * math.pi / math.sqrt(k * k + 1.0)
    return GridFunction(grid, vals), period


def laplacian(u, grid):
    """The operator's Laplacian of u, zero at the edge: the flux difference
    times the reciprocal cell measure, in allocating form, which the
    leapfrog's step forms bit for bit (see
    test_laplacian_is_bit_identical_to_the_allocating_form)."""
    face, cell, _ = _operator(grid)
    return np.append(np.diff(np.append(0.0, face * np.diff(u))) * (1.0 / cell[:-1]), 0.0)


def placed(*rows):
    """The leapfrog's storage (see _placed) holding these rows of node values."""
    views = _placed(len(rows), rows[0].size)
    views[0][...] = rows
    return views


def leapfrog(u, v, dt, grid, nl, n_steps):
    """Advance u and v in place by n_steps leapfrog steps of nl's flow."""
    u_placed, v_placed = placed(u), placed(v)
    for _, _, _, (s, sv) in _leapfrog(u_placed, v_placed, dt, grid, flow_nonlinearity(nl),
                                      n_steps, n_steps):
        pass
    u[...], v[...] = u_placed[0][0] / s, v_placed[0][0] / sv


def test_zero_data_stays_zero(nl3):
    grid = RadialGrid(2, 10.0, 100)
    zero = GridFunction.zeros(grid)
    traj = evolve(zero, zero, nl3, t_max=1.0)
    assert traj.termination == REACHED_TMAX
    for rec in traj.records:
        assert rec.energy == 0.0 and rec.h1_norm == 0.0
    assert energy_drift(traj) == 0.0


def test_origin_stencil_consistency():
    # lap(r^2) = 2N everywhere, including the symmetric origin stencil
    for n in (1, 2, 3):
        grid = RadialGrid(n, 5.0, 50)
        lap = laplacian(grid.r**2, grid)
        assert np.abs(lap[:-1] - 2.0 * n).max() <= 1e-10


def test_step_guards(nl3):
    grid = RadialGrid(2, 10.0, 100)
    u, v, flow = placed(np.zeros(101)), placed(np.zeros(101)), flow_nonlinearity(nl3)
    # _leapfrog is a generator: its dt check runs at the first next()
    with pytest.raises(InvalidParameter):
        next(_leapfrog(u, v, 0.0, grid, flow, 1, 1))
    with pytest.raises(InvalidParameter):
        next(_leapfrog(u, v, 1.0, grid, flow, 1, 1))  # exceeds cfl * h


def test_step_local_order():
    # two half steps vs one full step differ at O(dt^3)
    mode, _ = eigenmode()
    grid = mode.grid

    def defect(dt):
        full, half = mode.values.copy(), mode.values.copy()
        leapfrog(full, np.zeros_like(full), dt, grid, LINEAR_KG, 1)
        leapfrog(half, np.zeros_like(half), dt / 2.0, grid, LINEAR_KG, 2)
        return np.abs(full - half).max()

    d1 = defect(0.008)
    d2 = defect(0.004)
    assert d1 / d2 >= 6.0


def test_eigenmode_period_and_drift():
    mode, period = eigenmode(cells=400)
    traj = evolve(mode, GridFunction.zeros(mode.grid), LINEAR_KG,
                  t_max=period)
    assert traj.termination == REACHED_TMAX
    err = np.abs(traj.final_u - mode.values).max()
    assert err <= 5e-3
    assert abs(energy_drift(traj)) <= 1e-4
    times = [rec.t for rec in traj.records]
    assert np.all(np.diff(times) > 0.0)


def test_eigenmode_mesh_convergence():
    errors = []
    for cells in (100, 200):
        mode, period = eigenmode(cells=cells)
        traj = evolve(mode, GridFunction.zeros(mode.grid), LINEAR_KG,
                      t_max=period)
        errors.append(np.abs(traj.final_u - mode.values).max())
    assert errors[0] / errors[1] >= 3.5


def test_leapfrog_reversibility(nl3):
    grid = RadialGrid(2, 10.0, 200)
    vals = np.exp(-grid.r**2)
    vals[-1] = 0.0
    u0 = vals.copy()
    u, v = vals.copy(), np.zeros(201)
    dt = 0.4 * grid.spacing
    leapfrog(u, v, dt, grid, nl3, 100)
    np.negative(v, out=v)
    leapfrog(u, v, dt, grid, nl3, 100)
    assert np.abs(u - u0).max() <= 1e-10 * np.abs(u0).max()


def test_evolve_input_validation(nl3):
    grid = RadialGrid(2, 10.0, 100)
    zero = GridFunction.zeros(grid)
    with pytest.raises(InvalidParameter):
        evolve(zero, zero, nl3, t_max=0.0)
    other = GridFunction.zeros(RadialGrid(2, 10.0, 120))
    with pytest.raises(GridMismatch):
        evolve(zero, other, nl3, t_max=1.0)


def test_evolve_batch_input_validation(nl3):
    grid = RadialGrid(2, 10.0, 100)
    zero = GridFunction.zeros(grid)
    other = GridFunction.zeros(RadialGrid(2, 10.0, 120))
    with pytest.raises(GridMismatch):
        evolve([zero, other], [zero, other], nl3, t_max=1.0)  # each pair is on one grid
    with pytest.raises(GridMismatch):
        evolve([zero, zero], [zero, other], nl3, t_max=1.0)
    with pytest.raises(InvalidInput, match="2 initial profiles against 3"):
        evolve([zero, zero], [zero, zero, zero], nl3, t_max=1.0)
    with pytest.raises(InvalidInput, match="no initial data"):
        evolve([], [], nl3, t_max=1.0)
    with pytest.raises(InvalidInput, match="both"):
        evolve(zero, [zero], nl3, t_max=1.0)


@pytest.mark.parametrize("u0, v0", [
    pytest.param((z for z in [ZERO]), (z for z in [ZERO]), id="generators"),
    pytest.param([ZERO.values], [ZERO.values], id="bare_arrays"),
    pytest.param([ZERO], [ZERO.values], id="bare_velocity"),
])
def test_evolve_refuses_inputs_that_are_not_grid_functions(nl3, u0, v0):
    # a generator has no len() and a bare array no grid: both used to escape
    # as TypeError and AttributeError
    with pytest.raises(InvalidInput):
        evolve(u0, v0, nl3, t_max=1.0)


@pytest.mark.parametrize("m_ref", [math.nan, math.inf, -math.inf])
def test_evolve_refuses_a_level_that_is_not_finite(nl3, m_ref):
    # nan made every flag False and inf every P > 0 record "inside I"
    with pytest.raises(InvalidParameter, match="m_ref"):
        evolve(ZERO, ZERO, nl3, t_max=1.0, m_ref=m_ref)
    assert evolve(ZERO, ZERO, nl3, t_max=0.1, m_ref=None).m_ref is None


def mixed_batch(cells=200):
    """Initial data on RadialGrid(2, 10, cells) whose p = 3 runs to t = 5 end in
    every way a run can: (u0 list, v0 list, terminations)."""
    grid = RadialGrid(2, 10.0, cells)

    def sample(fn):
        return GridFunction.sample(grid, fn)

    zero = GridFunction.zeros(grid)
    return ([sample(lambda r: np.full_like(r, 1e70)),
             sample(lambda r: 0.5 * np.exp(-r**2)),
             sample(lambda r: 3.0 * np.exp(-r**2)),
             sample(lambda r: 0.1 * np.exp(-4.0 * (r - 5.0) ** 2)),
             sample(lambda r: 0.4 * np.exp(-r**2))],
            [zero, zero, zero, zero, sample(lambda r: 0.2 * r * np.exp(-r**2))],
            [NON_FINITE, REACHED_TMAX, BLOWUP_DETECTED, BOUNDARY_CONTAMINATION, REACHED_TMAX])


def test_batch_rows_are_their_solo_runs(nl3):
    # rows leave the batch at different yields; each must be the run its
    # pair makes alone, bit for bit
    u0, v0, terminations = mixed_batch()
    batch = evolve(u0, v0, nl3, t_max=5.0)
    assert [traj.termination for traj in batch] == terminations
    for u, v, traj in zip(u0, v0, batch):
        assert traj == evolve(u, v, nl3, t_max=5.0)
    [one] = evolve(u0[1:2], v0[1:2], nl3, t_max=5.0)
    assert one == batch[1]


@pytest.mark.parametrize("p", [2.0, 5.0])
def test_batch_rows_are_their_solo_runs_in_their_units(p):
    # s = dt^2 at p = 2 and dt^(1/2) at p = 5: each row's records divide by
    # its units and its final u is U/s, bit for bit as the row alone (the
    # 1e70 row is left out: |u|^6 overflows in its first record at p = 5)
    nl = PowerKG(p)
    u0, v0, _ = mixed_batch()
    u0, v0 = u0[1:], v0[1:]
    batch = evolve(u0, v0, nl, t_max=5.0)
    assert len({traj.termination for traj in batch}) > 1
    for u, v, traj in zip(u0, v0, batch):
        assert traj == evolve(u, v, nl, t_max=5.0)


def test_first_record_overflow_refuses_the_batch_naming_the_pair():
    # at p = 5 |u|^6 of the 1e70 row overflows before anything is marched:
    # the call is refused and the message names the pair, in a batch as alone
    u0, v0, _ = mixed_batch()
    nl = PowerKG(5.0)
    with pytest.raises(NumericalOverflow, match="^initial pair 0: the potential moment"):
        evolve(u0, v0, nl, t_max=5.0)
    with pytest.raises(NumericalOverflow, match="^initial pair 2: "):
        evolve(u0[1:3] + u0[:1], v0[1:3] + v0[:1], nl, t_max=5.0)
    with pytest.raises(NumericalOverflow, match="^initial pair 0: "):
        evolve(u0[0], v0[0], nl, t_max=5.0)


def test_trajectories_compare_bit_for_bit(nl3):
    # records, termination, m_ref and final_u, each bit for bit; == on the
    # arrays themselves would raise ValueError
    zero = GridFunction.zeros(RadialGrid(2, 10.0, 100))
    traj = evolve(zero, zero, nl3, t_max=0.5, m_ref=1.0)
    same = evolve(zero, zero, nl3, t_max=0.5, m_ref=1.0)
    assert (traj == same) is True
    assert traj != evolve(zero, zero, nl3, t_max=0.6, m_ref=1.0)
    assert traj != evolve(zero, zero, nl3, t_max=0.5, m_ref=2.0)
    assert traj != evolve(zero, zero, nl3, t_max=0.5)
    assert traj != dataclasses.replace(traj, termination=BLOWUP_DETECTED)
    # -0.0 == 0.0 as numbers, but not bit for bit
    assert traj != dataclasses.replace(traj, final_u=-traj.final_u)
    assert traj != dataclasses.replace(traj, final_u=traj.final_u.astype(np.float32))
    assert traj != traj.records


def test_batch_memory_stays_within_its_row_buffers(nl3):
    # dropping rows must free them: the batch may hold no more than the same
    # runs made one by one, results kept, plus its four arrays of row buffers
    # (u, v, w = dt v and A); holding old and new rows across a drop fails
    u0, v0, _ = mixed_batch(cells=4000)
    u0, v0 = u0 + u0[1:], v0 + v0[1:]
    buffers = 4 * len(u0) * u0[0].values.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solo = [evolve(u, v, nl3, t_max=1.0) for u, v in zip(u0, v0)]
        solo_peak = tracemalloc.get_traced_memory()[1] - base
        del solo
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        batch = evolve(u0, v0, nl3, t_max=1.0)
        batch_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(batch) == 9
    assert batch_peak <= solo_peak + buffers


def test_trajectories_do_not_depend_on_the_heap(nl3):
    # unrelated arrays allocated first move where malloc places the rows;
    # each run must stay bit for bit the same
    u0, v0, _ = mixed_batch()
    want_one, want_batch = evolve(u0[1], v0[1], nl3, t_max=2.0), evolve(u0, v0, nl3, t_max=5.0)
    for count in range(9):
        held = [np.empty(201 + 3 * i) for i in range(count)]
        assert evolve(u0[1], v0[1], nl3, t_max=2.0) == want_one
        assert evolve(u0, v0, nl3, t_max=5.0) == want_batch
        del held


def recorded(monkeypatch, name):
    """The arguments and the result of each call to the evolution module's
    function name, recorded as runs go."""
    calls = []
    fn = getattr(varkg.evolution, name)

    def record(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(varkg.evolution, name, record)
    return calls


def starts_lines(x):
    """Whether each row of x starts a 64-byte line."""
    return all(row.ctypes.data % 64 == 0 for row in np.atleast_2d(x))


@pytest.mark.parametrize("count", range(12))
def test_every_store_of_a_step_starts_a_line(nl3, monkeypatch, count):
    # a vector pass whose output is off a 64-byte line splits lines on every
    # store, so u, v, w and acc, v as the flux one node ahead, the scaled
    # faces and 1/cell start each row on a line at 1 and 8 rows and after each
    # row drop, wherever unrelated arrays allocated first leave malloc
    views = recorded(monkeypatch, "_step_views")  # once a run and once a row drop
    operators = recorded(monkeypatch, "_step_operator")  # once a run
    u0, v0, _ = mixed_batch()
    u0, v0 = u0 + u0[1:4], v0 + v0[1:4]
    held = [np.empty(201 + 3 * i) for i in range(count)]
    evolve(u0[1], v0[1], nl3, t_max=1.0)
    evolve(u0, v0, nl3, t_max=5.0)
    del held
    assert [len(u[0]) for (u, *_), _ in views] == [1, 8, 7, 5, 3]
    assert len(operators) == 2
    for _, (face, inv_cell) in operators:
        assert starts_lines(face) and starts_lines(inv_cell)
    for (u, v, w, acc), (*_, flux_hi, _, _, acc_lo, _, _) in views:
        for x in (u[0], v[0], w[0], acc[0], acc_lo, flux_hi):
            assert starts_lines(x)
        for rows, _, flat in (u, v, w, acc):
            assert flat.ctypes.data == rows.ctypes.data


def padding(views):
    """Every column of a placed storage (see _placed) that no row's node is:
    the lead column and the padding after the nodes, row by row."""
    rows, lead, _ = views
    nodes, stride = rows.shape[1], rows.strides[0] // rows.itemsize
    whole = np.lib.stride_tricks.as_strided(lead, shape=(len(rows), stride),
                                            strides=lead.strides, writeable=False)
    return whole[:, [0, *range(nodes + 1, stride)]]


# g(0) = 0.25, where G' = 0: GeneralG checks g against G' away from 0 only
OFFSET_AT_ZERO = GeneralG(name="offset_at_zero", g=lambda s: -s + s**3 + 0.25 * (s == 0),
                          G=lambda s: -0.5 * s**2 + 0.25 * s**4, rho=1.0)


@pytest.mark.parametrize("nl", [PowerKG(3.0), CUBIC_QUINTIC, OFFSET_AT_ZERO],
                         ids=["power", "cubic_quintic", "offset_at_zero"])
def test_padding_stays_positive_zero_for_any_g(nl, monkeypatch):
    # the elementwise passes run over the padding between rows: a g(0) other
    # than 0 there would grow it step by step, and a row drop must carry no
    # old row's padding along
    calls = recorded(monkeypatch, "_step_views")
    u0, v0, _ = mixed_batch()
    u0, v0 = u0[1:] + u0[2:4], v0[1:] + v0[2:4]
    batch = evolve(u0, v0, nl, t_max=5.0)
    assert [len(u[0]) for (u, *_), _ in calls] == [6, 4, 2]
    for views in (storage for args, _ in calls for storage in args):
        pad = padding(views)
        assert not pad.any() and not np.signbit(pad).any()
    for u, v, traj in zip(u0, v0, batch):
        assert traj == evolve(u, v, nl, t_max=5.0)


@pytest.mark.parametrize("cfl", [0.0, -1.0, math.nan, math.inf])
def test_evolve_rejects_bad_cfl(nl3, cfl):
    zero = GridFunction.zeros(RadialGrid(2, 10.0, 100))
    with pytest.raises(InvalidParameter, match="cfl"):
        evolve(zero, zero, nl3, t_max=1.0, cfl=cfl)


def initial_record(gs, lam, mu):
    """make_initial_data(gs, lam, mu) and the first record of its evolution
    from rest, which decides its membership in {E < m, P > 0}."""
    u = make_initial_data(gs, lam, mu)
    traj = evolve(u, GridFunction.zeros(u.grid), gs.nonlinearity, t_max=0.01,
                  m_ref=gs.level)
    return u, traj.records[0]


def test_initial_data_at_unity_is_boundary(townes):
    u, rec = initial_record(townes, 1.0, 1.0)
    assert np.array_equal(u.values, townes.profile.values)
    # the flow's discrete energy lies O(h^2) above the quadrature level
    assert 0.0 < rec.energy - townes.level <= 1e-3
    assert rec.in_invariant_set is False


def test_initial_data_inside_set(townes):
    m = townes.level
    _, rec = initial_record(townes, 1.05, 1.05)
    assert rec.energy < m
    assert np.isclose(rec.action, 0.9779 * m, rtol=1e-3)
    assert np.isclose(rec.p_value, 0.729, rtol=0, atol=5e-3)
    assert rec.in_invariant_set is True


def test_initial_data_below_unity_leaves_set(townes):
    _, rec = initial_record(townes, 0.9, 1.0)
    assert rec.p_value < 0.0
    assert rec.in_invariant_set is False


def test_initial_data_resample_and_guards(townes, phi_1d):
    with pytest.raises(InvalidParameter):
        make_initial_data(townes, 0.0, 1.0)
    with pytest.raises(Unsupported):
        make_initial_data(phi_1d, 1.0, 1.0)
    with pytest.raises(TruncationOverflow):
        make_initial_data(townes, 1.0, 100.0)


@pytest.mark.parametrize("lam, mu, error, message", [
    (math.inf, 1.0, InvalidParameter, "lambda must be positive and finite, got inf"),
    (math.nan, 1.0, InvalidParameter, "lambda must be positive and finite, got nan"),
    (1.0, math.inf, InvalidParameter, "mu must be positive and finite, got inf"),
    (1.0, -1.0, InvalidParameter, "mu must be positive and finite, got -1.0"),
    (1e308, 1.0, NumericalOverflow, "lambda = 1e\\+308 takes the profile past the float range"),
    (1.0, 1e-320, InvalidParameter, "the grid does not resolve mu = 1e-320"),
    (1.0, 1e-307, InvalidParameter, "the grid does not resolve mu = 1e-307"),
])
def test_initial_data_names_a_bad_lambda_or_mu(townes, lam, mu, error, message):
    # inf used to reach the grid function as NaN nodes, mu = inf the rescale
    # as its reciprocal 0, and mu = 1e-320 as its reciprocal inf (1e-307 as
    # nodes r/mu past the float range); none of them may warn on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            make_initial_data(townes, lam, mu)


def test_discrete_energy_tracks_quadrature(townes, nl3):
    zero = GridFunction.zeros(townes.grid)
    m = townes.level
    rec, _ = _record(townes.grid, townes.profile.values, zero.values, 0.0,
                     flow_nonlinearity(nl3), None, outer_zone(townes.grid))
    assert np.isclose(rec.energy, moments(townes.profile, nl3).action(),
                      rtol=0, atol=1e-3 * abs(m))


def test_unstable_data_blows_up(townes, nl3):
    m = townes.level
    u = make_initial_data(townes, 1.05, 1.05)
    traj = evolve(u, GridFunction.zeros(u.grid), nl3, t_max=20.0, m_ref=m, cfl=0.1)
    assert traj.records[0].in_invariant_set
    assert traj.termination == BLOWUP_DETECTED
    monitor = invariant_monitor(traj)
    # membership persists at every record until the escape
    assert monitor.in_set_throughout
    assert monitor.min_p > 0.0
    # P >= 0 forces T >= m on the records (the T/P equivalence)
    assert monitor.min_kinetic >= m - 1e-3 * m
    # the conserved energy stays put while the records remain meaningful
    # (coarse dt here; the dt^2 scaling itself is covered elsewhere)
    assert abs(energy_drift(traj)) <= 5e-2


def test_two_term_g_instability_experiment(cubic_quintic_ground):
    # acceptance 8 for g = -s + s^3 + s^5/100, not a power: dilated data
    # with E < m and P > 0 stay in that set and escape; lambda < 1 data
    # start outside it and stay bounded
    gs = cubic_quintic_ground
    nl = gs.nonlinearity
    m = gs.level
    u = make_initial_data(gs, 1.05, 1.05)
    traj = evolve(u, GridFunction.zeros(u.grid), nl, t_max=40.0, m_ref=m, cfl=0.01)
    assert traj.records[0].in_invariant_set
    assert traj.termination == BLOWUP_DETECTED
    monitor = invariant_monitor(traj)
    assert monitor.in_set_throughout
    assert monitor.min_p >= 0.5 * traj.records[0].p_value
    u = make_initial_data(gs, 0.95, 0.95)
    traj = evolve(u, GridFunction.zeros(u.grid), nl, t_max=20.0, m_ref=m)
    assert traj.termination == REACHED_TMAX
    assert not any(rec.in_invariant_set for rec in traj.records)


def test_records_use_the_flow_mass():
    # the flow of PowerKG(3, 0.5) has unit mass; records at m0 = 0.75
    # gave S = 4.38 against E = 5.85 at rest
    gs = shoot_radial(PowerKG(3.0, 0.5), RadialGrid(2, 40.0, 1000))
    traj = evolve(gs.profile, GridFunction.zeros(gs.grid), gs.nonlinearity, t_max=0.1)
    rec = traj.records[0]
    assert abs(rec.energy - rec.action) <= 1e-3 * rec.action


def test_monitor_preconditions(townes, nl3):
    grid = RadialGrid(2, 10.0, 100)
    zero = GridFunction.zeros(grid)
    no_ref = evolve(zero, zero, nl3, t_max=0.5)
    with pytest.raises(PreconditionFailed):
        invariant_monitor(no_ref)
    m = townes.level
    boundary = evolve(zero, zero, nl3, t_max=0.5, m_ref=m)
    with pytest.raises(PreconditionFailed):
        invariant_monitor(boundary)  # E < m but P = 0: not inside
    mode, _ = eigenmode()
    small = GridFunction(mode.grid, 1e-3 * mode.values)
    low = evolve(small, GridFunction.zeros(mode.grid), nl3, t_max=0.2,
                 m_ref=m)
    with pytest.raises(PreconditionFailed):
        invariant_monitor(low)  # E < m but P < 0 at small amplitude


def test_boundary_contamination_detected():
    grid = RadialGrid(2, 10.0, 200)
    vals = np.exp(-4.0 * (grid.r - 5.0) ** 2)
    vals[-1] = 0.0
    pulse = GridFunction(grid, vals)
    traj = evolve(pulse, GridFunction.zeros(grid), LINEAR_KG, t_max=20.0)
    assert traj.termination == BOUNDARY_CONTAMINATION
    assert traj.records[-1].t < 20.0
    # the record that raised the event is left out of the diagnostics
    assert traj.diagnostic_records == traj.records[:-1]
    e0 = traj.records[0].energy
    kept = [(rec.energy - e0) / abs(e0) for rec in traj.records[1:-1]]
    assert energy_drift(traj) == max(kept, key=abs)


def test_non_finite_detected(nl3):
    # finite data far beyond the focusing threshold: the cubic term sends
    # the diagnostics (then the state itself) out of range within a step
    grid = RadialGrid(2, 10.0, 100)
    vals = np.full(101, 1e70)
    vals[-1] = 0.0
    huge = GridFunction(grid, vals)
    traj = evolve(huge, GridFunction.zeros(grid), nl3, t_max=1.0)
    assert traj.termination == NON_FINITE
    with pytest.raises(InvalidInput):
        energy_drift(traj)  # only the initial record exists


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_energy_drift_falls_as_dt_squared(dimension):
    # the discrete energy is conserved by the spatial scheme in every
    # dimension, so only the leapfrog's O(dt^2) oscillation is left
    grid = RadialGrid(dimension, 20.0, 400)
    gauss = GridFunction.sample(grid, lambda r: np.exp(-r**2))
    zero = GridFunction.zeros(grid)
    drift = [abs(energy_drift(evolve(gauss, zero, LINEAR_KG, t_max=5.0, cfl=cfl)))
             for cfl in (0.4, 0.1)]
    assert drift[0] / drift[1] >= 12.0


@st.composite
def laplacian_cases(draw):
    """(dimension, R, u, w) with w vanishing at the edge."""
    dimension = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.integers(16, 64))
    outer = draw(st.floats(0.5, 50.0))
    u = draw(arrays(float, cells + 1, elements=st.floats(-1.0, 1.0)))
    w = draw(arrays(float, cells + 1, elements=st.floats(-1.0, 1.0)))
    w[-1] = 0.0
    return dimension, outer, u, w


# subnormal w: the sums differ by 5.1e-321 against a relative bound of 3e-323
SUBNORMAL_CASE = (1, 0.5, np.r_[0.0, np.ones(16)], np.r_[np.full(16, 2.2e-313), 0.0])


@settings(max_examples=60, deadline=None)
@given(case=laplacian_cases())
@example(case=SUBNORMAL_CASE)
def test_laplacian_sums_by_parts(case):
    # sum cell w lap(u) = -sum face du dw for w vanishing at the edge, with
    # the face weights and shell volumes of the conservative operator
    dimension, outer, u, w = case
    grid = RadialGrid(dimension, outer, u.size - 1)
    h = grid.spacing
    surf = SPHERE_SURFACE[dimension]
    edges = np.concatenate(([0.0], grid.r[:-1] + 0.5 * h, [grid.outer_radius]))
    face = surf * edges[1:-1] ** (dimension - 1) / h
    cell = surf * np.diff(edges**dimension) / dimension
    lhs = cell * w * laplacian(u, grid)
    rhs = -face * np.diff(u) * np.diff(w)
    scale = np.abs(lhs).sum() + np.abs(rhs).sum()
    # products of subnormals keep no relative precision: hence the absolute floor
    assert abs(lhs.sum() - rhs.sum()) <= 1e-12 * scale + 1e-300


@settings(max_examples=60, deadline=None)
@given(case=laplacian_cases())
@example(case=SUBNORMAL_CASE)
def test_laplacian_is_bit_identical_to_the_allocating_form(case):
    # the step's in-place Laplacian, read through the first drift of the
    # linear flow from rest, U = u + A/2 with A = dt^2 lap(u) - dt^2 u: the
    # faces times dt^2 and each pass grouped as the allocating form groups it
    dimension, outer, u, _ = case
    grid = RadialGrid(dimension, outer, u.size - 1)
    dt = 0.4 * grid.spacing
    dt2 = dt * dt
    face, cell, _ = _operator(grid)
    acc = np.diff(np.append(0.0, (dt2 * face) * np.diff(u))) * (1.0 / cell[:-1])
    want = np.append(u[:-1] + (acc + dt2 * LINEAR_KG.g(u[:-1])) * 0.5, 0.0)
    [(k, got, _, scale)] = _leapfrog(placed(u), placed(np.zeros_like(u)), dt, grid,
                                     LINEAR_KG, 1, 1)
    assert (k, scale) == (1, (1.0, 1.0))
    assert np.array_equal(got[0], want)


def allocating_leapfrog(u, v, dt, grid, g, n_steps):
    """The kick-drift-kick step, allocating: the reference for the position form."""
    def acceleration(values):
        acc = laplacian(values, grid) + g(values)
        acc[-1] = 0.0
        return acc

    acc = acceleration(u)
    for _ in range(n_steps):
        v += 0.5 * dt * acc
        u += dt * v
        u[-1] = 0.0
        acc = acceleration(u)
        v += 0.5 * dt * acc


# the position form groups the roundoff of kick-drift-kick differently:
# the largest relative gap over these cases is 5e-13, in v at N = 3
KDK_RTOL = 1e-11


def assert_near_kick_drift_kick(got, want):
    assert np.abs(got - want).max() <= KDK_RTOL * np.abs(want).max()


def leapfrog_case(dimension, nl, edge):
    grid = RadialGrid(dimension, 10.0, 200)
    u = 0.8 * np.exp(-grid.r**2) + edge * grid.r / grid.outer_radius
    v = 0.3 * grid.r * np.exp(-grid.r**2)
    return grid, flow_nonlinearity(nl), u, v


@pytest.mark.parametrize("dimension, nl, edge, dt", [
    (1, PowerKG(3.0), 0.0, None), (2, PowerKG(3.0), 0.0, None), (3, PowerKG(3.0), 0.0, None),
    (2, CUBIC_QUINTIC, 0.0, None),
    (1, PowerKG(3.0), 0.25, None),  # the edge value starts nonzero: acc[-1] = 0 still
    (2, PowerKG(3.0), 0.0, 1e-160),  # dt^2 is subnormal
    (2, PowerKG(5.0), 0.0, None), (2, PowerKG(2.5), 0.0, None),  # |u|^4 by products, by pow
    (2, PowerKG(2.0), 0.0, None),  # s = dt^2, and |u|^1 is |u| alone
    (2, PowerKG(1.01), 0.0, None),  # s = dt^200 underflows
])
def test_leapfrog_matches_the_kick_drift_kick_form(dimension, nl, edge, dt):
    # a power runs in U = s u and W = s dt v, s = dt^(2/(p-1)); a general g,
    # and a power whose s, s^(p+1) or (s dt)^2 is no normal float, keep s = 1
    grid, flow, want_u, want_v = leapfrog_case(dimension, nl, edge)
    u, v = placed(want_u), placed(want_v)
    kept = not isinstance(nl, PowerKG) or nl.p == 1.01 or dt == 1e-160
    dt = dt or 0.4 * grid.spacing
    yields = list(_leapfrog(u, v, dt, grid, flow, 300, 1))
    assert [k for k, *_ in yields] == list(range(1, 301))
    s, sv = yields[-1][3]
    if kept:
        assert (s, sv) == (1.0, 1.0)
    else:
        assert s == dt ** (2.0 / (nl.p - 1.0)) and sv == s * dt
    allocating_leapfrog(want_u, want_v, dt, grid, flow.g, 300)
    assert_near_kick_drift_kick(u[0][0] / s, want_u)
    assert_near_kick_drift_kick(v[0][0] / sv, want_v)


@pytest.mark.parametrize("nl", [PowerKG(3.0), CUBIC_QUINTIC])
@pytest.mark.parametrize("n_steps, stride", [(100, 7), (100, 25), (30, 50)])
def test_leapfrog_yields_synchronized_states_at_the_stride(nl, n_steps, stride):
    # only at a yield is v written, and there it is the velocity of step k
    grid, flow, want_u, want_v = leapfrog_case(2, nl, 0.0)
    u, v = placed(want_u), placed(want_v)
    dt, done, ks = 0.4 * grid.spacing, 0, []
    for k, _, _, (s, sv) in _leapfrog(u, v, dt, grid, flow, n_steps, stride):
        allocating_leapfrog(want_u, want_v, dt, grid, flow.g, k - done)
        done = k
        ks.append(k)
        assert_near_kick_drift_kick(u[0][0] / s, want_u)
        assert_near_kick_drift_kick(v[0][0] / sv, want_v)
    assert ks == sorted({*range(stride, n_steps + 1, stride), n_steps})


def test_operator_arrays_are_read_only():
    # every run on a grid shares them, so a stray write would corrupt the next
    face, cell, _ = _operator(RadialGrid(2, 10.0, 100))
    for shared in (face, cell):
        with pytest.raises(ValueError):
            shared[0] = 1.0
        with pytest.raises(ValueError):
            shared *= 2.0


@settings(max_examples=200, deadline=None)
@given(dimension=st.sampled_from([1, 2, 3]), mantissa=st.floats(1.0, 9.999),
       exponent=st.integers(-323, 307), cells=st.integers(16, 100_000))
@example(dimension=3, mantissa=1.0, exponent=-110, cells=100)  # the measure is 0.0
@example(dimension=3, mantissa=7.94328234724292, exponent=-77, cells=100000)  # weights[0] is 0.0
@example(dimension=1, mantissa=1.0, exponent=-305, cells=100000)  # 2/h overflows
@example(dimension=1, mantissa=1.0, exponent=-160, cells=16)  # h^-2 overflows
@example(dimension=1, mantissa=1.0, exponent=307, cells=16)  # m0 h^2 overflows
def test_operator_is_finite_and_positive_on_every_accepted_grid(dimension, mantissa,
                                                                 exponent, cells):
    # the Laplacian multiplies by 1/cell, so no grid RadialGrid accepts may
    # have a zero or subnormal shell whose reciprocal overflows; nor may the
    # step bound overflow, and a step of 0.4 h, or of 1 on a coarse grid,
    # lies within it at unit mass
    with np.errstate(all="ignore"):
        try:
            grid = RadialGrid(dimension, mantissa * 10.0**exponent, cells)
        except InvalidInput:
            return
        face, cell, kappa = _operator(grid)
        inv_cell = 1.0 / cell
    for weights in (face, cell, inv_cell):
        assert np.isfinite(weights).all() and (weights > 0.0).all()
    assert 0.0 < kappa < math.inf
    zero = np.zeros(cells + 1)
    dt = min(0.4 * grid.spacing, 1.0)
    k, u, _, _ = next(_leapfrog(placed(zero), placed(zero), dt, grid,
                                flow_nonlinearity(LINEAR_KG), 1, 1))
    assert k == 1 and not u.any()


@pytest.mark.parametrize("lam, t_max, termination", [
    (0.9, 1.0, REACHED_TMAX), (1.05, 20.0, BLOWUP_DETECTED),
    pytest.param((0.9, 1.05, 1.1), 2.0, (REACHED_TMAX, BLOWUP_DETECTED, BLOWUP_DETECTED),
                 id="batch"),
])
def test_each_record_is_one_record_call(townes, monkeypatch, lam, t_max, termination):
    # a tracer wraps the module-level _record that evolve looks up per record,
    # and counts its calls against the records of the run, or of every run of
    # a batch, whose rows are recorded in turn at each record time, so the
    # calls come in time order
    calls = []
    record = varkg.evolution._record

    def counted(*args, **kwargs):
        calls.append(args[3])
        return record(*args, **kwargs)

    monkeypatch.setattr(varkg.evolution, "_record", counted)
    zero = GridFunction.zeros(townes.grid)
    if isinstance(lam, tuple):
        u0 = [make_initial_data(townes, x, x) for x in lam]
        trajs = evolve(u0, [zero] * len(u0), townes.nonlinearity, t_max=t_max,
                       m_ref=townes.level)
    else:
        trajs = [evolve(make_initial_data(townes, lam, lam), zero, townes.nonlinearity,
                        t_max=t_max, m_ref=townes.level)]
        termination = (termination,)
    assert tuple(traj.termination for traj in trajs) == termination
    assert all(len(traj.records) > 2 for traj in trajs)
    assert calls == sorted(rec.t for traj in trajs for rec in traj.records)


@pytest.mark.parametrize("dimension, stable, unstable",
                         [(1, 0.94, 0.96), (2, 0.85, 0.87), (3, 0.74, 0.76)])
def test_step_bound_follows_the_operator(dimension, stable, unstable):
    # Gershgorin on the symmetrized operator plus unit mass: about 0.95 h,
    # 0.86 h and 0.75 h, set by the rows next to the origin
    grid = RadialGrid(dimension, 10.0, 200)
    u, v = placed(np.exp(-grid.r**2)), placed(np.zeros(201))
    flow = flow_nonlinearity(LINEAR_KG)
    next(_leapfrog(u, v, stable * grid.spacing, grid, flow, 1, 1))
    with pytest.raises(InvalidParameter, match="stability"):
        next(_leapfrog(u, v, unstable * grid.spacing, grid, flow, 1, 1))


def test_step_bound_holds_where_the_stiffness_overflows(nl3):
    # the Gershgorin bound on -lap is about 4.4 / h^2, past the largest
    # double at spacing 6e-162; taken in units of h it is finite, and cfl 0.4
    # was refused as outside the range (0, 0]
    zero = GridFunction.zeros(RadialGrid(1, 1e-160, 16))
    assert evolve(zero, zero, nl3, t_max=1e-159, cfl=0.4).termination == REACHED_TMAX


def test_evolve_rejects_cfl_past_stability_bound(nl3):
    zero = GridFunction.zeros(RadialGrid(2, 80.0, 4000))
    with pytest.raises(InvalidParameter, match="stability"):
        evolve(zero, zero, nl3, t_max=1.0, cfl=1.2)
    for cfl in (0.4, 0.1, 0.01):
        assert evolve(zero, zero, nl3, t_max=0.05, cfl=cfl).termination == REACHED_TMAX


@pytest.mark.parametrize("nl", [PowerKG(3.0), PowerKG(2.5), CUBIC_QUINTIC])
def test_record_is_the_allocating_energy_and_moments_bit_for_bit(nl):
    # the record shares u * u between |u|^4 and the L2 moment and forms its
    # products in place; every field is the model's form on the allocating
    # face and cell dot products face . du^2, cell . u^2 and
    # cell . |u|^(p+1), or cell . G(u), and E is (1/2) (cell v) . v + S
    grid, flow = RadialGrid(2, 10.0, 200), flow_nonlinearity(nl)
    u = GridFunction.sample(grid, lambda r: 1.3 * np.exp(-r**2) * np.cos(r)).values
    v = 0.7 * grid.r * np.exp(-grid.r**2)
    rec, _ = _record(grid, u, v, 0.5, flow, 10.0, outer_zone(grid))
    face, cell, _ = _operator(grid)
    du = np.diff(u)
    grad = float(np.dot(face, du * du))
    pot = np.dot(cell, _abs_power(u, flow.p + 1.0) if isinstance(flow, PowerKG) else flow.G(u))
    m = Moments(grad, float(np.dot(cell, u * u)), float(pot), flow, grid.dimension)
    assert rec.energy == 0.5 * float(np.dot(cell * v, v)) + m.action()
    assert (rec.action, rec.p_value, rec.kinetic, rec.h1_norm) == (
        m.action(), m.potential(), m.kinetic, math.sqrt(m.h1))


@pytest.mark.parametrize("ground", ["townes", "ground_n3", "cubic_quintic_ground"])
def test_action_is_the_energy_at_rest(request, ground):
    # E = (1/2) (cell v) . v + S on one set of faces and cells, so at rest
    # E is S bit for bit; on the weights S was 1.07e-3 below E at R = 80, M = 4000
    gs = request.getfixturevalue(ground)
    traj = evolve(gs.profile, GridFunction.zeros(gs.grid), gs.nonlinearity, t_max=0.01)
    rec = traj.records[0]
    assert rec.energy == rec.action


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("nl", [PowerKG(3.0), PowerKG(2.5), CUBIC_QUINTIC])
def test_record_converges_to_the_moments_at_second_order(dimension, nl):
    # the face and cell sums and the quadrature moments are two O(h^2)
    # discretizations of one integral: their gap falls fourfold from M to 2M
    flow = flow_nonlinearity(nl)
    gaps = []
    for cells in (400, 800):
        grid = RadialGrid(dimension, 10.0, cells)
        u = GridFunction.sample(grid, lambda r: 1.3 * np.exp(-r**2) * np.cos(r))
        rec, _ = _record(grid, u.values, np.zeros(cells + 1), 0.0, flow, None,
                         outer_zone(grid))
        m = moments(u, flow)
        gaps.append(np.array([rec.kinetic - m.kinetic, rec.h1_norm**2 - m.h1,
                              rec.p_value - m.potential()]))
    ratio = gaps[0] / gaps[1]
    assert np.all((3.9 <= ratio) & (ratio <= 4.1)), ratio


@pytest.mark.parametrize("profile", [lambda r: np.exp(-4.0 * (r - 8.0) ** 2),
                                     lambda r: np.exp(-r**2), lambda r: 0.0 * r],
                         ids=["edge_pulse", "centred", "zero"])
def test_boundary_share_is_the_outer_face_and_cell_part(profile):
    # the outer cells and the faces between them against the whole H1 moment,
    # in allocating form; zero data have no share
    grid, flow = RadialGrid(2, 10.0, 200), PowerKG(3.0)
    u = GridFunction.sample(grid, profile).values
    outer = outer_zone(grid)
    _, share = _record(grid, u, np.zeros_like(u), 0.0, flow, None, outer)
    face, cell, _ = _operator(grid)
    du = np.diff(u)
    h1 = float((face * du * du).sum() + (cell * u * u).sum())
    part = float((face * du * du)[outer].sum() + (cell * u * u)[outer].sum())
    want = math.sqrt(part / h1) if h1 else 0.0
    assert np.isclose(share, want, rtol=1e-14, atol=0)


def test_record_refuses_a_state_no_longer_finite():
    # the record scans u and v only when the energy is not finite; a finite
    # state whose energy overflows is still recorded, as before the scan moved
    grid, flow = RadialGrid(2, 10.0, 100), PowerKG(3.0)
    u = GridFunction.sample(grid, lambda r: np.exp(-r**2)).values
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (math.inf, math.nan):
            v = np.zeros_like(u)
            v[3] = bad
            with pytest.raises(NumericalOverflow, match="no longer finite"):
                _record(grid, u, v, 0.0, flow, None, outer_zone(grid))
        rec, _ = _record(grid, u, np.full_like(u, 1e200), 0.0, flow, None, outer_zone(grid))
    assert rec.energy == math.inf


def test_no_public_call_per_step(monkeypatch):
    # the benchmark's tracer wraps every public varkg function, and the grid
    # classes' constructors, with a span: a public call inside the step would
    # add one per step, so runs of 100 and 200 steps with one record every 5
    # and 10 steps must make the same calls
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "varkg" or name.startswith("varkg.")}
    wrapped = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ in modules):
                if obj not in wrapped:
                    wrapped[obj] = counted(f"{obj.__module__}.{obj.__name__}", obj)
                monkeypatch.setattr(mod, attr, wrapped[obj])
    for cls in (RadialGrid, GridFunction):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))

    grid = RadialGrid(2, 10.0, 200)
    u0 = GridFunction.sample(grid, lambda r: 0.5 * np.exp(-r**2))
    zero = GridFunction.zeros(grid)
    # in the batch the second row blows up before t = 1 and leaves the leapfrog
    blowup = GridFunction.sample(grid, lambda r: 3.0 * np.exp(-r**2))
    for u, v, records in ((u0, zero, 21), ([u0, blowup], [zero, zero], [21, 17])):
        runs = []
        for cfl in (0.2, 0.1):
            calls.clear()
            out = varkg.evolution.evolve(u, v, PowerKG(3.0), t_max=1.0, cfl=cfl)
            count = len(out.records) if u is u0 else [len(traj.records) for traj in out]
            runs.append((count, dict(calls)))
        assert runs[0][0] == runs[1][0] == records
        assert runs[0][1] == runs[1][1]
        assert runs[0][1]["varkg.evolution.evolve"] == 1


def test_benchmark_copies_the_evolution_constants():
    # perfbench/workloads.py derives the expected step and record counts of
    # its checks from its own copies of these two constants
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    copies = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("DEFAULT_CFL", "RECORD_INTERVAL")}
    assert copies == {"DEFAULT_CFL": varkg.evolution.DEFAULT_CFL,
                      "RECORD_INTERVAL": varkg.evolution.RECORD_INTERVAL}


class CountingNumpy:
    """numpy as a module sees it through its global np, with every ufunc
    call counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        obj = getattr(np, name)
        if not isinstance(obj, np.ufunc):
            return obj

        def counted(*args, **kwargs):
            self.calls += 1
            return obj(*args, **kwargs)
        return counted


@pytest.mark.parametrize("nl", [PowerKG(3.0), PowerKG(2.0)], ids=["p3", "p2"])
@pytest.mark.parametrize("rows", [1, 3])
def test_a_step_is_its_numpy_passes_alone(monkeypatch, nl, rows):
    # in U = s u the kick's force has coefficient one: at p = 3 a step is the
    # drift, four Laplacian passes, U * U, the mass term, the product with U,
    # A += F and W += A, ten ufunc calls (eleven before the units, twelve at
    # p = 2, whose |u|^1 was a pow pass); runs of 100 and 200 steps with one
    # yield each differ by 100 steps' calls
    counting = CountingNumpy()
    monkeypatch.setattr(varkg.evolution, "np", counting)
    monkeypatch.setattr(varkg.model, "np", counting)
    grid, flow, u, v = leapfrog_case(2, nl, 0.0)
    calls = []
    for n_steps in (100, 200):
        counting.calls = 0
        for _ in _leapfrog(placed(*[u] * rows), placed(*[v] * rows), 0.4 * grid.spacing,
                           grid, flow, n_steps, n_steps):
            pass
        calls.append(counting.calls)
    assert calls[1] - calls[0] == 100 * 10


@pytest.mark.parametrize("nl", [PowerKG(3.0), PowerKG(2.0), CUBIC_QUINTIC],
                         ids=["p3", "p2", "cubic_quintic"])
def test_first_record_is_the_record_of_the_inputs(nl):
    # the t = 0 record is taken on the inputs in scale 1, before the leapfrog
    # moves them into its units: bit for bit _record of the data, E = S at rest
    grid = RadialGrid(2, 10.0, 200)
    flow = flow_nonlinearity(nl)
    u0 = GridFunction.sample(grid, lambda r: 0.8 * np.exp(-r**2))
    zero = GridFunction.zeros(grid)
    want, _ = _record(grid, u0.values, zero.values, 0.0, flow, 1.0, outer_zone(grid))
    assert want.energy == want.action
    packed = varkg.evolution._PACKED_RECORD.pack(*want)
    for traj in (evolve(u0, zero, nl, t_max=0.5, m_ref=1.0),
                 *evolve([u0, u0], [zero, zero], nl, t_max=0.5, m_ref=1.0)):
        assert traj.packed_records[:len(packed)] == packed
