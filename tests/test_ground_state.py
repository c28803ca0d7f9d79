"""Ground-state constructors: closed form in 1d, radial shooting in 2d/3d."""

import functools
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varkg import (
    BracketError,
    ConvergenceError,
    InvalidInput,
    InvalidMass,
    PowerKG,
    RadialGrid,
    closed_form_1d,
    equation_residual,
    moments,
    shoot_radial,
)
from varkg.ground_state import CONSTRAINT_TOL, _classify_shot, _signed_miss

from general_g import CUBIC, CUBIC_QUINTIC
from oracle_townes import TOWNES_CENTER, TOWNES_L2, TOWNES_LEVEL, N3_CENTER


def test_closed_form_center_values(grid_1d):
    assert np.isclose(closed_form_1d(3.0, 0.0, grid_1d).center_value,
                      math.sqrt(2.0), rtol=0, atol=1e-12)
    assert np.isclose(closed_form_1d(2.0, 0.0, grid_1d).center_value,
                      1.5, rtol=0, atol=1e-12)


def test_ground_state_keeps_the_moments_it_was_validated_with(phi_1d, townes):
    # phi is measured once: the trial family, the initial data and the CLI
    # read these moments instead of measuring phi again
    for gs in (phi_1d, townes):
        assert gs.moments == moments(gs.profile, gs.nonlinearity)
        assert gs.level == gs.moments.action()


def test_closed_form_level_scales_with_mass(grid_1d):
    gs = closed_form_1d(3.0, 0.6, grid_1d)
    assert np.isclose(gs.level, (4.0 / 3.0) * 0.64**1.5, rtol=0, atol=1e-5)


def test_closed_form_rejects_sonic_frequency(grid_1d):
    with pytest.raises(InvalidMass):
        closed_form_1d(3.0, 1.0, grid_1d)


def test_level_is_action(phi_1d, nl3):
    assert phi_1d.level == moments(phi_1d.profile, nl3).action()
    assert np.isclose(phi_1d.level, 4.0 / 3.0, rtol=0, atol=1e-5)


def test_townes_against_frozen_oracle(townes):
    assert np.isclose(townes.center_value, TOWNES_CENTER, rtol=0, atol=2e-4)
    l2 = moments(townes.profile, townes.nonlinearity).l2
    assert np.isclose(l2, TOWNES_L2, rtol=5e-4)
    assert np.isclose(townes.level, TOWNES_LEVEL, rtol=5e-4)


def test_townes_identities(townes):
    # Nehari + Pohozaev at N=2 force grad = l2 and l4 = 2 l2
    m = moments(townes.profile, townes.nonlinearity)
    assert np.isclose(m.grad / m.l2, 1.0, rtol=0, atol=1e-3)
    assert np.isclose(m.pot / m.l2, 2.0, rtol=0, atol=2e-3)
    # P = 0 at N=2, so the level is the kinetic energy
    assert np.isclose(townes.level, m.kinetic, rtol=0, atol=1e-3 * townes.level)
    assert abs(m.potential()) <= 1e-3 * townes.level


def test_n3_pohozaev_identity(ground_n3):
    h1 = moments(ground_n3.profile, ground_n3.nonlinearity).h1
    assert abs(ground_n3.pohozaev_residual) <= 1e-3 * h1
    assert np.isclose(ground_n3.center_value, N3_CENTER, rtol=1e-3)


def test_frequency_scaling_collapse(townes):
    # phi_omega(r) = sqrt(m0) Q(sqrt(m0) r) for p = 3
    omega = 0.6
    m0 = 1.0 - omega**2
    root = math.sqrt(m0)
    gs = shoot_radial(PowerKG(3.0, omega), RadialGrid(2, 40.0, 4000))
    predicted = root * np.interp(root * gs.grid.r, townes.grid.r,
                                 townes.profile.values)
    diff = np.abs(gs.profile.values - predicted).max()
    assert diff <= 1e-3 * gs.center_value


def test_extreme_frequency_scaling():
    omega = 0.99
    m0 = 1.0 - omega**2
    gs = shoot_radial(PowerKG(3.0, omega), RadialGrid(2, 200.0, 8000),
                      bracket=(0.05, 0.6))
    assert np.isclose(gs.center_value, math.sqrt(m0) * TOWNES_CENTER, rtol=5e-3)


def test_one_d_shooting_matches_closed_form():
    grid = RadialGrid(1, 25.0, 2500)
    shot = shoot_radial(PowerKG(3.0, 0.0), grid)
    exact = closed_form_1d(3.0, 0.0, grid)
    assert np.abs(shot.profile.values - exact.profile.values).max() <= 1e-6


def test_mesh_convergence_of_level():
    levels = [shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, m)).level
              for m in (1000, 2000, 4000)]
    change_coarse = abs(levels[1] - levels[0])
    change_fine = abs(levels[2] - levels[1])
    assert change_fine <= 0.3 * change_coarse  # second order: expect ~0.25


def test_bad_bracket_raises():
    # a crossing lower end is halved at most 8 times, and 600 / 2^8 = 2.34
    # still lies above the critical amplitude 2.206; the fine grid keeps
    # the series start valid at amplitude 1200
    grid = RadialGrid(2, 10.0, 10000)
    with pytest.raises(BracketError, match="lo -> cross"):
        shoot_radial(PowerKG(3.0, 0.0), grid, bracket=(600.0, 1200.0))


def test_infinite_bracket_end_is_refused_before_any_shot(shot_log):
    # an infinite upper end passed 0 < lo < hi and marched a NaN shot
    with pytest.raises(InvalidInput, match="0 < lo < hi < inf"):
        shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, 400), bracket=(1.0, math.inf))
    assert shot_log == []


def test_non_crossing_upper_end_is_doubled(ground_n3):
    # the N = 3 critical amplitude 4.34 lies above the default bracket (1, 4)
    gs = shoot_radial(PowerKG(3.0, 0.0), RadialGrid(3, 30.0, 3000))
    assert np.isclose(gs.center_value, ground_n3.center_value, rtol=1e-12, atol=0)
    assert np.isclose(gs.level, ground_n3.level, rtol=1e-10, atol=0)


def test_crossing_lower_end_is_halved():
    # at omega = 0.9 the critical amplitude 0.96 lies below the default
    # bracket (1, 4): the lower end crosses and is halved
    grid = RadialGrid(2, 80.0, 8000)
    gs = shoot_radial(PowerKG(3.0, 0.9), grid)
    assert np.isclose(gs.center_value, 0.9616606617, rtol=1e-10, atol=0)
    explicit = shoot_radial(PowerKG(3.0, 0.9), grid, bracket=(0.5, 4.0))
    assert np.isclose(gs.center_value, explicit.center_value, rtol=1e-10, atol=0)
    with pytest.raises(ConvergenceError, match="enlarge the domain"):
        shoot_radial(PowerKG(3.0, 0.9), RadialGrid(2, 30.0, 3000))


@pytest.mark.parametrize("bracket", [(1.0, 4.0), (0.5, 1.0), (0.5, 4.0)])
def test_decay_floor_verdict_does_not_depend_on_the_bracket(bracket):
    # at omega = 0.9 the decay tail is still above the floor at R = 40,
    # however close to the critical amplitude the bisection stops and
    # wherever its last shot dives; R = 60 confines it
    nl = PowerKG(3.0, 0.9)
    with pytest.raises(ConvergenceError, match="enlarge the domain"):
        shoot_radial(nl, RadialGrid(2, 40.0, 4000), bracket=bracket)
    gs = shoot_radial(nl, RadialGrid(2, 60.0, 6000), bracket=bracket)
    assert np.isclose(gs.center_value, 0.9616606617, rtol=1e-10, atol=0)


def test_coarse_series_start_blames_the_grid():
    # at amplitude 8, p = 5 the series start at r = h = 0.04 gives
    # phi(h) = 21.7 > phi(0), which the ODE rules out
    with pytest.raises(InvalidInput, match="too coarse"):
        shoot_radial(PowerKG(5.0, 0.0), RadialGrid(2, 40.0, 1000), bracket=(1.0, 8.0))
    gs = shoot_radial(PowerKG(5.0, 0.0), RadialGrid(2, 40.0, 8000), bracket=(1.0, 8.0))
    assert 1.0 < gs.center_value < 8.0
    # one ulp above the equilibrium phi = 1, c2 h^2 rounds away and
    # phi(h) == phi(0): the ODE lets phi stay there, so the grid is not blamed
    status, _, _ = _classify_shot(1.0000000000000002, PowerKG(3.0, 0.0),
                                  RadialGrid(2, 40.0, 4000))
    assert status != "cross"


def test_small_domain_rejected():
    # sqrt(2) sech(20) is above the decay floor, so R = 20 cannot confine it
    with pytest.raises(ConvergenceError):
        shoot_radial(PowerKG(3.0, 0.0), RadialGrid(1, 20.0, 2000))


def test_equation_residual_small_on_profiles(phi_1d, townes, ground_n3):
    for gs in (phi_1d, townes, ground_n3):
        assert equation_residual(gs.profile, gs.nonlinearity) \
            <= 1e-4 * gs.center_value**3
        assert gs.ode_residual == equation_residual(gs.profile, gs.nonlinearity)


SHOT_GRID_R, SHOT_GRID_M = 30.0, 1200


# all powers are subcritical for N <= 3; the two-term g is not a power
SHOT_NONLINEARITIES = tuple(PowerKG(p, omega) for p in (2.0, 3.0, 4.0)
                            for omega in (0.0, 0.6)) + (CUBIC_QUINTIC,)


def _without_turn_exit(nl):
    """nl with an ODE energy that never certifies a turn, so _classify_shot
    marches on to "cross", "diverge" or "end"."""
    return types.SimpleNamespace(g=nl.g, dg=nl.dg, G=lambda s: math.inf)


@functools.lru_cache(maxsize=None)
def _critical_amplitude(n, nl):
    """Bisection on the labels of full marches, no early exit."""
    grid = RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)
    full = _without_turn_exit(nl)
    lo, hi = 0.2, 6.5
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        status, _, _ = _classify_shot(mid, full, grid)
        if status == "cross":
            hi = mid
        else:
            lo = mid
    return lo


@st.composite
def shot_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    nl = draw(st.sampled_from(SHOT_NONLINEARITIES))
    a_star = _critical_amplitude(n, nl)
    # uniform over [a*/2, 3a*/2], or within 10^-14 .. 0.3 of a* relative,
    # where shots turn late on a small remainder and the rule is tightest
    near = draw(st.booleans())
    if near:
        sign = draw(st.sampled_from((-1.0, 1.0)))
        a = a_star * (1.0 + sign * 10.0 ** -draw(st.floats(0.5, 14.0)))
    else:
        a = a_star * draw(st.floats(0.5, 1.5))
    return n, nl, a


@settings(max_examples=60, deadline=None)
@given(case=shot_cases())
def test_turning_point_exit_agrees_with_full_march(case):
    # a shot that turns while positive can never cross zero: the early
    # exit must label every shot exactly as the march without it does
    n, nl, a = case
    grid = RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)
    early, early_values, _ = _classify_shot(a, nl, grid)
    full, values, _ = _classify_shot(a, _without_turn_exit(nl), grid)
    assert (early == "cross") == (full == "cross")
    if early != "cross":
        assert np.all(np.frombuffer(values) >= 0.0)
    # the early exit keeps the full march's values up to where it stops
    assert np.array_equal(early_values, values[:len(early_values)])


@pytest.mark.parametrize("n, nl", [(n, nl) for n in (2, 3) for nl in SHOT_NONLINEARITIES])
def test_brent_shot_agrees_with_label_bisection(monkeypatch, n, nl):
    # the coarse oracle grid fails some identity checks, which do not bear
    # on where the shooting stops: take the grafted profile unvalidated
    monkeypatch.setattr("varkg.ground_state._validate", lambda profile, nl: profile)
    a = shoot_radial(nl, RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)).values[0]
    a_star = _critical_amplitude(n, nl)
    assert abs(a - a_star) <= 1e-13 * a_star


@pytest.mark.parametrize("n, nl", [(n, nl) for n in (2, 3) for nl in SHOT_NONLINEARITIES])
def test_profile_head_is_a_fresh_march_of_its_center_value(monkeypatch, n, nl):
    # the profile keeps the values of the search shot it settles on: up to
    # the graft node they are a new march of phi(0) bit for bit, and past it
    # the matched decay tail from that node
    monkeypatch.setattr("varkg.ground_state._validate", lambda profile, nl: profile)
    grid = RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)
    out = shoot_radial(nl, grid).values
    status, march, _ = _classify_shot(out[0], nl, grid)
    march = np.frombuffer(march)
    assert status != "cross"
    same = out[:len(march)] == march
    head = len(march) if same.all() else int(np.argmin(same))  # the first node past the graft
    assert head > 1
    r_star, tail_r = grid.r[head - 1], grid.r[head:-1]
    tail = np.exp(-math.sqrt(nl.mass) * (tail_r - r_star)) * (r_star / tail_r) ** (0.5 * (n - 1))
    np.testing.assert_allclose(out[head:-1], out[head - 1] * tail, rtol=1e-13, atol=0)
    assert out[-1] == 0.0


SHOOT_GRIDS = [(RadialGrid(2, 40.0, 4000), (1.0, 4.0)), (RadialGrid(2, 40.0, 8000), (1.0, 4.0)),
               (RadialGrid(3, 30.0, 3000), (3.0, 6.0)), (RadialGrid(2, 80.0, 4000), (1.0, 4.0))]


@pytest.fixture
def shot_log(monkeypatch):
    """Every march shoot_radial makes, as (a, status, filled)."""
    log = []

    def logged(a, nl, grid):
        out = _classify_shot(a, nl, grid)
        log.append((a, out[0], len(out[1])))
        return out

    monkeypatch.setattr("varkg.ground_state._classify_shot", logged)
    return log


@pytest.mark.parametrize("grid, bracket", SHOOT_GRIDS)
def test_shot_count_and_final_bracket(shot_log, grid, bracket):
    a = shoot_radial(PowerKG(3.0, 0.0), grid, bracket=bracket).center_value
    assert len(shot_log) <= 17  # 16 / 15 / 14 / 16; 19-23 on a two-slope miss, bisection 53-54
    assert a == max(x for x, status, _ in shot_log if status != "cross")
    crossing = min(x for x, status, _ in shot_log if status == "cross")
    assert a < crossing <= a + 1e-15 * a


# cells marched: 13,068 / 22,405 / 12,925 / 6,662.  When the miss read an
# escape radius off the turn or the crossing: 16,114 / 28,387 / 22,651 /
# 8,176; when the G(a) <= 0 ends and the final shot's tail were marched
# too: 24,792 / 54,969 / 25,652 / 15,338; when the final shot was marched
# a second time: 18,004 / 32,156 / 24,471 / 9,164
SHOOT_CELLS = (13700, 23500, 13600, 7000)


@pytest.mark.parametrize("grid, bracket, cells",
                         [pytest.param(*case, cells, id=f"grid{i}")
                          for i, (case, cells) in enumerate(zip(SHOOT_GRIDS, SHOOT_CELLS))])
def test_shots_march_only_what_the_energy_leaves_open(shot_log, grid, bracket, cells):
    # in N >= 2 no amplitude with G(a) <= 0 crosses zero, no amplitude is
    # marched twice, and the final shot is a search shot, which stops at its turn
    nl = PowerKG(3.0, 0.0)
    a = shoot_radial(nl, grid, bracket=bracket).center_value
    assert all(nl.G(x) > 0.0 for x, _, _ in shot_log)
    marched = [x for x, _, _ in shot_log]
    assert len(set(marched)) == len(marched)
    assert [status for x, status, _ in shot_log if x == a] == ["turn"]
    assert sum(filled for _, _, filled in shot_log) <= cells


@pytest.mark.parametrize("bracket", [(0.5, 4.0), (1.0, 4.0), (0.2, 0.5)])
def test_lower_end_with_nonpositive_g_is_lifted_unmarched(shot_log, bracket):
    # at omega = 0.9, G(0.2) and G(0.5) are negative: the lower end 0.5,
    # given, reached by halving the crossing end 1 or by doubling the
    # upper end 0.5, moves up to the zero of G before a shot
    nl = PowerKG(3.0, 0.9)
    zero = math.sqrt(2.0 * nl.mass)  # G(s) = -m0 s^2 / 2 + s^4 / 4
    gs = shoot_radial(nl, RadialGrid(2, 60.0, 6000), bracket=bracket)
    assert np.isclose(gs.center_value, 0.9616606617, rtol=1e-10, atol=0)
    marched = [a for a, _, _ in shot_log]
    assert nl.G(0.2) < 0.0 and nl.G(0.5) < 0.0
    assert 0.2 not in marched and 0.5 not in marched
    assert min(marched) == pytest.approx(zero, rel=1e-15)
    assert all(nl.G(a) > 0.0 for a in marched)


def test_one_d_marches_the_lower_end(shot_log):
    # in N = 1 the energy is conserved and the zero of G is the critical
    # amplitude itself: the lower end a = 1, with G(1) < 0, is still shot
    shoot_radial(PowerKG(3.0, 0.0), RadialGrid(1, 25.0, 2500))
    assert shot_log[0][0] == 1.0


def test_miss_never_underflows_on_a_wide_grid():
    # exp(-2 sqrt(m0) R) underflows to 0.0 at R = 400; no shot reaches R
    # here, since the equilibrium end a = 1 (G(1) < 0) is lifted unmarched
    # and the final shot stops at its turn, but the amplitude must not move
    gs = shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 400.0, 40000))
    assert abs(gs.center_value - 2.2062008592293427) <= 1e-15 * 2.2062008592293427


def test_signed_miss_is_floored_at_the_smallest_normal():
    # a shot stopping at r = 400 at sqrt(m0) = 1 would miss by exp(-800)
    # times its mode ratio, which is 0.0 in doubles: brent would take that
    # for a root.  So would a pure falling mode, chi = k phi in N = 1
    assert math.exp(-800.0) == 0.0
    assert _signed_miss("end", (400.0, 1.0, 0.5), 1.0, 1) == sys.float_info.min
    assert _signed_miss("cross", (400.0, 1.0, 0.5), 1.0, 1) == -sys.float_info.min
    assert _signed_miss("turn", (3.0, 1.0, 1.0), 1.0, 1) == sys.float_info.min
    # (phi - chi) / (phi + chi) = 1/3 splits the state into its two modes
    assert _signed_miss("turn", (3.0, 1.0, 0.5), 1.0, 1) == math.exp(-6.0) * (0.5 / 1.5)
    assert _signed_miss("cross", (3.0, 1.0, 0.5), 1.0, 1) == -math.exp(-6.0) * (0.5 / 1.5)
    # where k <= c = (N-1)/(2r), and for the unmarched shot at r = 0, the
    # miss falls back to exp(-2kr)
    assert _signed_miss("turn", (0.5, 1.0, 0.5), 1.0, 3) == math.exp(-1.0)
    assert _signed_miss("turn", (0.0, 2.0, 0.0), 1.0, 2) == 1.0
    # and where the falling mode is not positive, as on a shot rising
    # steeply toward 2a: there the split means nothing, and at zero it
    # would divide by zero
    assert _signed_miss("diverge", (3.0, 1.0, -2.0), 1.0, 1) == math.exp(-6.0)
    assert _signed_miss("diverge", (3.0, 1.0, -1.0), 1.0, 1) == math.exp(-6.0)


@pytest.mark.parametrize("n", [1, 3])
def test_signed_miss_is_the_rising_modes_share(n):
    # in N = 1 and N = 3 the modes of u'' + (N-1)/r u' = k^2 u are
    # exp(-+kr) r^(-(N-1)/2) exactly, so a state alpha u_- + beta u_+
    # misses by beta/alpha wherever it is split
    k, alpha, beta = 0.8, 2.0, 3e-5
    c = 0.5 * (n - 1)
    for r in (4.0, 9.0, 15.0):
        down, up = math.exp(-k * r) * r**-c, math.exp(k * r) * r**-c
        phi = alpha * down + beta * up
        chi = alpha * (k + c / r) * down - beta * (k - c / r) * up
        assert _signed_miss("turn", (r, phi, chi), k, n) == pytest.approx(beta / alpha, rel=1e-9)
        assert _signed_miss("cross", (r, phi, chi), k, n) == pytest.approx(-beta / alpha, rel=1e-9)


@pytest.mark.parametrize("fixture", ["townes", "townes_fine", "ground_n3"])
def test_miss_has_one_slope_through_the_critical_amplitude(request, fixture):
    # the crossing and turning shots at a*(1 -+ delta) miss by the same
    # size: one smooth miss, so brent's interpolation steps land.  An
    # escape radius read off the crossing or the turn gave ratios of
    # 0.71-0.94 here
    gs = request.getfixturevalue(fixture)
    a, n = gs.center_value, gs.grid.dimension

    def miss(x):
        status, _, state = _classify_shot(x, gs.nonlinearity, gs.grid)
        return _signed_miss(status, state, math.sqrt(gs.nonlinearity.mass), n)

    for delta in (1e-4, 1e-6, 1e-9, 1e-12):
        below, above = miss(a * (1.0 - delta)), miss(a * (1.0 + delta))
        assert below > 0.0 > above
        assert 0.99 <= below / -above <= 1.01


@pytest.mark.parametrize("fixture", ["townes", "ground_n3"])
def test_labels_are_monotone_at_the_final_amplitude(request, fixture):
    # the 1e-15 stop resolves something: over 30 ulps either side of the
    # final amplitude every shot below turns and every shot above crosses,
    # with the switch at most 1e-15 relative above it
    gs = request.getfixturevalue(fixture)
    a = gs.center_value
    below, above = [a], []
    for _ in range(30):
        below.insert(0, math.nextafter(below[0], 0.0))
        above.append(math.nextafter(above[-1] if above else a, math.inf))
    labels = [_classify_shot(x, gs.nonlinearity, gs.grid)[0] for x in below + above]
    switch = labels.index("cross")
    assert labels == ["turn"] * switch + ["cross"] * (len(labels) - switch)
    assert switch >= len(below) and (below + above)[switch] <= a + 1e-15 * a


@pytest.mark.parametrize("fixture, level, center", [
    ("townes", 5.850031350752629, 2.2062008645983653),       # N=2 R=40 M=4000
    ("townes_fine", 5.850344029300934, 2.2062008646490754),  # N=2 R=40 M=8000
    ("ground_n3", 18.89423775758382, 4.337387679770657),     # N=3 R=30 M=3000
])
def test_level_pinned_to_four_substep_march(request, fixture, level, center):
    # the reference values come from the march with four RK4 substeps per
    # cell; one step per cell must leave the level to roundoff and phi(0)
    # well inside the benchmark's 1e-6 check
    gs = request.getfixturevalue(fixture)
    assert abs(gs.level - level) <= 1e-10 * level
    assert abs(gs.center_value - center) <= 1e-6 * center


def test_cubic_as_general_g_matches_power(townes):
    gs = shoot_radial(CUBIC, RadialGrid(2, 40.0, 4000))
    assert abs(gs.level - townes.level) <= 1e-12 * townes.level
    assert abs(gs.center_value - townes.center_value) <= 1e-12 * townes.center_value
    assert gs.nehari_residual is None


def test_two_term_ground_state_has_level_equal_kinetic(cubic_quintic_ground):
    # N = 2 Pohozaev: P = 0 at the ground state, so S = T (Berestycki,
    # Gallouet & Kavian 1983) within the tolerance _validate applies to -2P
    gs = cubic_quintic_ground
    m = moments(gs.profile, CUBIC_QUINTIC)
    assert gs.level == m.action()
    assert 2.0 * abs(gs.level - m.kinetic) <= CONSTRAINT_TOL * m.h1
