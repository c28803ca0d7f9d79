"""Ground-state constructors: closed form in 1d, radial shooting in 2d/3d."""

import functools
import math

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
    action_S,
    closed_form_1d,
    equation_residual,
    grad_norm_sq,
    kinetic_T,
    l2_norm_sq,
    least_energy,
    moments,
    pohozaev_P,
    power_integral,
    shoot_radial,
)
from varkg.ground_state import CONSTRAINT_TOL, _classify_shot

from general_g import CUBIC, CUBIC_QUINTIC
from oracle_townes import TOWNES_CENTER, TOWNES_L2, TOWNES_LEVEL, N3_CENTER


def test_closed_form_center_values(grid_1d):
    assert np.isclose(closed_form_1d(3.0, 0.0, grid_1d).center_value,
                      math.sqrt(2.0), rtol=0, atol=1e-12)
    assert np.isclose(closed_form_1d(2.0, 0.0, grid_1d).center_value,
                      1.5, rtol=0, atol=1e-12)


def test_closed_form_level_scales_with_mass(grid_1d):
    gs = closed_form_1d(3.0, 0.6, grid_1d)
    assert np.isclose(least_energy(gs), (4.0 / 3.0) * 0.64**1.5, rtol=0, atol=1e-5)


def test_closed_form_rejects_sonic_frequency(grid_1d):
    with pytest.raises(InvalidMass):
        closed_form_1d(3.0, 1.0, grid_1d)


def test_level_is_action(phi_1d, nl3):
    assert least_energy(phi_1d) == action_S(phi_1d.profile, nl3)
    assert np.isclose(least_energy(phi_1d), 4.0 / 3.0, rtol=0, atol=1e-5)


def test_townes_against_frozen_oracle(townes):
    assert np.isclose(townes.center_value, TOWNES_CENTER, rtol=0, atol=2e-4)
    l2 = l2_norm_sq(townes.profile)
    assert np.isclose(l2, TOWNES_L2, rtol=5e-4)
    assert np.isclose(least_energy(townes), TOWNES_LEVEL, rtol=5e-4)


def test_townes_identities(townes):
    # Nehari + Pohozaev at N=2 force grad = l2 and l4 = 2 l2
    l2 = l2_norm_sq(townes.profile)
    assert np.isclose(grad_norm_sq(townes.profile) / l2, 1.0, rtol=0, atol=1e-3)
    assert np.isclose(power_integral(townes.profile, 4.0) / l2, 2.0, rtol=0, atol=2e-3)
    # P = 0 at N=2, so the level is the kinetic energy
    assert np.isclose(least_energy(townes), kinetic_T(townes.profile),
                      rtol=0, atol=1e-3 * least_energy(townes))
    assert abs(pohozaev_P(townes.profile, townes.nonlinearity)) \
        <= 1e-3 * least_energy(townes)


def test_n3_pohozaev_identity(ground_n3):
    h1 = l2_norm_sq(ground_n3.profile) + grad_norm_sq(ground_n3.profile)
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
    levels = [least_energy(shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, m)))
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


def test_coarse_series_start_blames_the_grid():
    # at amplitude 8, p = 5 the series start at r = h = 0.04 gives
    # phi(h) = 21.7 > phi(0), which the ODE rules out
    with pytest.raises(InvalidInput, match="too coarse"):
        shoot_radial(PowerKG(5.0, 0.0), RadialGrid(2, 40.0, 1000), bracket=(1.0, 8.0))
    gs = shoot_radial(PowerKG(5.0, 0.0), RadialGrid(2, 40.0, 8000), bracket=(1.0, 8.0))
    assert 1.0 < gs.center_value < 8.0


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


@functools.lru_cache(maxsize=None)
def _critical_amplitude(n, nl):
    """Bisection on the labels of full recorded marches, no early exit."""
    grid = RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)
    lo, hi = 0.2, 6.5
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        status, _, _ = _classify_shot(mid, nl, grid, record=True)
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
    # exit must label every shot exactly as the recorded march does
    n, nl, a = case
    grid = RadialGrid(n, SHOT_GRID_R, SHOT_GRID_M)
    early, _, _ = _classify_shot(a, nl, grid, record=False)
    full, values, filled = _classify_shot(a, nl, grid, record=True)
    assert (early == "cross") == (full == "cross")
    if early != "cross":
        assert np.all(values[:filled] >= 0.0)


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
    assert gs.level == m.action(CUBIC_QUINTIC)
    assert 2.0 * abs(gs.level - m.kinetic) <= CONSTRAINT_TOL * m.h1
