"""Scaling families, mountain-pass paths, and the variational verifications."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.optimize import brentq

from general_g import CUBIC_QUINTIC
from test_model import exponent_cases
from varkg import (
    AMPLITUDE_RAY,
    INVALID,
    EmptyConstraintSample,
    GridFunction,
    InvalidInput,
    InvalidParameter,
    NoNegativeEndpoint,
    NoRoot,
    NotOnConstraint,
    PathSample,
    PowerKG,
    PreconditionFailed,
    RadialGrid,
    ScalingExponents,
    TruncationOverflow,
    Unsupported,
    WrongRegion,
    action_S,
    action_profile,
    build_path,
    classify_exponents,
    closed_form_1d,
    constraint_K,
    default_trial_family,
    family_action,
    kinetic_T,
    l2_norm_sq,
    least_energy,
    moments,
    mountain_pass_estimate,
    pohozaev_P,
    project_to_P_zero,
    project_to_constraint,
    rescale,
    verify_T_min_over_P,
    verify_min_on_constraint,
)
from varkg.paths import PROJECTION_TOL, _sign_change

WIDTH_RAY = ScalingExponents(0.0, 1.0)


def test_rescale_identity_and_amplitude(phi_1d):
    v = phi_1d.profile
    same = rescale(v, 1.0, AMPLITUDE_RAY)
    assert np.array_equal(same.values, v.values)
    doubled = rescale(v, 2.0, AMPLITUDE_RAY)
    assert np.array_equal(doubled.values, 2.0 * v.values)
    assert np.isclose(l2_norm_sq(doubled), 4.0 * l2_norm_sq(v), rtol=1e-13)


def test_rescale_l2_invariance_in_2d(townes):
    # lambda v(lambda x) preserves the L2 norm in dimension 2
    v = townes.profile
    se = ScalingExponents(1.0, 1.0)
    for lam in (0.5, 0.8, 1.25, 2.0):
        w = rescale(v, lam, se)
        assert np.isclose(l2_norm_sq(w), l2_norm_sq(v), rtol=1e-3)


def test_rescale_width_homogeneity(townes):
    # v(lambda x) scales the L2 integral by lambda^(-N)
    v = townes.profile
    w = rescale(v, 0.5, WIDTH_RAY)
    assert np.isclose(l2_norm_sq(w), 4.0 * l2_norm_sq(v), rtol=1e-3)


def test_rescale_guards(townes):
    v = townes.profile
    with pytest.raises(InvalidParameter):
        rescale(v, 0.0, AMPLITUDE_RAY)
    with pytest.raises(InvalidParameter):
        rescale(v, float("inf"), AMPLITUDE_RAY)
    with pytest.raises(TruncationOverflow):
        rescale(v, 0.01, WIDTH_RAY)
    cplx = GridFunction(v.grid, v.values * (1.0 + 0.0j))
    with pytest.raises(InvalidInput):
        rescale(cplx, 2.0, AMPLITUDE_RAY)


def test_action_along_amplitude_ray(phi_1d, nl3):
    # S(lambda phi) = (8/3) lambda^2 - (4/3) lambda^4 on the line
    v = phi_1d.profile
    pairs = action_profile(v, nl3, AMPLITUDE_RAY, [0.5, 1.0, 2.0])
    expected = {0.5: 8.0 / 3.0 * 0.25 - 4.0 / 3.0 * 0.0625,
                1.0: 4.0 / 3.0,
                2.0: -32.0 / 3.0}
    for lam, s in pairs:
        assert np.isclose(s, expected[lam], rtol=0, atol=1e-4)
    assert family_action(v, nl3, AMPLITUDE_RAY, 0.0) == 0.0


def test_action_profile_of_zero(nl3, grid_1d):
    zero = GridFunction.zeros(grid_1d)
    pairs = action_profile(zero, nl3, AMPLITUDE_RAY, [0.5, 1.0, 2.0])
    assert all(s == 0.0 for _, s in pairs)
    with pytest.raises(InvalidParameter):
        action_profile(zero, nl3, AMPLITUDE_RAY, [])


def test_flat_critical_ray(townes, nl3):
    # lambda v(lambda x) leaves S nearly constant at the 2d ground state
    m = least_energy(townes)
    se = ScalingExponents(1.0, 1.0)
    for lam, s in action_profile(townes.profile, nl3, se, [0.5, 1.0, 2.0]):
        assert np.isclose(s, m, rtol=1e-2)


def test_projection_examples(grid_1d, phi_1d, nl3):
    sech = GridFunction(grid_1d, 1.0 / np.cosh(grid_1d.r))
    lam, w = project_to_constraint(sech, nl3, AMPLITUDE_RAY)
    assert np.isclose(lam, math.sqrt(2.0), rtol=0, atol=1e-6)
    assert np.isclose(action_S(w, nl3), 4.0 / 3.0, rtol=0, atol=1e-4)
    lam3, _ = project_to_constraint(
        GridFunction(grid_1d, 3.0 * phi_1d.profile.values), nl3, AMPLITUDE_RAY)
    assert np.isclose(lam3, 1.0 / 3.0, rtol=0, atol=1e-6)


def test_projection_idempotent(grid_1d, nl3):
    sech = GridFunction(grid_1d, 1.0 / np.cosh(grid_1d.r))
    _, w = project_to_constraint(sech, nl3, AMPLITUDE_RAY)
    lam_again, _ = project_to_constraint(w, nl3, AMPLITUDE_RAY)
    assert np.isclose(lam_again, 1.0, rtol=0, atol=1e-6)


def test_projection_no_root(townes, nl3):
    g = townes.grid
    vals = np.exp(-g.r**2)
    vals[-1] = 0.0
    gauss = GridFunction(g, vals)
    se = ScalingExponents(1.0, 1.0)
    with pytest.raises(NoRoot):
        project_to_constraint(gauss, nl3, se, ray=se)
    with pytest.raises(InvalidInput):
        project_to_constraint(GridFunction.zeros(g), nl3, AMPLITUDE_RAY)


def _gaussian(dimension):
    g = RadialGrid(dimension, 20.0, 4000)
    vals = np.exp(-g.r**2)
    vals[-1] = 0.0
    return GridFunction(g, vals)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("pair", [(1.0, 0.0), (2.0, 1.0)], ids=["amplitude", "interior"])
def test_reprojection_returns_unity(dimension, pair, nl3):
    # the root of the second projection sits on the scan node lambda = 1
    se = ScalingExponents(*pair)
    _, w = project_to_constraint(_gaussian(dimension), nl3, se)
    lam_again, _ = project_to_constraint(w, nl3, se)
    assert np.isclose(lam_again, 1.0, rtol=0, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(case=exponent_cases(1.0, (1.000001, 5.0)))
def test_projection_idempotent_along_the_region_ray(case):
    # the default ray: the pair's own for an interior pair, the amplitude
    # ray for a limit pair (drawn on both edges).  As p -> 1 the potential
    # moment nears the L2 moment and the root fixes lambda only to about
    # 1e-16 / (p - 1), hence the floor on p.  A first projection may find
    # no root, or one whose profile spills past R.
    alpha, beta, p, n = case
    assume(classify_exponents(alpha, beta, p, n) != INVALID)
    nl, se = PowerKG(p), ScalingExponents(alpha, beta)
    try:
        _, w = project_to_constraint(_gaussian(n), nl, se)
    except (NoRoot, TruncationOverflow):
        assume(False)
    lam_again, again = project_to_constraint(w, nl, se)
    assert abs(lam_again - 1.0) <= 1e-6
    m = moments(again, nl)
    assert abs(m.constraint(nl, se, n)) <= PROJECTION_TOL * m.h1


def test_subnormal_pair_is_lifted_before_projecting():
    # K_{-0,-5e-324} is K_{0,-1} times 5e-324: by amplitude the root of
    # both is lambda = 9/4 (p = 2, N = 2); unlifted, K kept no precision
    nl, se = PowerKG(2.0), ScalingExponents(-0.0, -5e-324)
    lam, w = project_to_constraint(_gaussian(2), nl, se)
    assert np.isclose(lam, 9.0 / 4.0, rtol=1e-4, atol=0)
    lam_again, _ = project_to_constraint(w, nl, se)
    assert lam_again == 1.0


def test_sign_change_skips_non_finite_samples():
    assert _sign_change([1.0, math.nan, -1.0]) == (0, 2)
    assert _sign_change([1.0, math.inf, 0.0, -2.0]) == (0, 3)
    assert _sign_change([math.nan, 1.0, math.nan]) is None


def test_overflowing_scan_nodes_warn_nothing(townes, nl3):
    # along the (100, 1) ray the algebra overflows to inf - inf at the
    # far scan nodes; those nodes are skipped without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, w = project_to_constraint(townes.profile, nl3, ScalingExponents(100.0, 1.0))
    m = moments(w, nl3)
    assert abs(m.constraint(nl3, ScalingExponents(100.0, 1.0), 2)) <= PROJECTION_TOL * m.h1


def test_projection_residual_is_relative_to_the_projected_profile():
    # the root lies at amplitude 156^2, so |K| there is roundoff of the
    # projected profile's norm (1.5e9), not of the input's (2.5)
    nl, se = PowerKG(1.0703125), ScalingExponents(2.0, 0.0)
    lam, w = project_to_constraint(_gaussian(1), nl, se)
    m = moments(w, nl)
    assert lam > 100.0
    assert abs(m.constraint(nl, se, 1)) <= PROJECTION_TOL * m.h1


def test_limit_pair_projects_by_amplitude(nl3):
    v = _gaussian(2)
    se = ScalingExponents(1.0, 1.0)
    lam, w = project_to_constraint(v, nl3, se)
    lam_amp, w_amp = project_to_constraint(v, nl3, se, ray=AMPLITUDE_RAY)
    assert lam == lam_amp
    assert np.array_equal(w.values, w_amp.values)


def test_invalid_pair_raises_wrong_region(townes, nl3):
    se = ScalingExponents(1.0, 2.0)
    with pytest.raises(WrongRegion):
        project_to_constraint(townes.profile, nl3, se)
    with pytest.raises(WrongRegion):
        build_path(townes.profile, nl3, se)


def test_build_path_picks_the_path_from_the_region(townes, nl3):
    assert build_path(townes.profile, nl3, AMPLITUDE_RAY).segment_breaks == ()
    assert build_path(townes.profile, nl3, ScalingExponents(1.0, 1.0)).segment_breaks != ()


def _general_g_profile():
    # 3 exp(-r^2) in the plane: int G(v) > 0 for the cubic-quintic G
    g = RadialGrid(2, 20.0, 400)
    vals = 3.0 * np.exp(-g.r**2)
    vals[-1] = 0.0
    return GridFunction(g, vals)


@pytest.mark.parametrize("entry", [
    lambda v: project_to_constraint(v, CUBIC_QUINTIC, AMPLITUDE_RAY),
    lambda v: project_to_constraint(v, CUBIC_QUINTIC, AMPLITUDE_RAY, ray=AMPLITUDE_RAY),
    lambda v: project_to_P_zero(v, CUBIC_QUINTIC),
    lambda v: verify_min_on_constraint([v], CUBIC_QUINTIC, AMPLITUDE_RAY, 1.0),
    lambda v: build_path(v, CUBIC_QUINTIC, AMPLITUDE_RAY),
    lambda v: build_path(v, CUBIC_QUINTIC, ScalingExponents(1.0, 1.0)),
    lambda v: family_action(v, CUBIC_QUINTIC, WIDTH_RAY, 0.01),
], ids=["project", "project-explicit-ray", "P-zero", "minimization", "interior-path",
        "limit-path", "family-action-past-R"])
def test_general_nonlinearity_is_unsupported(entry):
    # regions, rays and scaled moments need moments that scale by powers
    v = _general_g_profile()
    assert pohozaev_P(v, CUBIC_QUINTIC) > 0.0
    with pytest.raises(Unsupported):
        entry(v)


def test_kinetic_minimum_records_general_nonlinearity_as_unsupported():
    v = _general_g_profile()
    zero = GridFunction.zeros(v.grid)
    report = verify_T_min_over_P([v, zero], CUBIC_QUINTIC, 1.0)
    assert report.failures == ((0, "Unsupported"),)
    assert report.kinetics == (None, 0.0)


def test_projection_rescans_when_grid_root_passes_a_scan_node(nl3):
    # on this coarse grid the resampled map's root lies 0.6% below the
    # algebra root, on the other side of the scan node 2.2387, so the two
    # nodes that bracket the algebra root do not bracket the grid map's
    g = RadialGrid(2, 20.0, 400)
    v = GridFunction.sample(g, lambda r: 1.051 * np.exp(-r**2))
    se = ScalingExponents(2.0, 1.0)
    base = moments(v, nl3)
    lam_alg = brentq(lambda lam: base.scaled(lam, se, nl3, 2).constraint(nl3, se, 2),
                     1e-3, 1e3)
    lam_star, w = project_to_constraint(v, nl3, se)
    nodes = np.geomspace(1e-4, 1e4, 321)
    assert np.any((nodes > lam_star) & (nodes < lam_alg))
    assert abs(constraint_K(w, nl3, se)) <= PROJECTION_TOL * moments(w, nl3).h1


def test_reprojection_on_limit_ray_has_no_root(nl3):
    # along the pair's own ray K(v_lambda) = lambda^2 K(v), and K(v) is zero
    # up to roundoff: zero samples with no sign change are not a root
    se = ScalingExponents(1.0, 1.0)
    _, w = project_to_constraint(_gaussian(2), nl3, se, ray=AMPLITUDE_RAY)
    with pytest.raises(NoRoot):
        project_to_constraint(w, nl3, se, ray=se)


def test_limit_sweep_projects_members_on_the_constraint(nl3):
    # the ground state and the unit-width member lie on the constraint
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 80.0, 16000))
    family = default_trial_family(gs, count=200, seed=0)
    report = verify_min_on_constraint(family, nl3, ScalingExponents(1.0, -2.0),
                                      least_energy(gs))
    assert report.failures == ()


def test_p_zero_projection_scaling(townes, nl3):
    v = townes.profile
    m = least_energy(townes)
    for c, lam_expected in ((1.1, 1.0 / 1.1), (2.0, 0.5)):
        scaled = GridFunction(v.grid, c * v.values)
        lam0, w = project_to_P_zero(scaled, nl3)
        assert np.isclose(lam0, lam_expected, rtol=0, atol=1e-4)
        assert np.isclose(kinetic_T(w), m, rtol=0, atol=0.05)
    with pytest.raises(PreconditionFailed):
        project_to_P_zero(GridFunction(v.grid, 0.9 * v.values), nl3)
    # exact boundary short-circuits
    lam0, w = project_to_P_zero(GridFunction.zeros(v.grid), nl3)
    assert lam0 == 1.0
    with pytest.raises(Unsupported):
        project_to_P_zero(GridFunction(RadialGrid(1, 20.0, 100),
                                       np.zeros(101)), nl3)


def test_interior_path_on_the_line(phi_1d, nl3):
    path = build_path(phi_1d.profile, nl3, AMPLITUDE_RAY)
    assert path.admissible
    assert np.isclose(path.max_action, 4.0 / 3.0, rtol=0, atol=1e-3)
    assert action_S(path.end, nl3) <= -10.0
    assert path.t[0] == 0.0 and path.t[-1] == 1.0
    assert np.all(l2_norm_sq(path.start) == 0.0)


def test_interior_path_negative_beta(townes, nl3):
    m = least_energy(townes)
    path = build_path(townes.profile, nl3, ScalingExponents(1.0, -1.0))
    assert path.admissible
    assert np.isclose(path.max_action, m, rtol=0, atol=1e-2 * m)


def test_interior_path_guards(phi_1d, townes, nl3, ground_n3):
    with pytest.raises(WrongRegion):
        build_path(townes.profile, nl3, ScalingExponents(1.0, 2.0))
    off = GridFunction(phi_1d.grid, 2.0 * phi_1d.profile.values)
    with pytest.raises(NotOnConstraint):
        build_path(off, nl3, AMPLITUDE_RAY)
    # interior pair whose ray action grows without bound
    with pytest.raises(NoNegativeEndpoint):
        build_path(ground_n3.profile, nl3, ScalingExponents(-0.4, -1.0))


def test_limit_paths(townes, nl3):
    m = least_energy(townes)
    for alpha, beta in ((1.0, 1.0), (0.0, -1.0)):
        path = build_path(townes.profile, nl3, ScalingExponents(alpha, beta))
        assert path.admissible
        assert np.isclose(path.max_action, m, rtol=0, atol=0.05)
        assert len(path.segment_breaks) in (1, 2)
        # first glued segment t -> S(t v_lambda0) must rise monotonically
        first = path.action_values[path.t <= path.segment_breaks[0]]
        assert np.all(np.diff(first) > 0.0)


def test_path_sample_validation(grid_1d):
    zero = GridFunction.zeros(grid_1d)
    good_t = np.linspace(0.0, 1.0, 5)
    good_s = np.zeros(5)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t[:4], action_values=good_s, start=zero, end=zero,
                   argmax_index=0, starts_at_zero=True, negative_endpoint=True)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t + 0.1, action_values=good_s, start=zero, end=zero,
                   argmax_index=0, starts_at_zero=True, negative_endpoint=True)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t, action_values=good_s + float("nan"), start=zero,
                   end=zero, argmax_index=0, starts_at_zero=True,
                   negative_endpoint=True)


def test_mountain_pass_estimate_on_line(phi_1d, nl3):
    paths = [build_path(phi_1d.profile, nl3, ScalingExponents(a, b))
             for a, b in ((1.0, 0.0), (2.0, 0.0), (1.0, -1.0))]
    assert np.isclose(mountain_pass_estimate(paths), 4.0 / 3.0,
                      rtol=0, atol=1e-3)
    with pytest.raises(InvalidParameter):
        mountain_pass_estimate([])


def test_minimization_on_width_family(grid_1d, nl3):
    trials = [GridFunction(grid_1d, 1.0 / np.cosh(a * grid_1d.r))
              for a in (0.5, 0.75, 1.0, 1.5, 2.0)]
    report = verify_min_on_constraint(trials, nl3, AMPLITUDE_RAY, 4.0 / 3.0,
                                      tol=1e-3)
    assert report.passed
    assert report.argmin_index == 2
    assert np.isclose(report.min_action, 4.0 / 3.0, rtol=0, atol=1e-3)
    assert report.failures == ()
    # enlarging the family never increases the minimum
    more = trials + [GridFunction(grid_1d, 1.0 / np.cosh(a * grid_1d.r))
                     for a in (0.9, 1.1)]
    larger = verify_min_on_constraint(more, nl3, AMPLITUDE_RAY, 4.0 / 3.0,
                                      tol=1e-3)
    assert larger.min_action <= report.min_action + 1e-12


def test_minimization_perturbed_member_is_larger(townes, nl3):
    m = least_energy(townes)
    r = townes.grid.r
    bump = GridFunction(townes.grid,
                        townes.profile.values * (1.0 + 0.1 * np.exp(-r**2)))
    report = verify_min_on_constraint([bump, townes.profile], nl3,
                                      ScalingExponents(1.0, 1.0), m, tol=0.05)
    assert report.passed
    assert report.argmin_index == 1
    assert report.actions[0] - report.actions[1] >= 1e-4


def test_minimization_guards(phi_1d, nl3):
    with pytest.raises(InvalidParameter):
        verify_min_on_constraint([], nl3, AMPLITUDE_RAY, 1.0)
    with pytest.raises(WrongRegion):
        verify_min_on_constraint([phi_1d.profile], nl3,
                                 ScalingExponents(1.0, 2.0), 1.0)
    zero = GridFunction.zeros(phi_1d.grid)
    with pytest.raises(EmptyConstraintSample):
        verify_min_on_constraint([zero], nl3, AMPLITUDE_RAY, 1.0)


def test_kinetic_minimum_over_p_set(townes, nl3):
    v = townes.profile
    m = least_energy(townes)
    trials = [GridFunction(v.grid, c * v.values) for c in (1.0, 1.1, 1.5, 2.0)]
    report = verify_T_min_over_P(trials, nl3, m, tol=0.05)
    assert report.passed
    assert report.skipped == () and report.failures == ()
    for t_val in report.kinetics:
        assert np.isclose(t_val, m, rtol=0, atol=0.05)
    # an off-ray perturbation stays strictly above the level
    r = v.grid.r
    vals = v.values + 0.2 * np.exp(-r**2)
    vals[-1] = 0.0
    pert = verify_T_min_over_P([GridFunction(v.grid, vals)], nl3, m, tol=1e-3)
    assert pert.min_kinetic >= m - 1e-3
    assert pert.min_kinetic > m + 1e-4


def test_kinetic_minimum_guards(townes, phi_1d, nl3):
    m = least_energy(townes)
    with pytest.raises(InvalidParameter):
        verify_T_min_over_P([], nl3, m)
    with pytest.raises(Unsupported):
        verify_T_min_over_P([phi_1d.profile], nl3, m)
    shrunk = GridFunction(townes.grid, 0.5 * townes.profile.values)
    with pytest.raises(EmptyConstraintSample):
        verify_T_min_over_P([shrunk], nl3, m)


def test_default_trial_family(townes):
    fam = default_trial_family(townes, count=12, seed=7)
    assert len(fam) == 12
    assert fam[0] is townes.profile
    again = default_trial_family(townes, count=12, seed=7)
    for a, b in zip(fam, again):
        assert np.array_equal(a.values, b.values)
    with pytest.raises(InvalidParameter):
        default_trial_family(townes, count=2)
