"""Scaling families, mountain-pass paths, and the variational verifications."""

import math
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import varkg.paths
from general_g import CUBIC_QUINTIC
from test_model import exponent_cases
from varkg import (
    AMPLITUDE_RAY,
    INVALID,
    LIMIT,
    EmptyConstraintSample,
    GluingFailed,
    GridFunction,
    InvalidInput,
    InvalidParameter,
    NoNegativeEndpoint,
    NumericalOverflow,
    NoRoot,
    NotOnConstraint,
    PathSample,
    PowerKG,
    RadialGrid,
    ScalingExponents,
    TruncationOverflow,
    Unsupported,
    WrongRegion,
    build_path,
    classify_exponents,
    closed_form_1d,
    default_trial_family,
    moments,
    mountain_pass_estimate,
    project_to_constraint,
    rescale,
    verify_T_min_over_P,
    verify_min_on_constraint,
)
from test_acceptance import INTERIOR_PAIRS
from varkg.model import ray_exponents
from varkg.paths import PROJECTION_TOL, SCAN_LAMBDAS, _sign_change
from varkg.radial_core import brent

WIDTH_RAY = ScalingExponents(0.0, 1.0)


def test_rescale_identity_and_amplitude(phi_1d, nl3):
    v = phi_1d.profile
    same = rescale(v, 1.0, AMPLITUDE_RAY)
    assert np.array_equal(same.values, v.values)
    doubled = rescale(v, 2.0, AMPLITUDE_RAY)
    assert np.array_equal(doubled.values, 2.0 * v.values)
    assert np.isclose(moments(doubled, nl3).l2, 4.0 * moments(v, nl3).l2, rtol=1e-13)


def test_rescale_l2_invariance_in_2d(townes, nl3):
    # lambda v(lambda x) preserves the L2 norm in dimension 2
    v = townes.profile
    se = ScalingExponents(1.0, 1.0)
    for lam in (0.5, 0.8, 1.25, 2.0):
        w = rescale(v, lam, se)
        assert np.isclose(moments(w, nl3).l2, moments(v, nl3).l2, rtol=1e-3)


def test_rescale_width_homogeneity(townes, nl3):
    # v(lambda x) scales the L2 integral by lambda^(-N)
    v = townes.profile
    w = rescale(v, 0.5, WIDTH_RAY)
    assert np.isclose(moments(w, nl3).l2, 4.0 * moments(v, nl3).l2, rtol=1e-3)


def test_rescale_guards(townes):
    v = townes.profile
    with pytest.raises(InvalidParameter):
        rescale(v, 0.0, AMPLITUDE_RAY)
    with pytest.raises(InvalidParameter):
        rescale(v, float("inf"), AMPLITUDE_RAY)
    with pytest.raises(TruncationOverflow):
        rescale(v, 0.01, WIDTH_RAY)


def test_action_along_amplitude_ray(phi_1d, nl3):
    # S(lambda phi) = (8/3) lambda^2 - (4/3) lambda^4 on the line
    base = moments(phi_1d.profile, nl3)
    expected = {0.5: 8.0 / 3.0 * 0.25 - 4.0 / 3.0 * 0.0625,
                1.0: 4.0 / 3.0,
                2.0: -32.0 / 3.0}
    for lam, s in expected.items():
        assert np.isclose(base.scaled(lam, AMPLITUDE_RAY).action(), s, rtol=0, atol=1e-4)
    assert base.scaled(0.0, AMPLITUDE_RAY).action() == 0.0


def test_action_profile_of_zero(nl3, grid_1d):
    zero = moments(GridFunction.zeros(grid_1d), nl3)
    assert all(zero.scaled(lam, AMPLITUDE_RAY).action() == 0.0 for lam in (0.5, 1.0, 2.0))


def test_flat_critical_ray(townes, nl3):
    # lambda v(lambda x) leaves S nearly constant at the 2d ground state
    m = townes.level
    se = ScalingExponents(1.0, 1.0)
    base = moments(townes.profile, nl3)
    for lam in (0.5, 1.0, 2.0):
        assert np.isclose(base.scaled(lam, se).action(), m, rtol=1e-2)


def test_projection_examples(grid_1d, phi_1d, nl3):
    sech = GridFunction(grid_1d, 1.0 / np.cosh(grid_1d.r))
    lam, ray, _ = project_to_constraint(moments(sech, nl3), AMPLITUDE_RAY)
    assert np.isclose(lam, math.sqrt(2.0), rtol=0, atol=1e-6)
    w = rescale(sech, lam, ray)
    assert np.isclose(moments(w, nl3).action(), 4.0 / 3.0, rtol=0, atol=1e-4)
    lam3, _, _ = project_to_constraint(
        moments(GridFunction(grid_1d, 3.0 * phi_1d.profile.values), nl3), AMPLITUDE_RAY)
    assert np.isclose(lam3, 1.0 / 3.0, rtol=0, atol=1e-6)


def test_projection_idempotent(grid_1d, nl3):
    sech = GridFunction(grid_1d, 1.0 / np.cosh(grid_1d.r))
    lam, ray, _ = project_to_constraint(moments(sech, nl3), AMPLITUDE_RAY)
    w = rescale(sech, lam, ray)
    lam_again, _, _ = project_to_constraint(moments(w, nl3), AMPLITUDE_RAY)
    assert np.isclose(lam_again, 1.0, rtol=0, atol=1e-6)


def test_projection_no_root(townes, nl3):
    g = townes.grid
    vals = np.exp(-g.r**2)
    vals[-1] = 0.0
    gauss = GridFunction(g, vals)
    se = ScalingExponents(1.0, 1.0)
    with pytest.raises(NoRoot):
        project_to_constraint(moments(gauss, nl3), se, ray=se)
    with pytest.raises(InvalidInput):
        project_to_constraint(moments(GridFunction.zeros(g), nl3), AMPLITUDE_RAY)


def _gaussian(dimension):
    g = RadialGrid(dimension, 20.0, 4000)
    vals = np.exp(-g.r**2)
    vals[-1] = 0.0
    return GridFunction(g, vals)


def _roundoff(p):
    """How far from 1 the algebra may re-project a projection: Brent's
    xtol + rtol, plus the roundoff that fixes a root only to about
    1e-16 / (p - 1) as p -> 1 (measured worst 0.3 of this over 10,000
    random pairs)."""
    return 1e-14 + 8.9e-16 + 64e-16 / (p - 1.0)


def _root_shift(m, se, miss):
    """First-order bound on how far a relative miss of at most miss in
    each moment moves the root lambda = 1 of K_se along se's own ray."""
    fields = ("grad", "l2", "pot")
    terms = [m._replace(**{f: 0.0 for f in fields if f != keep}).constraint(se)
             for keep in fields]
    slope = sum(e * t for e, t in zip(ray_exponents(se.alpha, se.beta, m.nl.p, m.dimension),
                                      terms))
    return miss * sum(abs(t) for t in terms) / abs(slope)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("pair", [(1.0, 0.0), (2.0, 1.0)], ids=["amplitude", "interior"])
def test_reprojection_returns_unity(dimension, pair, nl3):
    # on the algebra the projection's moments re-project to 1 to roundoff.
    # The profile resampled at lambda* has moments that miss the
    # projection's by its resolution error (5e-5 to 3e-4 along (2, 1),
    # roundoff by amplitude), and its own root moves by what that miss can move
    se, v = ScalingExponents(*pair), _gaussian(dimension)
    lam, ray, m = project_to_constraint(moments(v, nl3), se)
    assert abs(project_to_constraint(m, se)[0] - 1.0) <= _roundoff(nl3.p)
    got = moments(rescale(v, lam, ray), nl3)
    miss = max(abs(g - e) / e for g, e in zip(got[:3], m[:3]))
    assert miss <= (1e-15 if pair == (1.0, 0.0) else 1e-3)
    assert (abs(project_to_constraint(got, se)[0] - 1.0)
            <= 2.0 * _root_shift(m, se, miss) + _roundoff(nl3.p))


@settings(max_examples=100, deadline=None)
@given(case=exponent_cases(1.0, (1.000001, 5.0)))
def test_projection_idempotent_along_the_region_ray(case):
    # the default ray: the pair's own for an interior pair, the amplitude
    # ray for a limit pair (drawn on both edges).  As p -> 1 the potential
    # moment nears the L2 moment and the root fixes lambda only to about
    # 1e-16 / (p - 1), hence the floor on p.  A first projection may find
    # no root.
    alpha, beta, p, n = case
    assume(classify_exponents(alpha, beta, p, n) != INVALID)
    nl, se = PowerKG(p), ScalingExponents(alpha, beta)
    try:
        _, _, m = project_to_constraint(moments(_gaussian(n), nl), se)
    except NoRoot:
        assume(False)
    lam_again, _, again = project_to_constraint(m, se)
    assert abs(lam_again - 1.0) <= _roundoff(p)
    assert abs(again.constraint(se)) <= PROJECTION_TOL * again.h1


def test_projection_of_a_projection_is_itself():
    # lambda* = 106.29 compresses the Gaussian 80x to about 3 nodes per
    # width, where a root of the resampled profile's moments lay far off
    # (64.90 at the grid map); on the algebra the sweep and the projection
    # place it at the same root, and the projection projects to itself
    nl, se = PowerKG(2.0), ScalingExponents(2.0, 0.9375)
    v = _gaussian(1)
    report = verify_min_on_constraint([moments(v, nl)], se, 1.0)
    assert report.failures == () and abs(report.lambdas[0] - 106.29) < 5e-3
    lam, _, m = project_to_constraint(moments(v, nl), se)
    assert lam == report.lambdas[0] and m.action() == report.actions[0]
    lam_again, _, m_again = project_to_constraint(m, se)
    assert abs(lam_again - 1.0) <= _roundoff(nl.p)
    assert np.allclose(m_again[:3], m[:3], rtol=1e-13, atol=0)


def test_subnormal_pair_is_lifted_before_projecting():
    # K_{-0,-5e-324} is K_{0,-1} times 5e-324, and the lift to (-0, -1/2)
    # is exact: by amplitude both roots are the same float, near 9/4
    # (p = 2, N = 2); unlifted, K kept no precision
    base = moments(_gaussian(2), PowerKG(2.0))
    lam, _, _ = project_to_constraint(base, ScalingExponents(-0.0, -5e-324))
    lam_unit, _, _ = project_to_constraint(base, ScalingExponents(0.0, -1.0))
    assert lam == lam_unit
    assert np.isclose(lam, 9.0 / 4.0, rtol=1e-4, atol=0)


@pytest.mark.parametrize("amp", [1e-6, 1e6])
def test_amplitude_roots_beyond_the_scan_window(amp, nl3):
    # the Nehari root of amp exp(-r^2) is 1.68 / amp, outside the
    # [1e-4, 1e4] window of SCAN_LAMBDAS, which only the other rays scan
    v = GridFunction.sample(RadialGrid(1, 20.0, 4000), lambda r: amp * np.exp(-r**2))
    lam, ray, _ = project_to_constraint(moments(v, nl3), AMPLITUDE_RAY)
    assert np.isclose(lam * amp, 1.6817823194445765, rtol=1e-12, atol=0)
    m = moments(rescale(v, lam, ray), nl3)
    assert abs(m.nehari()) <= PROJECTION_TOL * m.h1


def _grid_solve_by_amplitude(v, nl, se):
    """The amplitude-ray root as a bracketed solve finds it: an algebra scan
    over SCAN_LAMBDAS, a 33-point rescan when the resampled grid map loses
    that bracket, and one Brent solve of the grid map; None when the scan
    brackets nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        k_algebra = moments(v, nl).scaled(SCAN_LAMBDAS, AMPLITUDE_RAY).constraint(se)
    bracket = _sign_change(k_algebra)
    if bracket is None:
        return None

    def k_grid(lam):
        return moments(rescale(v, lam, AMPLITUDE_RAY), nl).constraint(se)

    lo, hi = SCAN_LAMBDAS[bracket[0]], SCAN_LAMBDAS[bracket[1]]
    if _sign_change([k_grid(lo), k_grid(hi)]) is None:
        scan = np.geomspace(lo / 4.0, hi * 4.0, 33)
        bracket = _sign_change([k_grid(lam) for lam in scan])
        lo, hi = scan[bracket[0]], scan[bracket[1]]
    return brent(k_grid, lo, hi, xtol=1e-14, rtol=8.9e-16)


@settings(max_examples=100, deadline=None)
@given(case=exponent_cases(1.0, (1.000001, 5.0)), nehari=st.booleans(),
       amp=st.floats(0.1, 5.0), width=st.floats(0.5, 3.0))
def test_amplitude_root_matches_the_grid_solve(case, nehari, amp, width):
    # the pairs whose region ray is the amplitude ray: (1, 0) and the limit
    # pairs.  Brent stops within 1e-14 + 8.9e-16 lambda of a sign change of
    # the grid map, and roundoff fixes that sign change (and the closed
    # form) only to about 1e-16 / (p - 1) relative, as in the idempotence
    # test above.  Measured worst: 22 times that floor (p = 1.015, N = 1,
    # lambda = 6309, over 4,900 random cases); the bound allows 64.
    alpha, beta, p, n = case
    if nehari:
        se = AMPLITUDE_RAY
    else:
        assume(classify_exponents(alpha, beta, p, n) == LIMIT)
        # K is linear in the pair: lift it as the projection does (exact)
        lift = -min(math.frexp(max(abs(alpha), abs(beta)))[1], 0)
        se = ScalingExponents(math.ldexp(alpha, lift), math.ldexp(beta, lift))
    nl = PowerKG(p)
    v = GridFunction.sample(RadialGrid(n, 20.0, 4000),
                            lambda r: amp * np.exp(-((r / width) ** 2)))
    lam_grid = _grid_solve_by_amplitude(v, nl, se)
    assume(lam_grid is not None)
    lam = moments(v, nl).amplitude_root(se)
    assert abs(lam - lam_grid) <= 1e-14 + 8.9e-16 * lam_grid + 64 * lam_grid * 1e-16 / (p - 1.0)


def test_amplitude_root_without_a_sign_change(nl3):
    # along the amplitude ray K_{0,1}(lambda v) = lambda^2 Q - lambda^4 W
    # with Q > 0 > W for this narrow Gaussian in N = 1: positive for every lambda
    v = GridFunction.sample(RadialGrid(1, 20.0, 4000), lambda r: np.exp(-((r / 0.1) ** 2)))
    se = ScalingExponents(0.0, 1.0)
    with pytest.raises(NoRoot):
        moments(v, nl3).amplitude_root(se)
    with pytest.raises(NoRoot):
        project_to_constraint(moments(v, nl3), se, ray=AMPLITUDE_RAY)


def test_amplitude_sweep_resamples_no_member_and_solves_nothing(nl3, monkeypatch):
    # along the amplitude ray the root is in closed form, and a projection
    # takes moments: the sweep makes no profile and solves nothing
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 25.0, 2000))
    trials = list(default_trial_family(gs, count=9, seed=0))
    resampled = []

    def counting_rescale(v, lam, se):
        resampled.append(se)
        return rescale(v, lam, se)

    def no_brent(*args, **kwargs):
        raise AssertionError("the amplitude ray needs no root finder")

    monkeypatch.setattr("varkg.paths.rescale", counting_rescale)
    monkeypatch.setattr("varkg.paths.brent", no_brent)
    report = verify_min_on_constraint(trials, AMPLITUDE_RAY, gs.level)
    assert report.passed and report.failures == ()
    assert resampled == []


def test_sign_change_skips_non_finite_samples():
    assert _sign_change([1.0, math.nan, -1.0]) == (0, 2)
    assert _sign_change([1.0, math.inf, 0.0, -2.0]) == (0, 3)
    assert _sign_change([math.nan, 1.0, math.nan]) is None


def test_overflowing_scan_nodes_warn_nothing(townes, nl3):
    # along the (100, 1) ray the algebra overflows to inf - inf at the
    # far scan nodes; those nodes are skipped without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, _, m = project_to_constraint(moments(townes.profile, nl3),
                                          ScalingExponents(100.0, 1.0))
    assert abs(m.constraint(ScalingExponents(100.0, 1.0))) <= PROJECTION_TOL * m.h1


def test_projection_whose_moments_overflow_raises_a_typed_error():
    # p = 1.001 puts the Nehari root of exp(-r^2) at (Q/W)^1000 = 1.36e301:
    # finite, but its square times ||grad v||^2 is past the float range
    nl, v = PowerKG(1.001), _gaussian(1)
    assert moments(v, nl).amplitude_root(AMPLITUDE_RAY) > 1e301
    for entry in (lambda: project_to_constraint(moments(v, nl), AMPLITUDE_RAY),
                  lambda: verify_min_on_constraint([moments(v, nl)], AMPLITUDE_RAY, 1.0)):
        with pytest.raises(NumericalOverflow, match="float range"):
            entry()


def test_projection_residual_is_relative_to_the_projected_profile():
    # the root lies at amplitude 156^2, so |K| there is roundoff of the
    # projected profile's norm (1.5e9), not of the input's (2.5)
    nl, se = PowerKG(1.0703125), ScalingExponents(2.0, 0.0)
    v = _gaussian(1)
    lam, ray, _ = project_to_constraint(moments(v, nl), se)
    m = moments(rescale(v, lam, ray), nl)
    assert lam > 100.0
    assert abs(m.constraint(se)) <= PROJECTION_TOL * m.h1


def test_limit_pair_projects_by_amplitude(nl3):
    base = moments(_gaussian(2), nl3)
    se = ScalingExponents(1.0, 1.0)
    lam, ray, m = project_to_constraint(base, se)
    assert ray == AMPLITUDE_RAY
    assert (lam, ray, m) == project_to_constraint(base, se, ray=AMPLITUDE_RAY)


def test_invalid_pair_raises_wrong_region(townes, nl3):
    se = ScalingExponents(1.0, 2.0)
    with pytest.raises(WrongRegion):
        project_to_constraint(moments(townes.profile, nl3), se)
    with pytest.raises(WrongRegion):
        build_path(moments(townes.profile, nl3), se)
    with pytest.raises(WrongRegion, match="not an admissible exponent pair"):
        verify_min_on_constraint([moments(townes.profile, nl3)], se, 1.0)


def test_build_path_picks_the_path_from_the_region(townes, nl3):
    base = moments(townes.profile, nl3)
    assert build_path(base, AMPLITUDE_RAY).segment_breaks == ()
    assert build_path(base, ScalingExponents(1.0, 1.0)).segment_breaks != ()


def _general_g_profile():
    # 3 exp(-r^2) in the plane: int G(v) > 0 for the cubic-quintic G
    g = RadialGrid(2, 20.0, 400)
    vals = 3.0 * np.exp(-g.r**2)
    vals[-1] = 0.0
    return GridFunction(g, vals)


@pytest.mark.parametrize("entry", [
    lambda v: project_to_constraint(moments(v, CUBIC_QUINTIC), AMPLITUDE_RAY),
    lambda v: project_to_constraint(moments(v, CUBIC_QUINTIC), AMPLITUDE_RAY, ray=AMPLITUDE_RAY),
    lambda v: verify_min_on_constraint([moments(v, CUBIC_QUINTIC)], AMPLITUDE_RAY, 1.0),
    lambda v: build_path(moments(v, CUBIC_QUINTIC), AMPLITUDE_RAY),
    lambda v: build_path(moments(v, CUBIC_QUINTIC), ScalingExponents(1.0, 1.0)),
    lambda v: moments(v, CUBIC_QUINTIC).scaled(0.01, ScalingExponents(1.0, 1.0)).action(),
], ids=["project", "project-explicit-ray", "minimization", "interior-path",
        "limit-path", "family-action-past-R"])
def test_general_nonlinearity_is_unsupported(entry):
    # regions, rays and scaled moments need moments that scale by powers;
    # off a dilation int G(v) of a general g does not
    v = _general_g_profile()
    assert moments(v, CUBIC_QUINTIC).potential() > 0.0
    with pytest.raises(Unsupported):
        entry(v)


def test_kinetic_minimum_records_general_nonlinearity_as_unsupported(cubic_quintic_ground):
    # the ground state lies on the P = 0 boundary (Pohozaev, N = 2) and is
    # taken as it stands; the zero function is outside {v != 0, P >= 0}
    v = _general_g_profile()
    boundary = cubic_quintic_ground.profile
    zero = GridFunction.zeros(v.grid)
    report = verify_T_min_over_P([moments(w, CUBIC_QUINTIC) for w in (v, boundary, zero)], 1.0)
    assert report.failures == ((0, "Unsupported"),)
    assert report.kinetics == (None, moments(boundary, CUBIC_QUINTIC).kinetic, None)
    assert report.skipped == (2,)


def test_projection_finds_the_algebra_root_beside_a_scan_node(nl3):
    # on this coarse grid the resampled map's root lies 0.6% below the
    # algebra root, on the other side of the scan node 2.2387; the search
    # is on the algebra, so the scan's two nodes bracket the root it finds
    g = RadialGrid(2, 20.0, 400)
    v = GridFunction.sample(g, lambda r: 1.051 * np.exp(-r**2))
    se = ScalingExponents(2.0, 1.0)
    base = moments(v, nl3)
    lam_alg = brentq(lambda lam: base.scaled(lam, se).constraint(se), 1e-3, 1e3,
                     xtol=1e-14, rtol=8.9e-16)
    lam_star, ray, m = project_to_constraint(base, se)
    assert abs(lam_star - lam_alg) <= 2e-14 + 2 * 8.9e-16 * lam_alg
    nodes = np.geomspace(1e-4, 1e4, 321)
    assert abs(nodes[np.searchsorted(nodes, lam_star) - 1] - 2.2387) < 1e-4
    assert abs(m.constraint(se)) <= PROJECTION_TOL * m.h1
    # the profile resampled at lambda* is resolved: its moments miss by under 1%
    got = moments(rescale(v, lam_star, ray), nl3)
    assert max(abs(g - e) / e for g, e in zip(got[:2], m[:2])) <= 1e-2


def test_reprojection_on_limit_ray_has_no_root(nl3):
    # along the pair's own ray K(v_lambda) = lambda^2 K(v), and K(v) is zero
    # up to roundoff: zero samples with no sign change are not a root
    se = ScalingExponents(1.0, 1.0)
    _, _, m = project_to_constraint(moments(_gaussian(2), nl3), se, ray=AMPLITUDE_RAY)
    with pytest.raises(NoRoot):
        project_to_constraint(m, se, ray=se)


def test_limit_sweep_projects_members_on_the_constraint(nl3):
    # the ground state and the unit-width member lie on the constraint
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 80.0, 16000))
    family = default_trial_family(gs, count=200, seed=0)
    report = verify_min_on_constraint(family, ScalingExponents(1.0, -2.0), gs.level)
    assert report.failures == ()


def test_interior_sweep_places_members_at_the_algebra_root(townes, nl3):
    # acceptance test 3's family; along (1, 0.9) members 21-22 are compressed
    # past the grid's resolution, where a root of the resampled profile's
    # moments lay far from the algebra's (at 41.7 and 50.6).  Members 1-2,
    # widened, project to profiles that would spill past R; no profile is
    # made, so they are placed too.  Every width member is phi's moments
    # scaled, so its root is the algebra's for phi(w x) itself (104.108 and
    # 190.180 for the resampled members 21-22)
    m = townes.level
    family = default_trial_family(townes, count=50, seed=0)
    reports = {pair: verify_min_on_constraint(family, ScalingExponents(*pair), m)
               for pair in INTERIOR_PAIRS}
    assert all(rep.min_action >= m for rep in reports.values())
    assert all(rep.failures == () for rep in reports.values())
    report = reports[(1.0, 0.9)]
    assert abs(report.lambdas[1] - 0.355210) < 1e-6 and abs(report.lambdas[2] - 0.363974) < 1e-6
    assert abs(report.actions[1] - 17.3638) < 1e-4 and abs(report.actions[2] - 15.4778) < 1e-4
    assert abs(report.lambdas[21] - 104.197) < 1e-3 and abs(report.lambdas[22] - 190.375) < 1e-3


def test_p_zero_projection_scaling(townes, nl3):
    # c phi goes back to phi along lambda v(lambda x): lambda0 = 1/c
    v = townes.profile
    m = townes.level
    trials = [moments(GridFunction(v.grid, c * v.values), nl3) for c in (1.1, 2.0)]
    report = verify_T_min_over_P(trials, m)
    assert report.failures == () and report.skipped == ()
    for lam0, lam_expected in zip(report.lambdas, (1.0 / 1.1, 0.5)):
        assert np.isclose(lam0, lam_expected, rtol=0, atol=1e-4)
    for t_val in report.kinetics:
        assert np.isclose(t_val, m, rtol=0, atol=0.05)


def test_interior_path_on_the_line(phi_1d, nl3):
    path = build_path(moments(phi_1d.profile, nl3), AMPLITUDE_RAY)
    assert path.admissible
    assert np.isclose(path.max_action, 4.0 / 3.0, rtol=0, atol=1e-3)
    assert path.action_values[-1] <= -10.0
    assert path.t[0] == 0.0 and path.t[-1] == 1.0


def test_interior_path_negative_beta(townes, nl3):
    m = townes.level
    path = build_path(moments(townes.profile, nl3), ScalingExponents(1.0, -1.0))
    assert path.admissible
    assert np.isclose(path.max_action, m, rtol=0, atol=1e-2 * m)


def test_interior_path_guards(phi_1d, townes, nl3, ground_n3):
    with pytest.raises(WrongRegion):
        build_path(moments(townes.profile, nl3), ScalingExponents(1.0, 2.0))
    off = GridFunction(phi_1d.grid, 2.0 * phi_1d.profile.values)
    with pytest.raises(NotOnConstraint):
        build_path(moments(off, nl3), AMPLITUDE_RAY)
    # interior pair whose ray action grows without bound
    with pytest.raises(NoNegativeEndpoint):
        build_path(moments(ground_n3.profile, nl3), ScalingExponents(-0.4, -1.0))


def test_limit_paths(townes, nl3):
    m = townes.level
    for alpha, beta in ((1.0, 1.0), (0.0, -1.0)):
        path = build_path(moments(townes.profile, nl3), ScalingExponents(alpha, beta))
        assert path.admissible
        assert np.isclose(path.max_action, m, rtol=0, atol=0.05)
        assert len(path.segment_breaks) in (1, 2)
        # first glued segment t -> S(t v_lambda0) must rise monotonically
        first = path.action_values[path.t <= path.segment_breaks[0]]
        assert np.all(np.diff(first) > 0.0)


def test_glued_path_of_the_zero_function_fails(townes, nl3):
    # the zero function lies on every constraint, and its Nehari value is
    # 0 at every lambda, so no first segment rises; a nonzero v's value
    # tends to a positive moment as lambda -> 0
    zero = moments(GridFunction.zeros(townes.grid), nl3)
    for pair in ((1.0, 1.0), (0.0, -1.0)):
        with pytest.raises(GluingFailed, match="40 halvings"):
            build_path(zero, ScalingExponents(*pair))


def test_path_sample_validation():
    good_t = np.linspace(0.0, 1.0, 5)
    good_s = np.zeros(5)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t[:4], action_values=good_s)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t + 0.1, action_values=good_s)
    with pytest.raises(InvalidInput):
        PathSample(t=good_t, action_values=good_s + float("nan"))
    # the endpoint verdict and the argmax are read off the action values
    flat = PathSample(t=good_t, action_values=good_s)
    assert not flat.admissible
    bump = PathSample(t=good_t, action_values=[0.0, 1.0, 3.0, 2.0, -1.0])
    assert bump.admissible and bump.argmax_index == 2 and bump.max_action == 3.0


def test_mountain_pass_estimate_on_line(phi_1d, nl3):
    base = moments(phi_1d.profile, nl3)
    paths = [build_path(base, ScalingExponents(a, b))
             for a, b in ((1.0, 0.0), (2.0, 0.0), (1.0, -1.0))]
    assert np.isclose(mountain_pass_estimate(paths), 4.0 / 3.0,
                      rtol=0, atol=1e-3)
    with pytest.raises(InvalidParameter):
        mountain_pass_estimate([])


def test_minimization_on_width_family(grid_1d, nl3):
    trials = [moments(GridFunction(grid_1d, 1.0 / np.cosh(a * grid_1d.r)), nl3)
              for a in (0.5, 0.75, 1.0, 1.5, 2.0)]
    report = verify_min_on_constraint(trials, AMPLITUDE_RAY, 4.0 / 3.0, tol=1e-3)
    assert report.passed
    assert report.argmin_index == 2
    assert np.isclose(report.min_action, 4.0 / 3.0, rtol=0, atol=1e-3)
    assert report.failures == ()
    # enlarging the family never increases the minimum
    more = trials + [moments(GridFunction(grid_1d, 1.0 / np.cosh(a * grid_1d.r)), nl3)
                     for a in (0.9, 1.1)]
    larger = verify_min_on_constraint(more, AMPLITUDE_RAY, 4.0 / 3.0, tol=1e-3)
    assert larger.min_action <= report.min_action + 1e-12


def test_minimization_perturbed_member_is_larger(townes, nl3):
    m = townes.level
    r = townes.grid.r
    bump = GridFunction(townes.grid,
                        townes.profile.values * (1.0 + 0.1 * np.exp(-r**2)))
    report = verify_min_on_constraint([moments(bump, nl3), moments(townes.profile, nl3)],
                                      ScalingExponents(1.0, 1.0), m, tol=0.05)
    assert report.passed
    assert report.argmin_index == 1
    assert report.actions[0] - report.actions[1] >= 1e-4


def test_minimization_guards(phi_1d, nl3):
    with pytest.raises(InvalidParameter):
        verify_min_on_constraint([], AMPLITUDE_RAY, 1.0)
    with pytest.raises(WrongRegion):
        verify_min_on_constraint([moments(phi_1d.profile, nl3)],
                                 ScalingExponents(1.0, 2.0), 1.0)
    zero = GridFunction.zeros(phi_1d.grid)
    with pytest.raises(EmptyConstraintSample):
        verify_min_on_constraint([moments(zero, nl3)], AMPLITUDE_RAY, 1.0)


def test_kinetic_minimum_over_p_set(townes, nl3):
    v = townes.profile
    m = townes.level
    trials = [moments(GridFunction(v.grid, c * v.values), nl3) for c in (1.0, 1.1, 1.5, 2.0)]
    report = verify_T_min_over_P(trials, m, tol=0.05)
    assert report.passed
    assert report.skipped == () and report.failures == ()
    for t_val in report.kinetics:
        assert np.isclose(t_val, m, rtol=0, atol=0.05)
    # an off-ray perturbation stays strictly above the level
    r = v.grid.r
    vals = v.values + 0.2 * np.exp(-r**2)
    vals[-1] = 0.0
    pert = verify_T_min_over_P([moments(GridFunction(v.grid, vals), nl3)], m, tol=1e-3)
    assert pert.min_kinetic >= m - 1e-3
    assert pert.min_kinetic > m + 1e-4


def test_kinetic_minimum_guards(townes, phi_1d, nl3):
    m = townes.level
    with pytest.raises(InvalidParameter):
        verify_T_min_over_P([], m)
    with pytest.raises(Unsupported):
        verify_T_min_over_P([moments(phi_1d.profile, nl3)], m)
    shrunk = GridFunction(townes.grid, 0.5 * townes.profile.values)
    zero = GridFunction.zeros(townes.grid)
    for trial in (shrunk, zero):
        with pytest.raises(EmptyConstraintSample):
            verify_T_min_over_P([moments(trial, nl3)], m)


def test_kinetic_minimum_records_a_later_member_of_another_dimension(townes, phi_1d, nl3):
    # P > 0 on the line too, but K_{0,-1} = -2P holds in the plane only,
    # so the member is not projected
    line = GridFunction(phi_1d.grid, 2.0 * phi_1d.profile.values)
    assert moments(line, nl3).potential() > 0.0
    report = verify_T_min_over_P([moments(townes.profile, nl3), moments(line, nl3)],
                                 townes.level)
    assert report.failures == ((1, "Unsupported"),)
    assert report.lambdas == (None, None) and report.kinetics[1] is None


def test_kinetic_minimum_takes_a_members_moments_once_before_projecting(townes, nl3,
                                                                          monkeypatch):
    # the caller takes them; the sweep reads its P band from them and
    # projects them, and takes none of its own
    member = GridFunction(townes.grid, 1.5 * townes.profile.values)
    counts = {"member moments": 0, "project_to_constraint": 0}
    moments_of, project = varkg.paths.moments, varkg.paths.project_to_constraint

    def counted_moments(v, nl):
        counts["member moments"] += v is member
        return moments_of(v, nl)

    def counted_project(*args, **kwargs):
        counts["project_to_constraint"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(varkg.paths, "moments", counted_moments)
    monkeypatch.setattr(varkg.paths, "project_to_constraint", counted_project)
    report = verify_T_min_over_P([varkg.paths.moments(member, nl3)], townes.level)
    assert report.failures == () and report.lambdas[0] < 1.0
    assert counts == {"member moments": 1, "project_to_constraint": 1}


def test_default_trial_family(townes):
    fam = default_trial_family(townes, count=12, seed=7)
    assert len(fam) == 12
    assert fam[0] == moments(townes.profile, townes.nonlinearity)
    again = default_trial_family(townes, count=12, seed=7)
    assert list(fam) == list(again)
    with pytest.raises(InvalidParameter):
        default_trial_family(townes, count=2)
    # numpy's generator and geomspace raised a bare TypeError
    for kwargs in ({"count": 10.0}, {"count": math.nan}, {"count": True},
                   {"seed": 1.5}, {"seed": "3"}):
        with pytest.raises(InvalidParameter, match="integer"):
            default_trial_family(townes, **kwargs)
    assert len(default_trial_family(townes, count=np.int64(5), seed=np.int64(2))) == 5


def _eager_bumps(gs, count, seed):
    """The stock trial set's bump members, every profile built whole and up
    front."""
    v = gs.profile
    grid = v.grid
    rng = np.random.default_rng(seed)
    members = []
    r = grid.r
    for _ in range(count - 1 - (count - 1) // 2):
        eps = rng.uniform(-0.3, 0.3)
        x0 = rng.uniform(0.0, grid.outer_radius / 8.0)
        width = rng.uniform(0.5, 2.0)
        bump = 1.0 + eps * np.exp(-(((r - x0) / width) ** 2))
        members.append(GridFunction(grid, v.values * bump))
    return members


def _stock_ground_state(case, townes):
    return townes if case.startswith("N2") else closed_form_1d(3.0, 0.0, RadialGrid(1, 80.0, 16000))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("case", ["N1-R80-M16000", "N2-R40-M4000"])
def test_trial_family_members_are_the_eager_members(townes, case, seed):
    # a bump's factor is formed only near its centre; elsewhere it is 1.0,
    # so a bump member is the moments of the eager bumped profile bit for
    # bit.  The width members are the profile's moments on the algebra
    gs = _stock_ground_state(case, townes)
    nl = gs.nonlinearity
    family = default_trial_family(gs, count=200, seed=seed)
    bumps = [moments(w, nl) for w in _eager_bumps(gs, 200, seed)]
    assert len(family) == 200 and len(bumps) == 100
    base = moments(gs.profile, nl)
    assert family[0] == base
    for i, w in enumerate(np.geomspace(0.5, 2.0, 99), start=1):
        assert family[i] == base.scaled(float(w), WIDTH_RAY), i
    for i, want in enumerate(bumps, start=100):
        assert family[i] == want, i
    assert family[-1] == bumps[-1]
    assert family[198:] == bumps[98:]
    with pytest.raises(IndexError):
        family[200]


@pytest.mark.parametrize("case", ["N1-R80-M16000", "N2-R40-M4000"])
def test_width_members_are_the_resampled_members_to_second_order(townes, case):
    # the algebra is exact on the whole space; rescale's linear
    # interpolation and the grid's quadrature of phi(w x) miss it by
    # O((w h)^2), which is the whole gap between the two width families.
    # Measured: up to 0.78 (w h)^2 relative in N = 1 and 2.04 (w h)^2 in
    # N = 2 (the potential moment at w = 0.5, where the grid's own h^2
    # error of phi dominates)
    gs = _stock_ground_state(case, townes)
    nl, h = gs.nonlinearity, gs.grid.spacing
    family = default_trial_family(gs, count=199, seed=0)
    for i, w in enumerate(np.geomspace(0.5, 2.0, 99), start=1):
        resampled = moments(rescale(gs.profile, float(w), WIDTH_RAY), nl)
        miss = max(abs(got - want) / want for got, want in zip(resampled[:3], family[i][:3]))
        assert miss <= 3.0 * (w * h) ** 2, (i, w, miss)


_BUMP_PROFILES = [GridFunction(grid, 1.0 / np.cosh(grid.r) - 1.0 / np.cosh(grid.r[-1]))
                  for grid in (RadialGrid(1, 80.0, 16000), RadialGrid(2, 40.0, 4000))]


@settings(max_examples=100, deadline=None)
@given(v=st.sampled_from(_BUMP_PROFILES), eps=st.floats(-0.3, 0.3),
       reach=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), width=st.floats(0.5, 3.0))
def test_bump_is_the_whole_grid_product(v, eps, reach, width):
    # the stock family draws x0 in [0, R/8] and the min-T family puts it at 0;
    # forming the factor near x0 alone changes no bit of the product
    r = v.grid.r
    x0 = reach * v.grid.outer_radius / 8.0
    whole = v.values * (1.0 + eps * np.exp(-(((r - x0) / width) ** 2)))
    assert varkg.paths._bumped(v, eps, x0, width).values.tobytes() == whole.tobytes()


class _CountingTrials(Sequence):
    def __init__(self, members):
        self.members, self.reads = members, []

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i):
        member = self.members[i]
        self.reads.append(i)
        return member


def test_sweep_reads_each_trial_once_in_order(phi_1d, nl3):
    trials = _CountingTrials(list(default_trial_family(phi_1d, count=9, seed=0)))
    report = verify_min_on_constraint(trials, ScalingExponents(1.0, -2.0), phi_1d.level)
    assert report.members_total == 9
    assert trials.reads == list(range(9))


def test_sweeps_take_a_generator_of_trials(phi_1d, townes, nl3):
    family = default_trial_family(phi_1d, count=9, seed=0)
    se = ScalingExponents(1.0, -2.0)
    from_list = verify_min_on_constraint(list(family), se, phi_1d.level)
    assert verify_min_on_constraint((w for w in family), se, phi_1d.level) == from_list
    trials = [moments(GridFunction(townes.grid, c * townes.profile.values), nl3)
              for c in (0.5, 1.0, 1.5)]
    assert (verify_T_min_over_P((w for w in trials), townes.level)
            == verify_T_min_over_P(trials, townes.level))
    with pytest.raises(InvalidParameter, match="empty"):
        verify_min_on_constraint(iter(()), se, phi_1d.level)
    with pytest.raises(InvalidParameter, match="empty"):
        verify_T_min_over_P(iter(()), townes.level)


def test_a_trial_that_cannot_be_made_raises_out_of_the_sweep(nl3):
    # widening by 2 pushes mass past R = 14: making the member raises
    # TruncationOverflow, which is not a member failure
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 14.0, 4000))
    family = default_trial_family(gs, count=9, seed=0)
    with pytest.raises(TruncationOverflow, match="lambda=0.5"):
        verify_min_on_constraint(family, AMPLITUDE_RAY, gs.level)


def test_trial_family_sweep_holds_one_member_at_a_time(nl3):
    # the family was held whole: 6.6 MB, about 200 member sizes
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 40.0, 4000))
    verify_min_on_constraint(default_trial_family(gs, count=3, seed=0),
                             AMPLITUDE_RAY, gs.level)  # first-call imports
    tracemalloc.start()
    try:
        report = verify_min_on_constraint(default_trial_family(gs, count=200, seed=0),
                                          AMPLITUDE_RAY, gs.level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.members_total == 200 and report.failures == ()
    assert peak < 20 * gs.profile.values.nbytes


def test_amplitude_projection_peaks_at_three_rows(nl3):
    # the two scratch rows of its moments and no projected profile: the
    # two-pass moments and the copying constructor peaked at four
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 80.0, 16000))
    v = GridFunction(gs.grid, 1.3 * gs.profile.values)
    project_to_constraint(moments(v, nl3), AMPLITUDE_RAY)  # first-call imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        project_to_constraint(moments(v, nl3), AMPLITUDE_RAY)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * v.values.nbytes


def test_default_trial_family_refuses_a_negative_seed(townes):
    # numpy's generator raised a bare ValueError
    with pytest.raises(InvalidParameter, match="seed"):
        default_trial_family(townes, count=12, seed=-1)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_sweeps_refuse_a_tolerance_that_is_not_positive_and_finite(townes, nl3, tol):
    # a nan tol made every verdict a plausible False
    with pytest.raises(InvalidParameter, match="tol"):
        verify_min_on_constraint([moments(townes.profile, nl3)], AMPLITUDE_RAY, townes.level,
                                 tol=tol)
    with pytest.raises(InvalidParameter, match="tol"):
        verify_T_min_over_P([moments(townes.profile, nl3)], townes.level, tol=tol)


def test_sweep_reads_each_member_from_its_projection(phi_1d, nl3, monkeypatch):
    # an amplitude-ray member is projected once from its moments: the
    # residual check and the report share the scaled moments.  Member 0
    # and the four width members on the algebra read the moments the
    # ground state was validated with, and only the bump members are
    # measured.  Nothing resamples, so the traced benchmark's one
    # projection span per member costs no profile
    calls = {"moments": 0, "project_to_constraint": 0, "rescale": 0}

    def counted(name):
        original = getattr(varkg.paths, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    family = default_trial_family(phi_1d, count=9, seed=0)
    for name in calls:
        monkeypatch.setattr(varkg.paths, name, counted(name))
    report = verify_min_on_constraint(family, AMPLITUDE_RAY, phi_1d.level)
    assert report.failures == ()
    assert calls == {"moments": 4, "project_to_constraint": 9, "rescale": 0}
    monkeypatch.undo()
    profiles = [phi_1d.profile] + [None] * 4 + _eager_bumps(phi_1d, 9, 0)
    for trial, profile, lam, action in zip(family, profiles, report.lambdas, report.actions):
        lam_star, ray, m = project_to_constraint(trial, AMPLITUDE_RAY)
        assert lam_star == lam and m.action() == action
        if profile is not None:
            w = rescale(profile, lam_star, ray)
            assert np.allclose(moments(w, nl3)[:3], m[:3], rtol=1e-14, atol=0)


def test_width_members_are_priced_by_the_scaling_law(townes, nl3):
    # along the (1, 1) limit pair in the plane the amplitude projection of
    # phi(w x) has S = ||v||^2 ||grad v||^2 / ||v||_4^4 of phi whatever w is,
    # so every width member prices as member 0 does.  That value sits
    # 2.9e-9 m above m, the second-order move of projecting the shot phi
    # itself (lambda* = 0.99995).  The resampled members read down to
    # m (1 - 2.1e-4), below the minimum they check
    m = townes.level
    report = verify_min_on_constraint(default_trial_family(townes, count=20, seed=0),
                                      ScalingExponents(1.0, 1.0), m)
    member_0 = report.actions[0]
    for i in range(1, 10):
        assert abs(report.actions[i] - member_0) <= 1e-14 * member_0, i
    assert 0.0 <= member_0 - m <= 5e-9 * m
    assert report.min_action >= m
    # along the (1, -2) limit pair on the line K is 2 ||v||^2 - 1.5 ||v||_4^4,
    # whose amplitude root a dilation leaves alone: every width member
    # projects at lambda* = 1.0 exactly (1.0000018 for a resampled one)
    gs = closed_form_1d(3.0, 0.0, RadialGrid(1, 80.0, 16000))
    report = verify_min_on_constraint(default_trial_family(gs, count=200, seed=0),
                                      ScalingExponents(1.0, -2.0), gs.level)
    assert report.lambdas[:100] == (1.0,) * 100


def test_an_invalid_pair_has_a_point_below_the_level(townes, nl3):
    # the negative control: at (1, 2), K = ||grad v||^2 - ||v||^2, and in
    # the plane at p = 3 the ground state has ||grad phi||^2 = ||phi||^2
    # (Nehari plus Pohozaev), so (1/2) phi lies on this constraint with
    # S = (7/16) m.  On the grid K misses zero by the O(h^2) gap
    se = ScalingExponents(1.0, 2.0)
    assert classify_exponents(se.alpha, se.beta, 3.0, 2) == INVALID
    half = moments(townes.profile, nl3).scaled(0.5, AMPLITUDE_RAY)
    assert abs(half.constraint(se)) <= 1e-4 * half.h1
    assert abs(half.action() / townes.level - 7.0 / 16.0) <= 1e-4
