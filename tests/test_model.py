"""Nonlinearity models, exponent classification, and the static functionals."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varkg import (
    GeneralG,
    GridFunction,
    INTERIOR,
    INVALID,
    LIMIT,
    LINEAR_KG,
    InvalidInput,
    InvalidMass,
    NumericalOverflow,
    PowerKG,
    RadialGrid,
    ScalingExponents,
    Unsupported,
    action_S,
    check_subcritical,
    classify_exponents,
    constraint_K,
    energy_E,
    flow_nonlinearity,
    grad_norm_sq,
    h1_norm_sq,
    kinetic_T,
    l2_norm_sq,
    moments,
    nehari_K,
    pohozaev_P,
    pohozaev_residual,
    power_integral,
    ray_exponents,
    rescale,
)
from varkg.model import Moments


def test_power_kg_validation():
    nl = PowerKG(3.0, 0.6)
    assert np.isclose(nl.mass, 0.64, rtol=0, atol=1e-15)
    with pytest.raises(InvalidInput):
        PowerKG(1.0, 0.0)
    with pytest.raises(InvalidInput):
        PowerKG(float("nan"), 0.0)
    with pytest.raises(InvalidMass):
        PowerKG(3.0, 1.0)
    with pytest.raises(InvalidMass):
        PowerKG(3.0, -1.2)


def test_power_kg_pickles_with_its_closures():
    nl = pickle.loads(pickle.dumps(PowerKG(3.0, 0.6)))
    assert nl == PowerKG(3.0, 0.6)
    assert abs(nl.g(2.0) - (-0.64 * 2.0 + 8.0)) <= 1e-14


def test_check_subcritical():
    check_subcritical(4.9, 3)
    check_subcritical(7.0, 2)
    check_subcritical(9.0, 1)
    with pytest.raises(InvalidInput):
        check_subcritical(5.0, 3)


def test_classification_regions():
    # amplitude ray is interior in every dimension
    for n in (1, 2, 3):
        assert classify_exponents(1.0, 0.0, 3.0, n) == INTERIOR
    # N = 2, p = 3 landscape
    assert classify_exponents(1.0, -1.0, 3.0, 2) == INTERIOR
    assert classify_exponents(1.0, 0.5, 3.0, 2) == INTERIOR
    assert classify_exponents(1.0, 1.0, 3.0, 2) == LIMIT
    assert classify_exponents(0.0, -1.0, 3.0, 2) == LIMIT
    assert classify_exponents(1.0, 2.0, 3.0, 2) == INVALID
    assert classify_exponents(0.0, 0.0, 3.0, 2) == INVALID
    # N = 3 distinguishes the two boundary families
    assert classify_exponents(1.5, 1.0, 3.0, 3) == LIMIT
    assert classify_exponents(1.0, 1.0, 3.0, 3) == INVALID
    assert classify_exponents(-0.4, -1.0, 3.0, 3) == INTERIOR


def test_classification_rejects_bad_arguments():
    with pytest.raises(InvalidInput):
        classify_exponents(float("inf"), 0.0, 3.0, 2)
    with pytest.raises(InvalidInput):
        classify_exponents(1.0, 0.0, 1.0, 2)
    with pytest.raises(InvalidInput):
        classify_exponents(1.0, 0.0, 3.0, 4)


def test_functionals_on_line_soliton(phi_1d, nl3):
    # sqrt(2) sech(r): the whole-line integrals are rational
    l2 = l2_norm_sq(phi_1d.profile)
    gr = grad_norm_sq(phi_1d.profile)
    l4 = power_integral(phi_1d.profile, 4.0)
    assert np.isclose(l2, 4.0, rtol=0, atol=1e-6)
    assert np.isclose(gr, 4.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(l4, 16.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(action_S(phi_1d.profile, nl3), 4.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(kinetic_T(phi_1d.profile), 2.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(pohozaev_P(phi_1d.profile, nl3), -2.0 / 3.0, rtol=0, atol=1e-6)
    assert abs(nehari_K(phi_1d.profile, nl3)) < 1e-6
    assert abs(pohozaev_residual(phi_1d.profile, nl3)) < 1e-6


def test_constraint_is_linear_in_exponents(townes, nl3):
    # K_{alpha,beta} = alpha K_{1,0} - beta (Pohozaev residual)
    v = townes.profile
    neh = nehari_K(v, nl3)
    poh = pohozaev_residual(v, nl3)
    scale = h1_norm_sq(v)
    for alpha, beta in ((1.0, 1.0), (0.3, -0.7), (2.0, -1.0), (0.0, -1.0), (1.5, 1.0)):
        se = ScalingExponents(alpha, beta)
        k = constraint_K(v, nl3, se)
        assert np.isclose(k, alpha * neh - beta * poh, rtol=0, atol=1e-9 * scale)
        # at a validated ground state every member of the span is small
        assert abs(k) <= 1e-3 * (abs(alpha) + abs(beta)) * scale


def test_energy_matches_action_at_rest(townes, nl3):
    zero = GridFunction(townes.grid, np.zeros(townes.grid.cells + 1))
    assert energy_E(townes.profile, zero, nl3) == action_S(townes.profile, nl3)


def test_general_nonlinearity_validation():
    with pytest.raises(InvalidMass):
        GeneralG(name="bad_rho", g=lambda s: -s, G=lambda s: -0.5 * s**2, rho=0.0)
    with pytest.raises(InvalidInput):
        GeneralG(name="bad_origin", g=lambda s: -s, G=lambda s: 1.0 - 0.5 * s**2, rho=1.0)
    with pytest.raises(InvalidInput):
        # quadratic coefficient disagrees with the declared mass
        GeneralG(name="bad_mass_term", g=lambda s: -s, G=lambda s: -0.25 * s**2, rho=1.0)


def test_general_nonlinearity_rejects_g_that_is_not_G_prime():
    # G' = -s + 2 s^3, so shots would be marched with one nonlinearity and
    # their turning-point energy measured with another
    with pytest.raises(InvalidInput, match="derivative"):
        GeneralG(name="mismatched", g=lambda s: -s + s**3,
                 G=lambda s: -0.5 * s**2 + 0.5 * s**4, rho=1.0)


def test_linear_kg_functionals():
    g = RadialGrid(2, 10.0, 200)
    vals = np.exp(-g.r)
    vals[-1] = 0.0
    v = GridFunction(g, vals)
    assert np.isclose(pohozaev_P(v, LINEAR_KG), -0.5 * l2_norm_sq(v), rtol=1e-13)
    assert np.isclose(action_S(v, LINEAR_KG),
                      kinetic_T(v) + 0.5 * l2_norm_sq(v), rtol=1e-13)
    with pytest.raises(Unsupported):
        nehari_K(v, LINEAR_KG)


def test_flow_nonlinearity_conventions():
    # the flow sees unit mass; omega only shapes initial data
    flow1 = flow_nonlinearity(PowerKG(3.0, 0.0))
    flow2 = flow_nonlinearity(PowerKG(3.0, 0.7))
    u = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(flow1.g(u), flow2.g(u))
    assert np.allclose(flow1.g(u), -u + u**3, rtol=0, atol=1e-15)
    assert np.allclose(flow1.G(u), -0.5 * u**2 + 0.25 * u**4, rtol=0, atol=1e-15)
    flow3 = flow_nonlinearity(LINEAR_KG)
    assert flow3.g is LINEAR_KG.g
    assert flow3.G is LINEAR_KG.G


def test_power_integral_guards():
    g = RadialGrid(2, 5.0, 50)
    vals = np.ones(51)
    vals[-1] = 0.0
    v = GridFunction(g, vals)
    with pytest.raises(InvalidInput):
        power_integral(v, 0.0)
    huge = np.full(51, 1e200)
    huge[-1] = 0.0
    with pytest.raises(NumericalOverflow):
        power_integral(GridFunction(g, huge), 4.0)


def test_complex_modulus_equality(nl3):
    g = RadialGrid(2, 8.0, 160)
    vals = (0.6 + 0.8j) * np.exp(-g.r**2)
    vals[-1] = 0.0
    v = GridFunction(g, vals)
    w = GridFunction(g, np.abs(vals))
    assert pohozaev_P(v, nl3) == pohozaev_P(w, nl3)
    assert action_S(v, nl3) == action_S(w, nl3)


@st.composite
def exponent_cases(draw, max_beta, p_range):
    """(alpha, beta, p, N): a free pair, or one on the gradient edge
    2 alpha = beta (N-2) (beta < 0) or the mass edge 2 alpha = beta N (beta > 0)."""
    n = draw(st.sampled_from((1, 2, 3)))
    p = draw(st.floats(*p_range, exclude_min=True, exclude_max=True))
    beta = draw(st.floats(-max_beta, max_beta))
    family = draw(st.sampled_from(("free", "gradient edge", "mass edge")))
    if family == "free":
        alpha = draw(st.floats(-2.0 * max_beta, 3.0 * max_beta))
    elif family == "gradient edge":
        beta = -abs(beta)
        alpha = beta * (n - 2) / 2.0
    else:
        beta = abs(beta)
        alpha = beta * n / 2.0
    return alpha, beta, p, n


@settings(max_examples=300, deadline=None)
@given(case=exponent_cases(4.0, (1.0, 9.0)))
def test_region_fixes_signs_of_ray_exponents(case):
    # the interior ray path relies on the first: its ray starts at the zero function
    region = classify_exponents(*case)
    grad_exp, mass_exp, pot_exp = ray_exponents(*case)
    if region == INTERIOR:
        assert grad_exp > 0.0 and mass_exp > 0.0 and pot_exp > 0.0
    if region == LIMIT:
        assert grad_exp == 0.0 or mass_exp == 0.0


@settings(max_examples=60, deadline=None)
@given(case=exponent_cases(1.0, (1.0, 5.0)), lam=st.floats(0.5, 2.0),
       amp=st.floats(0.1, 5.0), width=st.floats(0.5, 3.0))
def test_scaled_moments_match_resampling(case, lam, amp, width):
    # |beta| <= 1 keeps the stretch lambda^beta in [1/2, 2], so a Gaussian
    # of width <= 3 loses no measurable mass past R = 20 and the narrowest
    # resampled one (width 1/4) still spans 50 cells.  Measured worst
    # relative difference: 6.0e-4 (the potential moment, N = 3, p -> 5,
    # width 1/2 compressed twofold; 3.8e-4 over 13,000 random cases), so
    # the tolerance is 1.5e-3.
    alpha, beta, p, n = case
    assume(classify_exponents(alpha, beta, p, n) != INVALID)
    se = ScalingExponents(alpha, beta)
    v = GridFunction.sample(RadialGrid(n, 20.0, 4000),
                            lambda r: amp * np.exp(-((r / width) ** 2)))
    nl = PowerKG(p)
    resampled = moments(rescale(v, lam, se), nl)
    base = moments(v, nl)
    scaled = base.scaled(lam, se, nl, n)
    assert np.allclose(resampled, scaled, rtol=1.5e-3, atol=0.0)
    # an array of lambdas scales as the scalar calls do: each power of
    # lambda within 1 ulp (numpy's vector pow may differ from the scalar
    # one in the last bit), so K keeps its sign unless roundoff decides it
    lams = np.array([lam, 1.0, 1.0 / lam])
    unit = Moments(1.0, 1.0, 1.0)
    powers = np.array(unit.scaled(lams, se, nl, n))
    k_vector = base.scaled(lams, se, nl, n).constraint(nl, se, n)
    for i, one in enumerate(lams):
        np.testing.assert_array_max_ulp(powers[:, i], np.array(unit.scaled(one, se, nl, n)),
                                        maxulp=1)
        at_one = base.scaled(one, se, nl, n)
        k_scalar = at_one.constraint(nl, se, n)
        roundoff = 1e-13 * (1.0 + abs(alpha) + abs(beta)) * (p + 1.0) * sum(at_one)
        if abs(k_scalar) > roundoff:
            assert np.sign(k_vector[i]) == np.sign(k_scalar)


P_ZERO_GRID = RadialGrid(2, 10.0, 32)


@settings(max_examples=200, deadline=None)
@given(values=arrays(float, P_ZERO_GRID.cells,
                     elements=st.just(0.0) | st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)),
       p=st.floats(1.0, 9.0, exclude_min=True), omega=st.floats(-0.99, 0.99))
def test_p_is_minus_half_k_zero_minus_one_in_2d(values, p, omega):
    # P = -K_{0,-1}/2 in dimension 2, bit for bit: the P = 0 projection is
    # the (0, -1) constraint projection.  Node magnitudes of at least 1e-3
    # keep the moments out of the subnormal range, where halving is inexact.
    v = GridFunction(P_ZERO_GRID, np.append(values, 0.0))
    nl = PowerKG(p, omega)
    m = moments(v, nl)
    assert classify_exponents(0.0, -1.0, p, 2) == LIMIT
    se = ScalingExponents(0.0, -1.0)
    assert m.constraint(nl, se, 2) == -2.0 * m.potential(nl)
