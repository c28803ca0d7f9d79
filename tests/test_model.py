"""Nonlinearity models, exponent classification, and the static functionals."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varkg import (
    AMPLITUDE_RAY,
    GeneralG,
    GridFunction,
    INTERIOR,
    INVALID,
    LIMIT,
    InvalidInput,
    InvalidMass,
    NumericalOverflow,
    PowerKG,
    RadialGrid,
    ScalingExponents,
    Unsupported,
    check_subcritical,
    classify_exponents,
    flow_nonlinearity,
    moments,
    ray_exponents,
    rescale,
)
from varkg.model import Moments, _abs_power

from general_g import CUBIC_QUINTIC, LINEAR_KG


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
    m = moments(phi_1d.profile, nl3)
    assert np.isclose(m.l2, 4.0, rtol=0, atol=1e-6)
    assert np.isclose(m.grad, 4.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(m.pot, 16.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(m.action(), 4.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(m.kinetic, 2.0 / 3.0, rtol=0, atol=1e-6)
    assert np.isclose(m.potential(), -2.0 / 3.0, rtol=0, atol=1e-6)
    assert abs(m.nehari()) < 1e-6
    assert abs(m.pohozaev_residual()) < 1e-6


def test_constraint_is_linear_in_exponents(townes, nl3):
    # K_{alpha,beta} = alpha K_{1,0} - beta (Pohozaev residual)
    v = townes.profile
    m = moments(v, nl3)
    neh = m.nehari()
    poh = m.pohozaev_residual()
    scale = m.h1
    for alpha, beta in ((1.0, 1.0), (0.3, -0.7), (2.0, -1.0), (0.0, -1.0), (1.5, 1.0)):
        se = ScalingExponents(alpha, beta)
        k = m.constraint(se)
        assert np.isclose(k, alpha * neh - beta * poh, rtol=0, atol=1e-9 * scale)
        # at a validated ground state every member of the span is small
        assert abs(k) <= 1e-3 * (abs(alpha) + abs(beta)) * scale


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
    m = moments(v, LINEAR_KG)
    assert np.isclose(m.potential(), -0.5 * m.l2, rtol=1e-13)
    assert np.isclose(m.action(), m.kinetic + 0.5 * m.l2, rtol=1e-13)
    # int G(v) of a general g is no power of lambda off a dilation, and K
    # needs int g(v) v
    with pytest.raises(Unsupported):
        m.nehari()
    with pytest.raises(Unsupported):
        m.constraint(ScalingExponents(0.0, -1.0))
    with pytest.raises(Unsupported):
        m.scaled(2.0, AMPLITUDE_RAY)


@pytest.mark.parametrize("lam", [0.5, 0.8, 1.25])
def test_general_g_moments_scale_along_a_dilation(lam):
    # int G(v(lambda x)) dx = lambda^(-N) int G(v) for any G, so a dilation
    # scales the moments of a general g as it does a power's
    v = GridFunction.sample(RadialGrid(2, 20.0, 4000), lambda r: 2.0 * np.exp(-r**2))
    dilation = ScalingExponents(0.0, 1.0)
    resampled = moments(rescale(v, lam, dilation), CUBIC_QUINTIC)
    scaled = moments(v, CUBIC_QUINTIC).scaled(lam, dilation)
    assert np.allclose(resampled[:3], scaled[:3], rtol=1.5e-3, atol=0.0)


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


def test_potential_moment_overflow(nl3):
    g = RadialGrid(2, 5.0, 50)
    huge = np.full(51, 1e200)
    huge[-1] = 0.0
    with pytest.raises(NumericalOverflow):
        moments(GridFunction(g, huge), nl3)


def test_modulus_equality(nl3):
    # the moments see |v|, so v and -v share P and S bit for bit
    g = RadialGrid(2, 8.0, 160)
    w = GridFunction.sample(g, lambda r: np.exp(-r**2))
    v = GridFunction(g, -w.values)
    assert moments(v, nl3).potential() == moments(w, nl3).potential()
    assert moments(v, nl3).action() == moments(w, nl3).action()


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
    scaled = base.scaled(lam, se)
    assert np.allclose(resampled[:3], scaled[:3], rtol=1.5e-3, atol=0.0)
    # the dimension drops out of the amplitude ray's exponents, bit for bit
    assert base.nehari() == base.constraint(AMPLITUDE_RAY)
    assert base.nehari() == base._replace(dimension=1).constraint(AMPLITUDE_RAY)
    # an array of lambdas scales as the scalar calls do: each power of
    # lambda within 1 ulp (numpy's vector pow may differ from the scalar
    # one in the last bit), so K keeps its sign unless roundoff decides it
    lams = np.array([lam, 1.0, 1.0 / lam])
    unit = Moments(1.0, 1.0, 1.0, nl, n)
    powers = np.array(unit.scaled(lams, se)[:3])
    k_vector = base.scaled(lams, se).constraint(se)
    for i, one in enumerate(lams):
        np.testing.assert_array_max_ulp(powers[:, i], np.array(unit.scaled(one, se)[:3]),
                                        maxulp=1)
        at_one = base.scaled(one, se)
        k_scalar = at_one.constraint(se)
        roundoff = 1e-13 * (1.0 + abs(alpha) + abs(beta)) * (p + 1.0) * sum(at_one[:3])
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
    assert m.constraint(se) == -2.0 * m.potential()


FLOAT_MAX = float(np.finfo(float).max)


@st.composite
def power_kernel_cases(draw):
    """(q, x): q an integer 2..8 and x with zeros, subnormals, negatives,
    anything finite, and values within a few ulps of the x where |x|^q
    crosses the largest float."""
    q = draw(st.integers(2, 8))
    edge = FLOAT_MAX ** (1.0 / q)
    near_edge = st.integers(-64, 64).map(lambda k: float(edge + k * np.spacing(edge)))
    element = (st.just(0.0) | st.floats(-2.3e-308, 2.3e-308) | st.floats(-1e3, 1e3)
               | st.floats(allow_nan=False, allow_infinity=False)
               | near_edge | near_edge.map(lambda x: -x))
    return q, draw(arrays(float, st.integers(1, 40), elements=element))


@settings(max_examples=300, deadline=None)
@given(case=power_kernel_cases(), frac=st.floats(0.05, 0.95))
def test_power_kernel_against_pow(case, frac):
    # q = 4 is two roundings of products, 1.5 ulps from the exact power, and
    # pow is within an ulp of it, so the two agree to 3 ulps (of the larger
    # float range next to zero too); where one overflows and the other does
    # not, the finite one lies within 3 ulps of the largest float.  Any
    # other q, integer or not, is pow itself, and q = 2 is numpy's square.
    q, x = case
    with np.errstate(over="ignore"):
        got, want = _abs_power(x, float(q)), np.abs(x) ** float(q)
        assert np.array_equal(_abs_power(x, q + frac), np.abs(x) ** (q + frac))
        # the spacing above the largest float is inf
        ulps = np.spacing(want)
    if q != 4:
        assert np.array_equal(got, want)
    both = np.isfinite(got) & np.isfinite(want)
    assert np.all(np.abs(got[both] - want[both]) <= 3 * ulps[both])
    one = np.isfinite(got) != np.isfinite(want)
    band = FLOAT_MAX - 3 * 2.0**971  # 2^971 is the ulp of the largest float
    assert np.all(np.where(np.isfinite(got), got, want)[one] >= band)
    grid = RadialGrid(2, 5.0, 16)
    past_edge = np.append(np.full(16, 2.0 * FLOAT_MAX ** (1.0 / q)), 0.0)
    if q > 2:  # the potential moment's power p + 1 exceeds 2
        with pytest.raises(NumericalOverflow):
            moments(GridFunction(grid, past_edge), PowerKG(q - 1.0))


@settings(max_examples=100, deadline=None)
@given(x=arrays(float, st.integers(1, 40), elements=st.floats(-1e100, 1e100)),
       omega=st.floats(-0.9, 0.9))
def test_cubic_g_is_the_kernel_written_out(x, omega):
    # g at p = 3 writes |s|^2 s out for the shooting march; it is the
    # kernel's value bit for bit, on arrays and on floats
    nl, neg_m0 = PowerKG(3.0, omega), -PowerKG(3.0, omega).mass
    with np.errstate(over="ignore"):
        assert np.array_equal(nl.g(x), neg_m0 * x + _abs_power(x, 2.0) * x)
    s = float(x[0])
    assert nl.g(s) == neg_m0 * s + _abs_power(s, 2.0) * s


def two_pass_moments(v, nl):
    """The moments as written before they worked in place: each density made
    whole, then the weighted sum (weights * density).sum()."""
    values, grid = v.values, v.grid
    h, w = grid.spacing, grid.weights
    d = np.empty_like(values)
    d[0] = 0.0
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[-1] = (values[-1] - values[-2]) / h
    if not isinstance(nl, PowerKG):
        potential = nl.G(np.abs(values))
    elif nl.p == 3.0:
        potential = (values * values) * (values * values)
    else:
        potential = np.abs(values) ** (nl.p + 1.0)
    return ((w * (d * d)).sum(), (w * (values * values)).sum(), (w * potential).sum())


@pytest.mark.parametrize("nl", [PowerKG(2.0), PowerKG(3.0, 0.5), PowerKG(4.0), CUBIC_QUINTIC],
                         ids=["p2", "p3", "p4", "cubic_quintic"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_moments_are_the_two_pass_sums_bit_for_bit(nl, dimension, seed):
    # sign-changing profiles of assorted scales on grids of assorted sizes
    rng = np.random.default_rng(seed)
    grid = RadialGrid(dimension, rng.uniform(1.0, 50.0), int(rng.integers(16, 5000)))
    values = rng.normal(size=grid.cells + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    if dimension >= 2:
        values[-1] = 0.0
    v = GridFunction(grid, values)
    assert tuple(moments(v, nl)[:3]) == two_pass_moments(v, nl)
