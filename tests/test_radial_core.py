"""Grids, quadrature, grid functions, and profile round-trips."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from varkg import radial_core
from varkg import (
    ConvergenceError,
    GridFunction,
    GridMismatch,
    InvalidInput,
    NoRoot,
    RadialGrid,
    Unsupported,
    brent,
    load_profile,
    moments,
    require_same_grid,
    save_profile,
    strauss_decay_profile,
)


def test_grid_basic_layout():
    g = RadialGrid(2, 10.0, 100)
    assert g.spacing == 0.1
    assert g.r[0] == 0.0
    assert g.r[-1] == 10.0
    assert len(g.r) == 101
    assert g == RadialGrid(2, 10.0, 100)
    assert g != RadialGrid(3, 10.0, 100)


def test_grid_rejects_bad_parameters():
    with pytest.raises(InvalidInput):
        RadialGrid(4, 10.0, 100)
    with pytest.raises(InvalidInput):
        RadialGrid(2, -1.0, 100)
    with pytest.raises(InvalidInput):
        RadialGrid(2, 10.0, 1)


@pytest.mark.parametrize("dimension,measure", [
    (1, lambda R: 2.0 * R),
    (2, lambda R: math.pi * R**2),
    (3, lambda R: 4.0 * math.pi * R**3 / 3.0),
])
def test_weights_reproduce_domain_measure(dimension, measure):
    g = RadialGrid(dimension, 7.0, 173)
    assert np.isclose(g.weights.sum(), measure(7.0), rtol=1e-13, atol=0.0)


def test_weights_integrate_linear_r_exactly():
    # the product rule matches moments 1 and r on every cell, so any
    # piecewise-linear integrand is integrated exactly
    g = RadialGrid(3, 5.0, 91)
    exact = 4.0 * math.pi * 5.0**4 / 4.0
    assert np.isclose(np.sum(g.weights * g.r), exact, rtol=1e-13, atol=0.0)


def test_gaussian_l2_second_order_convergence(nl3):
    # int_0^R e^(-2 r^2) 2 pi r dr = (pi/2)(1 - e^(-2 R^2))
    R = 6.0
    exact = (math.pi / 2.0) * (1.0 - math.exp(-2.0 * R**2))
    errs = []
    for cells in (200, 400, 800):
        g = RadialGrid(2, R, cells)
        v = GridFunction.sample(g, lambda r: np.exp(-(r**2)))
        errs.append(abs(moments(v, nl3).l2 - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_grid_function_validation():
    g = RadialGrid(2, 10.0, 100)
    with pytest.raises(InvalidInput):
        GridFunction(g, np.ones(50))
    for not_numbers in (["x"] * 101, ["x"] * 50, [[1.0], [1.0, 2.0]]):
        with pytest.raises(InvalidInput):
            GridFunction(g, not_numbers)
    ends_nonzero = np.ones(101)
    with pytest.raises(InvalidInput):
        GridFunction(g, ends_nonzero)
    ok = np.ones(101)
    ok[-1] = 0.0
    f = GridFunction(g, ok)
    with pytest.raises(ValueError):
        f.values[3] = 7.0


def test_adopted_values_pass_the_same_checks():
    # the library's own constructor takes its arrays without a copy, and
    # refuses what GridFunction() refuses
    g = RadialGrid(2, 10.0, 100)
    bad_values = [np.ones(50), np.ones(101), np.full(101, np.nan), np.full(101, np.inf)]
    bad_values[2][-1] = bad_values[3][-1] = 0.0
    for values in bad_values:
        with pytest.raises(InvalidInput):
            GridFunction._adopt(g, values)
    values = np.ones(101)
    values[-1] = 0.0
    f = GridFunction._adopt(g, values)
    assert f.values is values
    with pytest.raises(ValueError):
        f.values[3] = 7.0


def test_dimension_one_allows_nonzero_endpoint():
    g = RadialGrid(1, 10.0, 100)
    f = GridFunction(g, np.ones(101))
    assert f.values[-1] == 1.0


def test_require_same_grid():
    a = GridFunction.zeros(RadialGrid(2, 10.0, 100))
    b = GridFunction.zeros(RadialGrid(2, 10.0, 200))
    with pytest.raises(GridMismatch):
        require_same_grid(a, b)


def test_gradient_of_constant_vanishes_in_dimension_one(nl3):
    g = RadialGrid(1, 5.0, 100)
    v = GridFunction(g, np.full(101, 2.5))
    assert moments(v, nl3).grad == 0.0


def test_complex_values_are_refused():
    # the paper's arguments run on real profiles; a zero imaginary part is no exception
    g = RadialGrid(2, 6.0, 600)
    vals = np.exp(-(g.r**2))
    vals[-1] = 0.0
    for cplx in (vals * (1.0 + 2.0j), vals + 0.0j, list(vals + 0.0j)):
        with pytest.raises(InvalidInput, match="must be real"):
            GridFunction(g, cplx)
    assert GridFunction(g, vals).values.dtype == float
    assert GridFunction(g, np.zeros(601, dtype=int)).values.dtype == float


def test_save_load_roundtrip(tmp_path):
    g = RadialGrid(2, 6.0, 97)
    v = GridFunction.sample(g, lambda r: np.exp(-r) * (1.0 - r / 6.0))
    path = tmp_path / "profile.csv"
    save_profile(path, v)
    w = load_profile(path)
    assert w.grid == g
    assert np.array_equal(w.values, v.values)


@st.composite
def real_profiles(draw):
    """A grid function on any supported grid with arbitrary finite real values."""
    dimension = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.integers(16, 128))
    grid = RadialGrid(dimension, draw(st.floats(1e-3, 1e6)), cells)
    values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=cells + 1, max_size=cells + 1)))
    if dimension >= 2:
        values[-1] = 0.0
    return GridFunction(grid, values)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(v=real_profiles())
def test_save_load_roundtrip_property(tmp_path, v):
    path = tmp_path / "profile.csv"
    save_profile(path, v)
    w = load_profile(path)
    assert w.grid == v.grid
    assert np.array_equal(w.values, v.values)


def test_save_profile_text_is_one_line_per_node(tmp_path):
    # chunked formatting writes what one f-string per row wrote, across chunk
    # ends and for signed zeros, subnormals and the float extremes
    g = RadialGrid(1, 7.0, 2 * radial_core.SAVE_CHUNK + 4)
    values = np.sin(np.arange(g.cells + 1.0)) * 1e3
    values[:5] = (-0.0, 5e-324, -1.7976931348623157e308, 1.0, 1 / 3)
    path = tmp_path / "profile.csv"
    save_profile(path, GridFunction(g, values))
    want = (f"# N=1 R=7 M={g.cells}\nr,value\n"
            + "".join(f"{r:.17g},{x:.17g}\n" for r, x in zip(g.r, values)))
    assert path.read_bytes() == want.encode()


def test_three_column_profile_is_refused(tmp_path):
    path = tmp_path / "profile_c.csv"
    g = RadialGrid(2, 6.0, 16)
    rows = "".join(f"{r:.17g},0,0\n" for r in g.r)
    path.write_text(f"# N=2 R=6 M=16\nr,re,im\n{rows}")
    with pytest.raises(InvalidInput, match="column layout"):
        load_profile(path)


def test_load_checks_the_r_column_against_the_header(tmp_path):
    # %.17g radii read back exactly on any grid; a doubled r column does not
    path = tmp_path / "profile.csv"
    for dimension, outer, cells in ((1, 1e-3, 16), (2, 40.0, 4000), (3, 1e6, 33)):
        g = RadialGrid(dimension, outer, cells)
        save_profile(path, GridFunction.sample(g, lambda r: np.exp(-((r / outer) ** 2))))
        assert np.array_equal(load_profile(path).grid.r, g.r)
    lines = path.read_text().splitlines()
    doubled = [f"{2.0 * float(r):.17g},{value}"
               for r, value in (line.split(",") for line in lines[2:])]
    path.write_text("\n".join(lines[:2] + doubled) + "\n")
    with pytest.raises(InvalidInput, match="r column"):
        load_profile(path)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,value\n0,1\n")
    with pytest.raises(InvalidInput):
        load_profile(path)


@pytest.mark.parametrize("header", ["# N=2 R=x M=10", "# N2 R=1 M=10", "# N=2 R=1"])
def test_load_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.csv"
    rows = "".join(f"{0.1 * i:.17g},0\n" for i in range(11))
    path.write_text(f"{header}\nr,value\n{rows}")
    with pytest.raises(InvalidInput, match="malformed grid header"):
        load_profile(path)


@pytest.mark.parametrize("bad_row", ["0.5,abc", "0.5,0,1", "0.5"])
def test_load_rejects_malformed_row(tmp_path, bad_row):
    # a non-numeric cell, a row with an extra cell, a row missing its value
    lines = [f"{0.25 * i:.17g},{math.exp(-0.25 * i):.17g}" for i in range(16)] + ["4,0"]
    lines[2] = bad_row
    path = tmp_path / "bad.csv"
    path.write_text("# N=2 R=4 M=16\nr,value\n" + "\n".join(lines) + "\n")
    with pytest.raises(InvalidInput, match="data row"):
        load_profile(path)


def test_strauss_profile_shape_and_bound(townes):
    ratios = strauss_decay_profile(townes.profile)
    assert ratios.shape == (townes.grid.cells - 1,)
    assert np.all(ratios <= 1.0)
    r = townes.grid.r[1:-1]
    tail = ratios[r >= 5.0]
    assert np.all(np.diff(tail) < 0.0)


def test_strauss_rejects_dimension_one(phi_1d):
    with pytest.raises(Unsupported):
        strauss_decay_profile(phi_1d.profile)


def test_grid_rejects_overflowing_measure():
    # R^N overflows outright, or only inside the weight moments (which
    # used to leave NaN weights behind)
    with np.errstate(all="ignore"):
        for dimension, outer in ((3, 1e300), (3, 1e102), (1, 1e308)):
            with pytest.raises(InvalidInput):
                RadialGrid(dimension, outer, 16)


@pytest.mark.parametrize("dimension, outer, cells", [
    (3, 1e-110, 100), (3, 1.2e-108, 16), (2, 1e-200, 4000),  # the measure is 0.0
    (3, 7.94328234724292e-77, 100000),  # the measure is normal, weights[0] is 0.0
    (1, 1e-305, 100000),  # subnormal weights, and 2/h overflows the operator's faces
])
def test_grid_rejects_underflowing_weights(dimension, outer, cells):
    # |sum w - measure| <= 1e-12 measure passed as 0 <= 0 on the first three,
    # and moments of exp(-(r/R)^2) on the first read Moments(0, 0, 0)
    with pytest.raises(InvalidInput, match=f"radius {outer!r} on {cells} cells underflows"):
        RadialGrid(dimension, outer, cells)


@pytest.mark.parametrize("dimension, outer, cells",
                         [(3, 3.98107170553492e-76, 100000), (2, 1e-102, 16), (1, 1e-300, 16)])
def test_grid_keeps_the_smallest_normal_weights(dimension, outer, cells):
    grid = RadialGrid(dimension, outer, cells)
    assert grid.weights.min() >= np.finfo(float).tiny


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe# N=2 R=4 M=16\nr,value\n")
    with pytest.raises(InvalidInput, match="UTF-8"):
        load_profile(path)


def test_load_checks_row_count_before_building_the_grid(tmp_path, monkeypatch):
    lines = [f"{0.25 * i:.17g},0" for i in range(17)]
    path = tmp_path / "huge.csv"
    path.write_text(f"# N=2 R=4 M={10**12}\nr,value\n" + "\n".join(lines) + "\n")

    def no_grid(*args):
        raise AssertionError(f"grid built for a header its rows contradict: {args}")

    monkeypatch.setattr(radial_core, "RadialGrid", no_grid)
    with pytest.raises(InvalidInput, match="rows"):
        load_profile(path)


def _load_or_reject(path, data):
    """Load raw bytes as a profile; InvalidInput is the only allowed failure."""
    path.write_bytes(bytes(data))
    try:
        v = load_profile(path)
    except InvalidInput:
        return
    assert v.values.shape == (v.grid.cells + 1,)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=600)
       | st.binary(max_size=600).map(lambda tail: b"# N=1 R=4 M=16\nr,value\n" + tail))
def test_load_fuzz_raw_bytes(tmp_path, data):
    _load_or_reject(tmp_path / "fuzz.csv", data)


TOKENS = [b",", b"\n", b"\r", b"=", b"#", b" ", b"nan", b"inf", b"1e400", b"-", b"j",
          b"\xff", b"\x00", b"M=17", b"R=0", b"N=4", b"r,re,im", b"0,0"]


@st.composite
def mutated_profiles(draw):
    """save_profile text of a random profile (M <= 64), then 1-3 edits."""
    dimension = draw(st.sampled_from([1, 2, 3]))
    grid = RadialGrid(dimension, draw(st.floats(0.5, 50.0)), draw(st.integers(16, 64)))
    values = draw(st.floats(-2.0, 2.0)) * np.exp(-grid.r**2)
    if dimension >= 2:
        values[-1] = 0.0
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "p.csv")
        save_profile(path, GridFunction(grid, values))
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "line"]))
        if kind == "delete":
            del data[i:i + draw(st.integers(1, 40))]
        elif kind == "insert":
            data[i:i] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=6))
        elif kind == "replace" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif kind == "line":
            lines = data.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = draw(st.sampled_from([[], [lines[k], lines[k]]]))
            data = bytearray(b"\n".join(lines))
    return data


@FUZZ
@given(data=mutated_profiles())
def test_load_fuzz_mutated_profiles(tmp_path, data):
    _load_or_reject(tmp_path / "fuzz.csv", data)


# -- root finder --------------------------------------------------------------

XTOL, RTOL = 1e-14, 8.9e-16  # the tolerances of project_to_constraint


def counted(f):
    """f with a call counter in its .calls attribute."""
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


@st.composite
def monotone_brackets(draw):
    """(f, lo, hi): a smooth strictly monotone f with a root inside, either end first."""
    root = draw(st.floats(-10.0, 10.0))
    slope = draw(st.floats(1e-3, 1e3))
    cubic = draw(st.floats(0.0, 1.0))
    scale = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-200, 200))
    shape = draw(st.sampled_from([
        lambda y: math.tanh(slope * y) + cubic * y**3,
        lambda y: math.atan(slope * y) + cubic * y,
        lambda y: y**3 + cubic * y,
    ]))
    lo = root - draw(st.floats(1e-6, 20.0))
    hi = root + draw(st.floats(1e-6, 20.0))
    if draw(st.booleans()):
        lo, hi = hi, lo
    return (lambda x: scale * shape(x - root)), lo, hi


@settings(max_examples=300, deadline=None)
@given(case=monotone_brackets())
def test_brent_matches_scipy_brentq(case):
    # same decision sequence as brentq.c: the same root to the bit, after
    # the same number of calls of f; a triple root can exhaust both
    f, lo, hi = case
    ours, theirs = counted(f), counted(f)
    try:
        expected = brentq(theirs, lo, hi, xtol=XTOL, rtol=RTOL)
    except RuntimeError:
        with pytest.raises(ConvergenceError):
            brent(ours, lo, hi, XTOL, RTOL)
    else:
        root = brent(ours, lo, hi, XTOL, RTOL)
        assert root == expected
        assert type(root) is float
    assert ours.calls == theirs.calls


@pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (5.0, 2.0), (-1.0, 2.0), (2.0, -1.0)])
def test_brent_returns_a_root_on_an_end(lo, hi):
    ours, theirs = counted(lambda x: x - 2.0), counted(lambda x: x - 2.0)
    assert brent(ours, lo, hi, XTOL, RTOL) == 2.0
    assert brentq(theirs, lo, hi, xtol=XTOL, rtol=RTOL) == 2.0
    assert ours.calls == theirs.calls == 2


def test_brent_raises_when_iterations_run_out():
    f = counted(lambda x: x**3 - 2.0)
    with pytest.raises(ConvergenceError, match="3 iterations"):
        brent(f, 0.0, 10.0, XTOL, RTOL, maxiter=3)
    assert f.calls == 5
    with pytest.raises(RuntimeError):  # scipy's bare error in the same place
        brentq(lambda x: x**3 - 2.0, 0.0, 10.0, xtol=XTOL, rtol=RTOL, maxiter=3)


@pytest.mark.parametrize("f", [
    lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,  # NaN inside the bracket
    lambda x: math.nan if x == 0.0 else x - 0.5,         # NaN on an end
    lambda x: x - 0.5 if x in (0.0, 1.0) else math.inf,
])
def test_brent_rejects_non_finite_values(f):
    with pytest.raises(ConvergenceError, match="not finite"):
        brent(f, 0.0, 1.0, XTOL, RTOL)


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: -1.0 - x * x])
def test_brent_needs_a_sign_change(f):
    with pytest.raises(NoRoot):
        brent(f, -1.0, 2.0, XTOL, RTOL)
