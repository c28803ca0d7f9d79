"""Radial grids, measure-weighted quadrature, and a root finder.

Everything downstream works with radially symmetric functions on a
truncated domain: a uniform grid on [0, R] whose quadrature weights fold
in the surface measure of the sphere in dimension N.  Dimension 1 means
even functions on the symmetric interval [-R, R], and the weights count
both half-lines.  The scalar root finder (brent) of the constraint
projections lives here too.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, GridMismatch, InvalidInput, NoRoot, Unsupported

SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
SAVE_CHUNK = 256  # rows save_profile formats in one operation; formatting the
                  # whole table at once raised the peak RSS


class RadialGrid:
    """Uniform radial grid with per-node quadrature weights.

    For N >= 2 the weights come from the linear-interpolant product rule
    for the measure omega_{N-1} r^(N-1) dr: integrating sampled values
    against the weights equals integrating the piecewise-linear
    interpolant exactly.  The rule is second order and reproduces the
    measure of the truncated ball to machine precision in every supported
    dimension (plain trapezoid in r would not for N = 3).  For N = 1 the
    weights are the symmetric full-line trapezoid weights on [-R, R].

    Parameters
    ----------
    dimension : int
        Spatial dimension, 1 to 3.
    outer_radius : float
        Truncation radius R.
    cells : int
        Number of cells M; the grid has M + 1 nodes and spacing R / M.
    """

    __slots__ = ("dimension", "outer_radius", "cells", "spacing", "r", "weights")

    def __init__(self, dimension: int, outer_radius: float, cells: int):
        if dimension not in (1, 2, 3):
            raise InvalidInput(f"dimension must be 1, 2, or 3, got {dimension!r}")
        if not (isinstance(outer_radius, (int, float)) and math.isfinite(outer_radius)
                and outer_radius > 0):
            raise InvalidInput(f"outer radius must be a positive finite number, got {outer_radius!r}")
        if int(cells) != cells or cells < 16:
            raise InvalidInput(f"need at least 16 cells, got {cells!r}")
        self.dimension = int(dimension)
        self.outer_radius = float(outer_radius)
        self.cells = int(cells)
        self.spacing = self.outer_radius / self.cells
        try:
            measure = self.domain_measure()
        except OverflowError:
            raise InvalidInput(f"radius {outer_radius!r} overflows the domain measure") from None
        self.r = np.linspace(0.0, self.outer_radius, self.cells + 1)
        self.weights = self._build_weights()
        if self.weights.min() < sys.float_info.min:  # 0 <= 1e-12 * 0 would pass below
            raise InvalidInput(f"radius {outer_radius!r} on {self.cells} cells underflows "
                               "the quadrature weights")
        self.r.setflags(write=False)
        self.weights.setflags(write=False)
        if not abs(float(self.weights.sum()) - measure) <= 1e-12 * measure:
            raise InvalidInput("quadrature weights fail to reproduce the domain measure")

    def _build_weights(self) -> np.ndarray:
        n = self.dimension
        if n == 1:
            w = np.full(self.cells + 1, 2.0 * self.spacing)
            w[0] = self.spacing
            w[-1] = self.spacing
            return w
        # cell moments of r^(N-1): exact for piecewise-linear integrands
        a = self.r[:-1]
        b = self.r[1:]
        m0 = (b**n - a**n) / n
        m1 = (b ** (n + 1) - a ** (n + 1)) / (n + 1)
        w = np.zeros(self.cells + 1)
        w[:-1] += (b * m0 - m1) / self.spacing
        w[1:] += (m1 - a * m0) / self.spacing
        return SPHERE_SURFACE[n] * w

    def domain_measure(self) -> float:
        """Measure of the truncated domain ([-R, R] for N = 1, ball of radius R else)."""
        if self.dimension == 1:
            return 2.0 * self.outer_radius
        return SPHERE_SURFACE[self.dimension] * self.outer_radius**self.dimension / self.dimension

    def __eq__(self, other) -> bool:
        return (isinstance(other, RadialGrid)
                and self.dimension == other.dimension
                and self.outer_radius == other.outer_radius
                and self.cells == other.cells)

    def __hash__(self) -> int:
        return hash((self.dimension, self.outer_radius, self.cells))

    def __repr__(self) -> str:
        return f"RadialGrid(N={self.dimension}, R={self.outer_radius}, M={self.cells})"


class GridFunction:
    """Sampled radial function: node values tied to a grid.

    Values must be real and finite.  For N >= 2 the outer boundary node
    must be exactly zero (Dirichlet truncation).
    Instances are immutable; build modified copies through module
    functions rather than mutating values in place.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: RadialGrid, values: np.ndarray):
        try:
            values = np.asarray(values)
            if values.dtype.kind == "c":
                raise InvalidInput("grid function values must be real")
            values = values.astype(float)
        except (TypeError, ValueError):
            # ragged nesting, or entries that are not numbers
            raise InvalidInput("grid function values must be real numbers") from None
        self._own(grid, values)

    @classmethod
    def _adopt(cls, grid: RadialGrid, values: np.ndarray) -> "GridFunction":
        """A GridFunction that takes values, a float array the library has
        just made and holds no other reference to, without the copy
        __init__ makes; every check of __init__ still runs."""
        v = cls.__new__(cls)
        v._own(grid, values)
        return v

    def _own(self, grid: RadialGrid, values: np.ndarray) -> None:
        if values.shape != grid.r.shape:
            raise InvalidInput(f"expected {grid.r.shape[0]} node values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise InvalidInput("node values must be finite")
        if grid.dimension >= 2 and values[-1] != 0.0:
            raise InvalidInput("outer boundary node must be exactly zero for N >= 2")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def sample(cls, grid: RadialGrid, fn) -> "GridFunction":
        """Sample a callable on the nodes, zeroing the boundary node for N >= 2."""
        vals = np.asarray(fn(grid.r))
        if grid.dimension >= 2:
            vals = vals.copy()
            vals[-1] = 0.0
        return cls(grid, vals)

    @classmethod
    def zeros(cls, grid: RadialGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.cells + 1))

    def __repr__(self) -> str:
        return f"GridFunction({self.grid!r}, max|v|={np.abs(self.values).max():.6g})"


def require_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.grid != v.grid:
        raise GridMismatch(f"operands on different grids: {u.grid!r} vs {v.grid!r}")


def _integral(density: np.ndarray, grid: RadialGrid, out: np.ndarray | None = None) -> float:
    """The quadrature of density, the weighted sum; the weighted density is
    written into out when given (density itself may be out)."""
    return float(np.multiply(grid.weights, density, out=out).sum())


def _derivative_kernel(values: np.ndarray, grid: RadialGrid,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The radial derivative of values, into out when given: centered
    differences; even symmetry forces v'(0) = 0 and the outer endpoint falls
    back to a one-sided difference."""
    h = grid.spacing
    d = np.empty_like(values) if out is None else out
    d[0] = 0.0
    inner = np.subtract(values[2:], values[:-2], out=d[1:-1])
    np.divide(inner, 2.0 * h, out=inner)
    d[-1] = (values[-1] - values[-2]) / h
    return d


def strauss_decay_profile(v: GridFunction) -> np.ndarray:
    """Pointwise radial decay ratios r^((N-1)/2) |v(r)| / ||v||_H1.

    Returns the ratio at the interior nodes (aligned with grid.r[1:-1]).
    Radial H1 functions in N >= 2 obey a uniform bound on this quantity,
    so decaying profiles give a sequence that is eventually decreasing
    while plateau-like functions give a growing one.
    """
    if v.grid.dimension == 1:
        raise Unsupported("decay ratios are defined for N >= 2 only")
    d = _derivative_kernel(v.values, v.grid)
    h1 = _integral(v.values * v.values, v.grid) + _integral(np.multiply(d, d, out=d), v.grid)
    if h1 == 0.0:
        raise InvalidInput("zero function has no decay profile")
    r = v.grid.r[1:-1]
    expo = 0.5 * (v.grid.dimension - 1)
    return r**expo * np.abs(v.values[1:-1]) / math.sqrt(h1)


def save_profile(path, v: GridFunction) -> None:
    """Write a grid function as CSV with a reconstruction header.

    Layout: a `# N=.. R=.. M=..` comment line, a column-name row, then
    one row per node, with the columns r and value.
    """
    g = v.grid
    with open(path, "w", newline="\n") as f:
        f.write(f"# N={g.dimension} R={g.outer_radius:.17g} M={g.cells}\n")
        f.write("r,value\n")
        for start in range(0, g.cells + 1, SAVE_CHUNK):
            rows = zip(g.r[start:start + SAVE_CHUNK].tolist(),
                       v.values[start:start + SAVE_CHUNK].tolist())
            cells = tuple(cell for row in rows for cell in row)
            f.write("%.17g,%.17g\n" * (len(cells) // 2) % cells)


def load_profile(path) -> GridFunction:
    """Read a grid function written by save_profile.

    Anything else raises InvalidInput: bytes that are not UTF-8, a
    malformed header or data row, a row count other than the header's
    M + 1, which is checked before the grid is built, or an r column more
    than 1e-12 R away from the header's grid (save_profile's %.17g radii
    read back exactly).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            lines = [line.strip() for line in f]
    except UnicodeDecodeError:
        raise InvalidInput(f"{path} is not UTF-8 text") from None
    header = lines[0] if lines else ""
    if not header.startswith("#"):
        raise InvalidInput(f"missing grid header in {path}")
    try:
        fields = dict(part.split("=") for part in header[1:].split())
        dimension, outer, cells = int(fields["N"]), float(fields["R"]), int(fields["M"])
    except (KeyError, ValueError):
        raise InvalidInput(f"malformed grid header {header!r} in {path}") from None
    rows = [line.split(",") for line in lines[2:] if line]
    if len(rows) != cells + 1:
        raise InvalidInput(f"expected {cells + 1} rows, got {len(rows)}")
    grid = RadialGrid(dimension, outer, cells)
    columns = lines[1].split(",")
    if columns != ["r", "value"]:
        raise InvalidInput(f"unrecognized column layout {columns!r}")
    try:
        # a non-numeric cell, or rows of unequal length
        table = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError:
        raise InvalidInput(f"malformed data row in {path}") from None
    if table.shape[1] != len(columns):
        raise InvalidInput(f"data rows of {path} have {table.shape[1]} cells, "
                           f"expected {len(columns)}")
    if not np.all(np.abs(table[:, 0] - grid.r) <= 1e-12 * grid.outer_radius):
        raise InvalidInput(f"r column of {path} does not lie on the header's grid")
    return GridFunction(grid, table[:, 1])


def brent(f, lo: float, hi: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f between lo and hi by Brent's method (Brent 1973, ch. 4).

    Either end may come first.  The steps follow the decision sequence of
    scipy's brentq.c, so with the same tolerances the iterates are the
    same floats and f is called as often: a root on an end is returned
    as is, and otherwise the result x satisfies |x - x*| <= xtol +
    rtol |x| for a sign change x* of f.  NoRoot when f(lo) and f(hi) are
    nonzero and of one sign; ConvergenceError when f returns a
    non-finite value or maxiter iterations pass without convergence.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if not math.isfinite(fx):
            raise ConvergenceError(f"root finder: f({x!r}) = {fx!r} is not finite")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRoot(f"f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to inf or NaN, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"root finder did not converge in {maxiter} iterations "
                           f"(last iterate {xcur!r})")
