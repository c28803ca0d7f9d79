"""Nonlinearities, scaling exponents, and the variational functionals.

The stationary problem is -Delta(v) = g(v), the Euler-Lagrange equation
of the action

    S(v) = (1/2) ||grad v||^2 - int G(v),

with G' = g.  Each nonlinearity carries g, G and its mass m0 = -g'(0),
and every consumer reads them there: the power family's
g(s) = -m0 s + |s|^(p-1) s, m0 = 1 - omega^2, is written only in PowerKG.
Rescalings v_lambda(x) = lambda^alpha v(lambda^beta x) differentiate the
action into the two-parameter constraint functional K_{alpha,beta};
admissible exponent pairs split into an interior region and its limit
boundary, classified here with exact comparisons.

Every functional is a linear form in three moments of v, the squared
gradient and L2 norms and the potential integral, so the moments are
computed once (`moments`, which records the nonlinearity and dimension
they belong to) and each form is written once, on `Moments`: S is
`moments(v, nl).action()`, K_{alpha,beta} is `.constraint(se)`, and so on.
Along a ray the moments scale by the powers `ray_exponents` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import (
    InvalidInput,
    InvalidMass,
    NoRoot,
    NumericalOverflow,
    Unsupported,
)
from .radial_core import GridFunction, _derivative_kernel, _integral

# GeneralG checks g = G' by a centred difference of G at these points
G_PRIME_POINTS = np.array([0.25, 0.5, 1.0, 1.5])
G_PRIME_STEP = 1e-5
G_PRIME_TOL = 1e-6
# |K| <= tol * ||v||_H1^2 counts as "on the constraint": for the Nehari and
# Pohozaev residuals of a validated ground state and for a path's profile
CONSTRAINT_TOL = 1e-3

INTERIOR = "Interior"
LIMIT = "Limit"
INVALID = "Invalid"


def _abs_power(x, q: float, out=None, square=None):
    """|x|^q on floats and arrays, into the array out if given: |x| at q = 1,
    which pow returns exactly, x * x at q = 2, as numpy's pow squares, and
    (x * x) * (x * x) at q = 4, within 3 ulps of pow; pow at any other q.  A
    caller that already holds x * x passes it as square, and q = 4 squares
    it rather than forming it again."""
    if q == 1.0:
        return abs(x) if out is None else np.abs(x, out=out)
    if q != 2.0 and q != 4.0:
        return abs(x) ** q if out is None else np.power(np.abs(x, out=out), q, out=out)
    if q == 4.0 and square is not None:
        return np.multiply(square, square, out=out)
    s = x * x if out is None else np.multiply(x, x, out=out)
    if q == 4.0:
        s *= s
    return s


@dataclass(frozen=True)
class PowerKG:
    """Power nonlinearity g(s) = -m0 s + |s|^(p-1) s with frequency omega.

    The frequency enters only through the mass m0 = 1 - omega^2 of the
    stationary equation; |omega| < 1 keeps the mass positive.  g, its
    derivative dg and its primitive G are plain closures, callable on
    floats and numpy arrays; dg and G take |s|^q from _abs_power, and g,
    the shooting march's inner call, writes it out: s * s * s at p = 3.
    """

    p: float
    omega: float = 0.0
    g: Callable = field(init=False, repr=False, compare=False)
    dg: Callable = field(init=False, repr=False, compare=False)
    G: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1):
            raise InvalidInput(f"power must satisfy p > 1, got {self.p!r}")
        if not (math.isfinite(self.omega) and abs(self.omega) < 1):
            raise InvalidMass(f"frequency must satisfy |omega| < 1, got {self.omega!r}")
        p, m0, neg_m0, pm1, pp1 = self.p, self.mass, -self.mass, self.p - 1.0, self.p + 1.0

        if pm1 == 2.0:
            def g(s):
                return neg_m0 * s + s * s * s
        else:
            def g(s):
                return neg_m0 * s + abs(s) ** pm1 * s

        def dg(s):
            return neg_m0 + p * _abs_power(s, pm1)

        def big_g(s):
            return -0.5 * m0 * s**2 + _abs_power(s, pp1) / pp1

        object.__setattr__(self, "g", g)
        object.__setattr__(self, "dg", dg)
        object.__setattr__(self, "G", big_g)

    def __reduce__(self):
        # the closures do not pickle; rebuild them from (p, omega)
        return PowerKG, (self.p, self.omega)

    @property
    def mass(self) -> float:
        return 1.0 - self.omega**2


@dataclass(frozen=True)
class GeneralG:
    """General nonlinearity given by g, its primitive G, and mass rho.

    G must vanish at 0 and behave like -(rho/2) s^2 near 0, and g must be
    its derivative; all three are checked numerically at construction
    (G near 0 at s = 1e-3, 1e-4, 1e-5; g against a centred difference of G
    at G_PRIME_POINTS).  Shooting marches with g and exits on the sign of
    an energy built from G, so an inconsistent pair would mislabel shots
    silently.  Shooting calls g on floats, the quadratures and the flow
    call g and G on numpy arrays; the callables must accept both.  dg,
    the derivative of g for the series start, is a centred difference.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    rho: float
    dg: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InvalidMass(f"mass must be positive, got {self.rho!r}")
        g0 = float(self.G(np.array(0.0)))
        if g0 != 0.0:
            raise InvalidInput(f"G(0) must vanish, got {g0!r}")
        prev = None
        for s in (1e-3, 1e-4, 1e-5):
            ratio = abs(float(self.G(np.array(s))) + 0.5 * self.rho * s * s) / (s * s)
            if prev is not None and ratio > 0.5 * prev + 1e-12:
                raise InvalidInput(
                    "G(s) + (rho/2) s^2 does not vanish faster than s^2 near 0")
            prev = ratio
        s = G_PRIME_POINTS
        slope = (self.G(s + G_PRIME_STEP) - self.G(s - G_PRIME_STEP)) / (2.0 * G_PRIME_STEP)
        gs = self.g(s)
        if not np.all(np.abs(gs - slope) <= G_PRIME_TOL * np.maximum(1.0, np.abs(gs))):
            raise InvalidInput("g is not the derivative of G")

        def dg(s):
            return (self.g(s + G_PRIME_STEP) - self.g(s - G_PRIME_STEP)) / (2.0 * G_PRIME_STEP)

        object.__setattr__(self, "dg", dg)

    @property
    def mass(self) -> float:
        return self.rho


Nonlinearity = Union[PowerKG, GeneralG]


def check_subcritical(p: float, dimension: int) -> None:
    """Reject energy-supercritical powers (p >= 1 + 4/(N-2) for N = 3)."""
    if dimension == 3 and p >= 5.0:
        raise InvalidInput(f"p = {p} is not subcritical in dimension 3")


@dataclass(frozen=True)
class ScalingExponents:
    """Exponent pair (alpha, beta) of the rescaling lambda^alpha v(lambda^beta x).

    Its region depends on the power and the dimension as well; ask
    classify_exponents.
    """

    alpha: float
    beta: float


AMPLITUDE_RAY = ScalingExponents(1.0, 0.0)


def ray_exponents(alpha: float, beta: float, p: float,
                  dimension: int) -> tuple[float, float, float]:
    """Powers of lambda by which (||grad v||^2, ||v||^2, ||v||_{p+1}^{p+1})
    scale along v_lambda = lambda^a v(lambda^b x): 2a - b(N-2), 2a - bN and
    a(p+1) - bN, with (a, b) = (alpha, beta)."""
    return (2.0 * alpha - beta * (dimension - 2),
            2.0 * alpha - beta * dimension,
            alpha * (p + 1.0) - beta * dimension)


def classify_exponents(alpha: float, beta: float, p: float, dimension: int) -> str:
    """Region (INTERIOR, LIMIT or INVALID) of an exponent pair for the power p
    in the given dimension.

    Interior:  beta < 0,  alpha (p-1) - 2 beta >= 0,  2 alpha - beta (N-2) > 0
           or  beta >= 0, alpha (p-1) - 2 beta >= 0,  2 alpha - beta N > 0.
    Limit: same families with the strict inequality degenerating to
    equality (beta != 0).  The conditions compare ray exponents (alpha (p-1)
    - 2 beta is the power one minus the gradient one), so an interior pair
    scales all three moments by positive powers.  Comparisons are exact;
    callers who need fuzz must round their exponents first.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidInput("exponents must be finite")
    if not (math.isfinite(p) and p > 1):
        raise InvalidInput(f"power must satisfy p > 1, got {p!r}")
    if dimension not in (1, 2, 3):
        raise InvalidInput(f"dimension must be 1, 2, or 3, got {dimension!r}")
    grad_exp, mass_exp, pot_exp = ray_exponents(alpha, beta, p, dimension)
    if pot_exp >= grad_exp:
        if beta < 0 and grad_exp > 0 or beta >= 0 and mass_exp > 0:
            return INTERIOR
        if beta < 0 and grad_exp == 0 or beta > 0 and mass_exp == 0:
            return LIMIT
    return INVALID


class Moments(NamedTuple):
    """The three integrals every functional here is a linear form in, with
    the nonlinearity and the dimension they were taken for.

    grad = ||grad v||^2 and l2 = ||v||^2; pot = ||v||_{p+1}^{p+1} for the
    power family and int G(|v|) for a general nonlinearity.  The forms read
    nl and dimension from here, so no form can be asked with another
    nonlinearity than the moments were built for.
    """

    grad: float
    l2: float
    pot: float
    nl: Nonlinearity
    dimension: int

    @property
    def h1(self) -> float:
        """||v||_H1^2 = ||v||^2 + ||grad v||^2."""
        return self.l2 + self.grad

    @property
    def kinetic(self) -> float:
        """T = (1/2) ||grad v||^2."""
        return 0.5 * self.grad

    def potential(self) -> float:
        """P = int G(v) = -(m0/2) ||v||^2 + ||v||_{p+1}^{p+1} / (p+1) for the power family."""
        nl = self.nl
        if isinstance(nl, PowerKG):
            return -0.5 * nl.mass * self.l2 + self.pot / (nl.p + 1.0)
        return self.pot

    def action(self) -> float:
        """S = T - P; for the power family the three-term form
        (1/2)||grad v||^2 + (m0/2)||v||^2 - ||v||_{p+1}^{p+1} / (p+1)."""
        nl = self.nl
        if isinstance(nl, PowerKG):
            return 0.5 * self.grad + 0.5 * nl.mass * self.l2 - self.pot / (nl.p + 1.0)
        return self.kinetic - self.pot

    def constraint(self, se: ScalingExponents) -> float:
        """K_{alpha,beta} = d/dlambda S(v_lambda) at lambda = 1 (power family only).

        With (a, b, c) the ray exponents this is
        (a/2) ||grad v||^2 + (b m0 / 2) ||v||^2 - (c/(p+1)) ||v||_{p+1}^{p+1}
        for any pair, admissible or not.  The last term divides
        c ||v||_{p+1}^{p+1} by p+1 the way `potential` divides ||v||_{p+1}^{p+1},
        so in dimension 2 K_{0,-1} = -2 P holds bit for bit.
        """
        nl = self.nl
        if not isinstance(nl, PowerKG):
            raise Unsupported("the scaling constraint is implemented for the power family only")
        a, b, c = ray_exponents(se.alpha, se.beta, nl.p, self.dimension)
        return 0.5 * a * self.grad + 0.5 * b * nl.mass * self.l2 - c * self.pot / (nl.p + 1.0)

    def amplitude_root(self, se: ScalingExponents) -> float:
        """The lambda > 0 with K_{alpha,beta}(lambda v) = 0 (power family only):
        K(lambda v) = lambda^2 Q - lambda^(p+1) W, Q the gradient and L2 terms
        of K and W minus its potential term, so lambda = (Q/W)^(1/(p-1)) (Willem
        1996, ch. 4).  NoRoot unless Q/W and the root are positive and finite."""
        quad = self._replace(pot=0.0).constraint(se)
        power = -self._replace(grad=0.0, l2=0.0).constraint(se)
        ratio = quad / power if power != 0.0 else math.nan
        try:
            lam = ratio ** (1.0 / (self.nl.p - 1.0)) if ratio > 0.0 else math.nan
        except OverflowError:
            lam = math.inf
        if not 0.0 < lam < math.inf:
            raise NoRoot(f"K_({se.alpha:g},{se.beta:g}) has no root along the amplitude ray")
        return lam

    def nehari(self) -> float:
        """K_{1,0}, the amplitude-scaling (Nehari) constraint."""
        return self.constraint(AMPLITUDE_RAY)

    def pohozaev_residual(self) -> float:
        """((N-2)/2) ||grad v||^2 - N P; vanishes at solutions."""
        n = self.dimension
        return 0.5 * (n - 2) * self.grad - n * self.potential()

    def scaled(self, lam: float | np.ndarray, se: ScalingExponents) -> "Moments":
        """Exact moments of lambda^alpha v(lambda^beta x) on the whole space,
        elementwise over an array of lam.  For a general g, int G(v) is a
        power of lambda only along a dilation (alpha = 0), where p drops out
        of the powers; any other ray raises Unsupported."""
        nl = self.nl
        power = isinstance(nl, PowerKG)
        if not power and se.alpha != 0.0:
            raise Unsupported("scaled moments of a general g are implemented for dilations only")
        a, b, c = ray_exponents(se.alpha, se.beta, nl.p if power else 2.0, self.dimension)
        return Moments(self.grad * lam**a, self.l2 * lam**b, self.pot * lam**c,
                       nl, self.dimension)


def moments(v: GridFunction, nl: Nonlinearity) -> Moments:
    """The gradient, L2 and potential moments of v, tagged with nl and v's
    dimension; every functional is a form on them.  G is evaluated on |v|,
    so a sign-changing v has the potential moment of its modulus.

    Each moment is the weighted sum (weights * density).sum(), and the
    densities are formed in place in two rows: u * u, which |u|^4 at p = 3
    takes as well, then the derivative; and a scratch row for the weighted
    products.  The potential comes first, so an overflow raises before the
    other two are taken."""
    values, grid = v.values, v.grid
    work = np.empty_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        uu = np.multiply(values, values)
        if isinstance(nl, PowerKG):
            density = _abs_power(values, nl.p + 1.0, work, uu)
        else:
            density = nl.G(np.abs(values))
        pot = _integral(density, grid, work)
    if not math.isfinite(pot):
        raise NumericalOverflow("the potential moment left the representable range")
    l2 = _integral(uu, grid, work)
    d = _derivative_kernel(values, grid, uu)
    grad = _integral(np.multiply(d, d, out=d), grid, d)
    return Moments(grad, l2, pot, nl, grid.dimension)


def flow_nonlinearity(nl: Nonlinearity) -> Nonlinearity:
    """The nonlinearity the time integrator uses.

    The evolution convention fixes unit mass for the power family, so the
    flow of PowerKG(p, omega) is PowerKG(p): a frequency-omega profile
    could supply initial data while the flow itself never sees omega.
    """
    return PowerKG(nl.p) if isinstance(nl, PowerKG) else nl
