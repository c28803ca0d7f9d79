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
computed once (`moments`) and each form is written once, on `Moments`.
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
    NumericalOverflow,
    Unsupported,
)
from .radial_core import (
    GridFunction,
    grad_norm_sq,
    l2_norm_sq,
    require_same_grid,
)

# GeneralG checks g = G' by a centred difference of G at these points
G_PRIME_POINTS = np.array([0.25, 0.5, 1.0, 1.5])
G_PRIME_STEP = 1e-5
G_PRIME_TOL = 1e-6

INTERIOR = "Interior"
LIMIT = "Limit"
INVALID = "Invalid"


@dataclass(frozen=True)
class PowerKG:
    """Power nonlinearity g(s) = -m0 s + |s|^(p-1) s with frequency omega.

    The frequency enters only through the mass m0 = 1 - omega^2 of the
    stationary equation; |omega| < 1 keeps the mass positive.  g, its
    derivative dg and its primitive G are plain closures, callable on
    floats and numpy arrays.
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
        p, m0, pm1, pp1 = self.p, self.mass, self.p - 1.0, self.p + 1.0
        neg_m0 = -m0

        def g(s):
            return neg_m0 * s + abs(s) ** pm1 * s

        def dg(s):
            return neg_m0 + p * abs(s) ** pm1

        def big_g(s):
            return -0.5 * m0 * s**2 + abs(s) ** pp1 / pp1

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

# pure mass term: the linear Klein-Gordon limit, handy for evolution checks
LINEAR_KG = GeneralG(
    name="linear_kg",
    g=lambda s: -s,
    G=lambda s: -0.5 * s**2,
    rho=1.0,
)


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


def power_integral(v: GridFunction, q: float) -> float:
    """int |v|^q against the radial measure (q > 0; exp/log path of numpy pow)."""
    if q <= 0:
        raise InvalidInput(f"exponent must be positive, got {q!r}")
    with np.errstate(over="ignore"):
        out = float(np.sum(v.grid.weights * np.abs(v.values) ** q))
    if not math.isfinite(out):
        raise NumericalOverflow("power integral left the representable range")
    return out


class Moments(NamedTuple):
    """The three integrals every functional here is a linear form in.

    grad = ||grad v||^2 and l2 = ||v||^2; pot = ||v||_{p+1}^{p+1} for the
    power family and int G(|v|) for a general nonlinearity.  The forms take
    the nonlinearity the moments were built for (and N where they need it).
    """

    grad: float
    l2: float
    pot: float

    @property
    def h1(self) -> float:
        """||v||_H1^2 = ||v||^2 + ||grad v||^2."""
        return self.l2 + self.grad

    @property
    def kinetic(self) -> float:
        """T = (1/2) ||grad v||^2."""
        return 0.5 * self.grad

    def potential(self, nl: Nonlinearity) -> float:
        """P = int G(v) = -(m0/2) ||v||^2 + ||v||_{p+1}^{p+1} / (p+1) for the power family."""
        if isinstance(nl, PowerKG):
            return -0.5 * nl.mass * self.l2 + self.pot / (nl.p + 1.0)
        return self.pot

    def action(self, nl: Nonlinearity) -> float:
        """S = T - P; for the power family the three-term form
        (1/2)||grad v||^2 + (m0/2)||v||^2 - ||v||_{p+1}^{p+1} / (p+1)."""
        if isinstance(nl, PowerKG):
            return 0.5 * self.grad + 0.5 * nl.mass * self.l2 - self.pot / (nl.p + 1.0)
        return self.kinetic - self.pot

    def constraint(self, nl: Nonlinearity, se: ScalingExponents, dimension: int) -> float:
        """K_{alpha,beta} = d/dlambda S(v_lambda) at lambda = 1 (power family only).

        With (a, b, c) the ray exponents this is
        (a/2) ||grad v||^2 + (b m0 / 2) ||v||^2 - (c/(p+1)) ||v||_{p+1}^{p+1}
        for any pair, admissible or not.  The last term divides
        c ||v||_{p+1}^{p+1} by p+1 the way `potential` divides ||v||_{p+1}^{p+1},
        so in dimension 2 K_{0,-1} = -2 P holds bit for bit.
        """
        if not isinstance(nl, PowerKG):
            raise Unsupported("the scaling constraint is implemented for the power family only")
        a, b, c = ray_exponents(se.alpha, se.beta, nl.p, dimension)
        return 0.5 * a * self.grad + 0.5 * b * nl.mass * self.l2 - c * self.pot / (nl.p + 1.0)

    def nehari(self, nl: Nonlinearity) -> float:
        """K_{1,0}; the dimension drops out of the amplitude ray's exponents."""
        return self.constraint(nl, AMPLITUDE_RAY, 1)

    def pohozaev_residual(self, nl: Nonlinearity, dimension: int) -> float:
        """((N-2)/2) ||grad v||^2 - N P; vanishes at solutions."""
        return 0.5 * (dimension - 2) * self.grad - dimension * self.potential(nl)

    def scaled(self, lam: float | np.ndarray, se: ScalingExponents, nl: Nonlinearity,
               dimension: int) -> "Moments":
        """Exact moments of lambda^alpha v(lambda^beta x) on the whole space,
        elementwise over an array of lam (power family only: int G(v) of a
        general g is no power of lambda)."""
        if not isinstance(nl, PowerKG):
            raise Unsupported("scaled moments are implemented for the power family only")
        a, b, c = ray_exponents(se.alpha, se.beta, nl.p, dimension)
        return Moments(self.grad * lam**a, self.l2 * lam**b, self.pot * lam**c)


def moments(v: GridFunction, nl: Nonlinearity) -> Moments:
    """The gradient, L2 and potential moments of v (on |v| for complex v)."""
    if isinstance(nl, PowerKG):
        pot = power_integral(v, nl.p + 1.0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            pot = float(np.sum(v.grid.weights * nl.G(np.abs(v.values))))
        if not math.isfinite(pot):
            raise NumericalOverflow("int G(v) left the representable range")
    return Moments(grad_norm_sq(v), l2_norm_sq(v), pot)


def pohozaev_P(v: GridFunction, nl: Nonlinearity) -> float:
    """P(v) = int G(v) dx, evaluated on |v| for complex inputs."""
    return moments(v, nl).potential(nl)


def kinetic_T(v: GridFunction) -> float:
    """T(v) = (1/2) ||grad v||^2; needs the gradient moment only."""
    return Moments(grad_norm_sq(v), 0.0, 0.0).kinetic


def action_S(v: GridFunction, nl: Nonlinearity) -> float:
    """S(v) = (1/2) ||grad v||^2 - int G(v)."""
    return moments(v, nl).action(nl)


def constraint_K(v: GridFunction, nl: Nonlinearity, se: ScalingExponents) -> float:
    """K_{alpha,beta}(v): derivative of S along the (alpha, beta) rescaling
    (power family only; closed form in Moments.constraint)."""
    return moments(v, nl).constraint(nl, se, v.grid.dimension)


def nehari_K(v: GridFunction, nl: Nonlinearity) -> float:
    """K_{1,0}(v): the amplitude-scaling (Nehari) constraint value."""
    return moments(v, nl).nehari(nl)


def pohozaev_residual(v: GridFunction, nl: Nonlinearity) -> float:
    """((N-2)/2) ||grad v||^2 - N int G(v); vanishes at solutions."""
    return moments(v, nl).pohozaev_residual(nl, v.grid.dimension)


def energy_E(u: GridFunction, v: GridFunction, nl: Nonlinearity) -> float:
    """E(u, v) = (1/2) ||v||^2 + S(u); conserved by the flow.

    Matches action_S(u) bit for bit when v vanishes because it is
    computed as that sum.
    """
    require_same_grid(u, v)
    return 0.5 * l2_norm_sq(v) + action_S(u, nl)


def flow_nonlinearity(nl: Nonlinearity) -> Nonlinearity:
    """The nonlinearity the time integrator uses.

    The evolution convention fixes unit mass for the power family, so the
    flow of PowerKG(p, omega) is PowerKG(p): a frequency-omega profile
    could supply initial data while the flow itself never sees omega.
    """
    return PowerKG(nl.p) if isinstance(nl, PowerKG) else nl
