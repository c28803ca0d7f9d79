"""Nonlinearities, scaling exponents, and the variational functionals.

The stationary problem is -Delta(v) + (1 - omega^2) v = |v|^(p-1) v, the
Euler-Lagrange equation of the action

    S(v) = (1/2) ||grad v||^2 - int G(v),

with G(s) = -(m0/2) s^2 + |s|^(p+1)/(p+1) and m0 = 1 - omega^2 for the
power family.  Rescalings v_lambda(x) = lambda^alpha v(lambda^beta x)
differentiate the action into the two-parameter constraint functional
K_{alpha,beta}; admissible exponent pairs split into an interior region
and its limit boundary, classified here with exact comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

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

INTERIOR = "Interior"
LIMIT = "Limit"
INVALID = "Invalid"


@dataclass(frozen=True)
class PowerKG:
    """Power nonlinearity |s|^(p-1) s with frequency parameter omega.

    The frequency enters only through the mass m0 = 1 - omega^2 of the
    stationary equation; |omega| < 1 keeps the mass positive.
    """

    p: float
    omega: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1):
            raise InvalidInput(f"power must satisfy p > 1, got {self.p!r}")
        if not (math.isfinite(self.omega) and abs(self.omega) < 1):
            raise InvalidMass(f"frequency must satisfy |omega| < 1, got {self.omega!r}")

    @property
    def mass(self) -> float:
        return 1.0 - self.omega**2


@dataclass(frozen=True)
class GeneralG:
    """General nonlinearity given by g, its primitive G, and mass rho.

    G must vanish at 0 and behave like -(rho/2) s^2 near 0; both are
    checked numerically at construction (s = 1e-3, 1e-4, 1e-5).  The
    callables must accept numpy arrays.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    rho: float

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
    """Exponent pair (alpha, beta) with its region label.

    Build through classify_exponents; the label is one of Interior,
    Limit, or Invalid per the admissibility conditions below.
    """

    alpha: float
    beta: float
    region: str


def classify_exponents(alpha: float, beta: float, p: float, dimension: int) -> ScalingExponents:
    """Classify an exponent pair for the power p in the given dimension.

    Interior:  beta < 0,  alpha (p-1) - 2 beta >= 0,  2 alpha - beta (N-2) > 0
           or  beta >= 0, alpha (p-1) - 2 beta >= 0,  2 alpha - beta N > 0.
    Limit: same families with the strict inequality degenerating to
    equality (beta != 0).  Comparisons are exact; callers who need fuzz
    must round their exponents first.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidInput("exponents must be finite")
    if not (math.isfinite(p) and p > 1):
        raise InvalidInput(f"power must satisfy p > 1, got {p!r}")
    if dimension not in (1, 2, 3):
        raise InvalidInput(f"dimension must be 1, 2, or 3, got {dimension!r}")
    slope_ok = alpha * (p - 1) - 2.0 * beta >= 0.0
    grad_coef = 2.0 * alpha - beta * (dimension - 2)
    mass_coef = 2.0 * alpha - beta * dimension
    region = INVALID
    if slope_ok:
        if beta < 0 and grad_coef > 0 or beta >= 0 and mass_coef > 0:
            region = INTERIOR
        elif beta < 0 and grad_coef == 0 or beta > 0 and mass_coef == 0:
            region = LIMIT
    return ScalingExponents(float(alpha), float(beta), region)


def power_integral(v: GridFunction, q: float) -> float:
    """int |v|^q against the radial measure (q > 0; exp/log path of numpy pow)."""
    if q <= 0:
        raise InvalidInput(f"exponent must be positive, got {q!r}")
    with np.errstate(over="ignore"):
        out = float(np.sum(v.grid.weights * np.abs(v.values) ** q))
    if not math.isfinite(out):
        raise NumericalOverflow("power integral left the representable range")
    return out


def _g_integral_general(v: GridFunction, nl: GeneralG) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = nl.G(np.abs(v.values))
    out = float(np.sum(v.grid.weights * vals))
    if not math.isfinite(out):
        raise NumericalOverflow("int G(v) left the representable range")
    return out


def pohozaev_P(v: GridFunction, nl: Nonlinearity) -> float:
    """P(v) = int G(v) dx, evaluated on |v| for complex inputs."""
    if isinstance(nl, PowerKG):
        return (-0.5 * nl.mass * l2_norm_sq(v)
                + power_integral(v, nl.p + 1.0) / (nl.p + 1.0))
    return _g_integral_general(v, nl)


def kinetic_T(v: GridFunction) -> float:
    """T(v) = (1/2) ||grad v||^2."""
    return 0.5 * grad_norm_sq(v)


def action_S(v: GridFunction, nl: Nonlinearity) -> float:
    """S(v) = (1/2) ||grad v||^2 - int G(v).

    For the power family this is the three-term form
    (1/2)||grad v||^2 + (m0/2)||v||^2 - ||v||_{p+1}^{p+1} / (p+1).
    """
    if isinstance(nl, PowerKG):
        return (0.5 * grad_norm_sq(v) + 0.5 * nl.mass * l2_norm_sq(v)
                - power_integral(v, nl.p + 1.0) / (nl.p + 1.0))
    return kinetic_T(v) - _g_integral_general(v, nl)


def constraint_K(v: GridFunction, nl: Nonlinearity, se: ScalingExponents) -> float:
    """K_{alpha,beta}(v): derivative of S along the (alpha, beta) rescaling.

    Power family only; the closed form is

        ((2a - b(N-2))/2) ||grad v||^2 + ((2a - bN) m0 / 2) ||v||^2
        - ((a(p+1) - bN)/(p+1)) ||v||_{p+1}^{p+1}

    with (a, b) = (alpha, beta).  Defined for every exponent pair; the
    region label is not consulted.
    """
    if not isinstance(nl, PowerKG):
        raise Unsupported("the scaling constraint is implemented for the power family only")
    n = v.grid.dimension
    grad_coef = 0.5 * (2.0 * se.alpha - se.beta * (n - 2))
    mass_coef = 0.5 * (2.0 * se.alpha - se.beta * n) * nl.mass
    power_coef = (se.alpha * (nl.p + 1.0) - se.beta * n) / (nl.p + 1.0)
    return (grad_coef * grad_norm_sq(v) + mass_coef * l2_norm_sq(v)
            - power_coef * power_integral(v, nl.p + 1.0))


def nehari_K(v: GridFunction, nl: Nonlinearity) -> float:
    """K_{1,0}(v): the amplitude-scaling (Nehari) constraint value."""
    return constraint_K(v, nl, ScalingExponents(1.0, 0.0, INTERIOR))


def pohozaev_residual(v: GridFunction, nl: Nonlinearity) -> float:
    """((N-2)/2) ||grad v||^2 - N int G(v); vanishes at solutions."""
    n = v.grid.dimension
    return 0.5 * (n - 2) * grad_norm_sq(v) - n * pohozaev_P(v, nl)


def energy_E(u: GridFunction, v: GridFunction, nl: Nonlinearity) -> float:
    """E(u, v) = (1/2) ||v||^2 + S(u); conserved by the flow.

    Matches action_S(u) bit for bit when v vanishes because it is
    computed as that sum.
    """
    require_same_grid(u, v)
    return 0.5 * l2_norm_sq(v) + action_S(u, nl)


def dynamic_pair(nl: Nonlinearity):
    """Vectorized (g, G) used by the time integrator.

    The evolution convention fixes unit mass for the power family:
    g(u) = -u + |u|^(p-1) u, so a frequency-omega standing-wave profile
    supplies initial data while the flow itself never sees omega.
    """
    if isinstance(nl, PowerKG):
        pm1 = nl.p - 1.0

        def g(u):
            return -u + np.abs(u) ** pm1 * u

        def big_g(s):
            return -0.5 * s**2 + np.abs(s) ** (pm1 + 2.0) / (pm1 + 2.0)

        return g, big_g
    return nl.g, nl.G
