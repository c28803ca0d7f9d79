"""Ground states of -Delta(phi) = g(phi) for any nonlinearity.

Dimension 1 has the closed-form solitary profile of the power family;
radial shooting on the amplitude phi(0) solves any nonlinearity in any
dimension.  Both constructors validate the same invariants: small ODE
residual, vanishing Nehari (power family) and Pohozaev combinations,
positivity, and monotone decay.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConvergenceError, InvalidInput
from .model import CONSTRAINT_TOL, Nonlinearity, PowerKG, check_subcritical, moments
from .radial_core import GridFunction, RadialGrid, brent

# invariant tolerances, relative to the natural scale of each identity
ODE_RESIDUAL_TOL = 1e-4        # times g(phi(0)) + m0 phi(0), i.e. phi(0)^p for powers
DECAY_FLOOR = 1e-10            # profile must dip below this before r = R
BRACKET_DOUBLINGS = 8          # times shoot_radial may move a bracket end by a factor 2


@dataclass(frozen=True)
class GroundState:
    """A validated least-energy profile together with its diagnostics.

    level is the action of the profile, the mountain-pass level m.
    nehari_residual is None for a general nonlinearity (see _validate).
    """

    profile: GridFunction
    nonlinearity: Nonlinearity
    level: float
    center_value: float
    ode_residual: float
    nehari_residual: float | None
    pohozaev_residual: float

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid


def equation_residual(v: GridFunction, nl: Nonlinearity) -> float:
    """Max norm of -lap(phi) - g(phi) over interior nodes.

    Fourth-order stencils keep the measurement error well below the
    acceptance tolerance on production grids; a radial profile is even in
    r, so ghost nodes across the origin mirror the interior values.
    """
    g = v.grid
    h = g.spacing
    # two mirrored ghost nodes ahead of r=0, one plain ghost past r=R
    ext = np.concatenate((v.values[2:0:-1], v.values, v.values[-1:]))
    # original node k sits at ext index k+2; interior nodes 1..M-1 and
    # their stencil neighbours at offsets -2..+2 are the slices below
    left2, left1, mid, right1, right2 = ext[1:-4], ext[2:-3], ext[3:-2], ext[4:-1], ext[5:]
    d2 = (-left2 + 16.0 * left1 - 30.0 * mid + 16.0 * right1 - right2) / (12.0 * h**2)
    d1 = (left2 - 8.0 * left1 + 8.0 * right1 - right2) / (12.0 * h)
    lap = d2
    if g.dimension > 1:
        lap = lap + (g.dimension - 1) / g.r[1:-1] * d1
    res = -lap - nl.g(v.values[1:-1])
    return float(np.abs(res).max())


def _validate(profile: GridFunction, nl: Nonlinearity) -> GroundState:
    """Check a candidate profile and wrap it with its diagnostics.

    The Nehari identity int g(phi) phi = ||grad phi||^2 is checked only
    where Moments.nehari is defined, the power family: for a general g,
    int g(phi) phi is not one of the three moments.  The Pohozaev identity
    holds for every g.
    """
    vals = profile.values
    a = float(vals[0])
    if a <= 0 or np.any(vals < 0):
        raise ConvergenceError("ground-state profile must be positive")
    if np.any(np.diff(vals) > 0):
        raise ConvergenceError("ground-state profile must decay monotonically")
    ode_res = equation_residual(profile, nl)
    if ode_res > ODE_RESIDUAL_TOL * (nl.g(a) + nl.mass * a):
        raise ConvergenceError(
            f"equation residual {ode_res:.3e} exceeds {ODE_RESIDUAL_TOL:.0e} * "
            "(g(phi(0)) + m0 phi(0))")
    m = moments(profile, nl)
    h1 = m.h1
    kn = m.nehari() if isinstance(nl, PowerKG) else None
    pz = m.pohozaev_residual()
    if kn is not None and abs(kn) > CONSTRAINT_TOL * h1:
        raise ConvergenceError(f"Nehari residual {kn:.3e} too large for H1 norm {h1:.3e}")
    if abs(pz) > CONSTRAINT_TOL * h1:
        raise ConvergenceError(f"Pohozaev residual {pz:.3e} too large for H1 norm {h1:.3e}")
    return GroundState(
        profile=profile,
        nonlinearity=nl,
        level=m.action(),
        center_value=a,
        ode_residual=ode_res,
        nehari_residual=kn,
        pohozaev_residual=pz,
    )


def closed_form_1d(p: float, omega: float, grid: RadialGrid) -> GroundState:
    """The explicit even solitary wave in dimension 1.

    phi(x) = (m0 (p+1) / 2)^(1/(p-1)) sech(( p-1) sqrt(m0) x / 2)^(2/(p-1)).
    """
    if grid.dimension != 1:
        raise InvalidInput("the closed form lives in dimension 1")
    nl = PowerKG(p, omega)  # raises InvalidMass/InvalidInput for bad parameters
    m0 = nl.mass
    amp = (0.5 * m0 * (p + 1.0)) ** (1.0 / (p - 1.0))
    rate = 0.5 * (p - 1.0) * math.sqrt(m0)
    with np.errstate(over="ignore"):
        sech = 1.0 / np.cosh(rate * grid.r)
    profile = GridFunction(grid, amp * sech ** (2.0 / (p - 1.0)))
    return _validate(profile, nl)


def _escape_radius(r: float, h: float, y: float, y_last: float) -> float:
    """Where y, negative at r, fell through zero on the chord from r - h; r if y_last <= 0."""
    return r - h * y / (y - y_last) if y_last > 0.0 else r


def _signed_miss(status: str, r_esc: float, decay2: float) -> float:
    """-+exp(-decay2 r_esc): negative when the shot crosses, positive
    otherwise, its magnitude floored at the smallest normal double."""
    size = max(math.exp(-decay2 * r_esc), sys.float_info.min)
    return -size if status == "cross" else size


def _classify_shot(a: float, nl: Nonlinearity, grid: RadialGrid):
    """March the radial ODE outward from amplitude a, one RK4 step per cell.

    Returns (status, values, r_esc): status is "cross" when the solution
    goes negative, "diverge" when it exceeds twice the amplitude, "turn"
    at a turning point (below), "end" at r = R; values is an array of
    doubles holding the node samples from phi(0) up to the last node
    before the shot stopped.  r_esc is the escape radius: where the
    linear interpolant of phi (of chi for "turn", of 2a - phi for
    "diverge") falls through zero inside the cell where the shot
    escapes, and R for "end".

    The march carries (phi, chi) with chi = -phi', so each stage reads
    g(phi) - (N-1) chi / r with no negation.  A shot stops with status
    "turn" at a turning point, where chi < 0 while phi > 0, if its ODE
    energy E = chi^2/2 + G(phi) is negative there.  E does not increase
    in r (dE/dr = -(N-1) chi^2 / r), and E >= 0 wherever phi = 0, so such
    a shot can never cross zero, whatever g is.  For the power family
    E < 0 at every turn (Berestycki, Lions & Peletier 1981).  Only "cross"
    labels a shot above the critical amplitude; "turn", "diverge" and
    "end" all label it below.
    """
    g, big_g = nl.g, nl.G
    n = grid.dimension
    h = grid.spacing
    hh = 0.5 * h
    nm1 = float(n - 1)
    upper = 2.0 * a

    # series start past the coordinate singularity:
    # phi ~ a + c2 r^2 + c4 r^4 with Delta(r^k) = k(k+N-2) r^(k-2)
    c2 = -g(a) / (2.0 * n)
    c4 = -c2 * nl.dg(a) / (4.0 * (n + 2.0))
    r = h
    phi = a + c2 * r * r + c4 * r**4
    chi = -(2.0 * c2 * r + 4.0 * c4 * r**3)
    if c2 < 0.0 and phi > a:
        # the ODE makes phi fall from a when c2 < 0; the series has left
        # its range at r = h (phi == a is only c2 h^2 rounding away)
        raise InvalidInput(
            f"grid spacing {h:.3g} is too coarse for the series start at amplitude "
            f"{a:.6g}; use more cells")

    vals = array("d", (a, phi))
    keep = vals.append

    for _ in range(2, grid.cells + 1):  # nodes 2..M
        # one RK4 step of (phi' = -chi, chi' = g(phi) - (n-1) chi / r)
        k1 = g(phi) - nm1 * chi / r
        rh = r + hh
        p2 = phi - hh * chi
        x2 = chi + hh * k1
        k2 = g(p2) - nm1 * x2 / rh
        p3 = phi - hh * x2
        x3 = chi + hh * k2
        k3 = g(p3) - nm1 * x3 / rh
        r += h
        p4 = phi - h * x3
        x4 = chi + h * k3
        k4 = g(p4) - nm1 * x4 / r
        last_phi, last_chi = phi, chi
        phi -= h * (chi + 2.0 * x2 + 2.0 * x3 + x4) / 6.0
        chi += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if phi < 0.0:
            return "cross", vals, _escape_radius(r, h, phi, last_phi)
        if phi > upper:
            return "diverge", vals, _escape_radius(r, h, upper - phi, upper - last_phi)
        if chi < 0.0 and phi > 0.0 and 0.5 * chi * chi + big_g(phi) < 0.0:
            return "turn", vals, _escape_radius(r, h, chi, last_chi)
        keep(phi)
    return "end", vals, grid.outer_radius


def shoot_radial(nl: Nonlinearity, grid: RadialGrid,
                 bracket: tuple[float, float] = (1.0, 4.0)) -> GroundState:
    """Brent shooting on the center amplitude of -Delta(phi) = g(phi).

    Any nonlinearity shoots the same way, in the grid's dimension; a
    power must also be subcritical there (check_subcritical).

    The bracket must be finite and straddle the critical amplitude: its
    lower end classifies as non-crossing and its upper end crosses zero.  A lower
    end that crosses becomes the upper end and is halved, and an upper end
    that does not cross becomes the lower end and is doubled, up to
    BRACKET_DOUBLINGS moves in all; a bracket that already straddles is
    kept.

    In N >= 2 an amplitude with G(a) <= 0 is not marched: the ODE energy
    E = chi^2/2 + G(phi) of _classify_shot starts at G(a) and does not
    increase, so the shot never reaches phi = 0, where E >= 0.  It is
    labelled "turn" with r_esc = 0.  The critical amplitude lies above
    the zero of G (Berestycki & Lions 1983), so whenever the lower end
    has G(lo) <= 0 < G(hi), before the first shot and after each move,
    it is lifted to that zero, found by brent on G, whose shot turns
    within a few decay lengths.  In N = 1 E is conserved and the zero of
    G is the ground-state amplitude itself, so nothing is skipped there.

    One brent solve then finds the sign change of the signed miss
    m(a) = -+exp(-2 sqrt(m0) r_esc(a)), negative when the shot crosses
    zero and positive when it turns, diverges or reaches R, with r_esc
    the escape radius of _classify_shot.  Near the critical amplitude the
    escaping mode grows like exp(kr) on a decaying exp(-kr), k = sqrt(m0),
    so the miss is close to linear in a there.  Its magnitude is floored
    at the smallest normal double (_signed_miss), because exp(-2kR)
    underflows on a wide grid and brent takes a zero value as a root.
    The solve stops when its bracket is narrower than 1e-15 of its upper
    end, and the final shot is the largest non-crossing amplitude
    marched: the non-crossing end of that bracket, with the values of
    its search march.  In N >= 2 that end is marched, since it lies
    within 1e-15 of the critical amplitude a*, where G(a*) = E(0) > 0
    as E falls strictly to 0.  The returned profile keeps the final shot
    up to its turning point and continues with the matched linear-decay
    tail phi(r*) (r*/r)^((N-1)/2) exp(-sqrt(m0)(r - r*)), which restores
    decay past the double-precision resolution limit of the shooting itself.
    """
    dimension = grid.dimension
    if isinstance(nl, PowerKG):
        check_subcritical(nl.p, dimension)
    m0 = nl.mass
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi < math.inf):
        raise InvalidInput(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")

    decay2 = 2.0 * math.sqrt(m0)
    big_g = nl.G
    shots = {}  # amplitude -> (status, signed miss), at most one march per amplitude
    best = [0.0, None]  # the largest non-crossing amplitude marched, and its values

    def shot(a: float) -> tuple[str, float]:
        if a not in shots:
            if dimension >= 2 and big_g(a) <= 0.0:
                # E = G(a) <= 0 at r = 0 and E falls from there: no march
                status, r_esc = "turn", 0.0
            else:
                status, vals, r_esc = _classify_shot(a, nl, grid)
                if status != "cross" and a > best[0]:
                    best[:] = a, vals
            shots[a] = status, _signed_miss(status, r_esc, decay2)
        return shots[a]

    def lifted(lo: float, hi: float) -> float:
        """lo, or in N >= 2 the zero of G above it when G(lo) <= 0 < G(hi)."""
        if dimension < 2 or not big_g(lo) <= 0.0 < big_g(hi):
            return lo
        zero = brent(big_g, lo, hi, xtol=0.0, rtol=1e-15)
        while big_g(zero) <= 0.0:  # the root may round to the side of G <= 0
            zero = math.nextafter(zero, hi)
        return zero

    lo = lifted(lo, hi)
    status_lo, status_hi = shot(lo)[0], shot(hi)[0]
    for _ in range(BRACKET_DOUBLINGS):
        if status_lo == "cross":
            lo, hi = 0.5 * lo, lo
        elif status_hi != "cross":
            lo, hi = hi, 2.0 * hi
        else:
            break
        lo = lifted(lo, hi)
        status_lo, status_hi = shot(lo)[0], shot(hi)[0]
    if status_lo == "cross" or status_hi != "cross":
        raise BracketError(
            f"bracket {bracket!r} does not straddle the critical amplitude "
            f"(lo -> {status_lo}, hi = {hi:g} -> {status_hi})")

    brent(lambda a: shot(a)[1], lo, hi, xtol=0.0, rtol=1e-15)
    # the final shot is the last bracket's non-crossing end, whichever end brent returns
    kept = np.frombuffer(best[1])
    i_star = int(np.argmin(kept))
    # back off the minimum onto the clean decay segment, where a cell drops
    # by about sqrt(m0) h phi: near a turn the shot flattens and
    # r^((N-1)/2) * phi would tick upward, and a shot diving toward zero
    # before R falls faster than the decay the tail continues
    rate = math.sqrt(m0) * grid.spacing
    while i_star > 1 and not (0.5 * rate * kept[i_star] <= kept[i_star - 1] - kept[i_star]
                              <= 2.0 * rate * kept[i_star]):
        i_star -= 1
    if i_star <= 1 or kept[i_star] <= 0.0:
        raise ConvergenceError("final shot has no decaying segment")
    r_star = grid.r[i_star]
    v_star = float(kept[i_star])
    tail_r = grid.r[i_star + 1:]
    decay = np.exp(-math.sqrt(m0) * (tail_r - r_star))
    if dimension > 1:
        decay = decay * (r_star / tail_r) ** (0.5 * (dimension - 1))
    out = np.empty(grid.cells + 1)
    out[:i_star + 1] = kept[:i_star + 1]
    out[i_star + 1:] = v_star * decay
    if dimension >= 2:
        out[-1] = 0.0
    if float(out[:-1].min()) > DECAY_FLOOR:
        raise ConvergenceError(
            f"profile never decays below {DECAY_FLOOR:.0e} before r = R; "
            "enlarge the domain")
    return _validate(GridFunction(grid, out), nl)
