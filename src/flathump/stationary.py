"""Phase-plane construction of flat-hump stationary states.

A stationary pair (u, v) on (0, l) with the linear reaction
g = gamma*r - beta*s satisfies

    D1(u) D2(v) u' = h1(u) h2(v) v',        -v'' + beta v = gamma u,

with zero Neumann data.  On the set where u < 1 the first equation makes
cell_potential(u) - chem_potential(v) constant, say equal to ``lam``, so u
is slaved to v through the profile map

    profile_density(s) = cell_potential_inv(chem_potential(s) + lam),

which reaches the ceiling u = 1 at the saturation level
v_sat = chem_potential_inv(cell_potential(1) - lam).  Substituting the
clamped profile map into the v-equation leaves a scalar second-order ODE
v'' = rhs(v), a conservative system with energy
w^2/2 + potential(v).  When the clamped profile map crosses the line
(beta/gamma) s in the pattern encoded by :func:`find_crossings` (two
crossings rho_saddle < rho_center below v_sat), the potential has a well at
rho_center whose closed orbits, run for one period, give even profiles with
a saturated plateau: the flat humps.

The module also houses the two sufficient constructions that produce
admissible ``lam`` values (a tangency-shift window and a slope-matching
interval), the mass-based density bounds available when cell_potential
diverges at 1, and the drift cross-check against the time-dependent solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from . import coefficients as co
from .coefficients import CoefficientSet, GammaBeta
from .errors import (
    ConstructionError,
    CrossingConditionError,
    InputError,
    RangeError,
    StructuralError,
)

ROOT_TOL = 1e-12
SCAN_POINTS = 2048


# ---------------------------------------------------------------------------
# admissible parameters


@dataclass(frozen=True)
class PhaseParams:
    """A (coefficients, reaction, offset) triplet passing the crossing pattern.

    rho_saddle < rho_center are the two crossing levels of the clamped
    profile map with the line (beta/gamma) s; in the phase plane they are a
    saddle and a center of the conservative v-system.  v_sat is the chemical
    level at which the density saturates.
    """

    coeffs: CoefficientSet
    gb: GammaBeta
    lam: float
    v_sat: float
    rho_saddle: float
    rho_center: float

    @property
    def q(self) -> float:
        return self.gb.ratio


def profile_density(p: PhaseParams, s: float) -> float:
    """u as a function of the chemical level on the unsaturated branch."""
    if s > p.v_sat * (1.0 + 1e-13) + 1e-300:
        raise RangeError(f"s={s} above the saturation level v_sat={p.v_sat}")
    return _profile_map(p.coeffs, p.lam, p.v_sat)(s)


def _profile_map(c: CoefficientSet, lam: float, v_sat: float) -> Callable[[float], float]:
    """The profile map s -> u, equal to the ceiling value 1 at and above v_sat.

    Closed-form potentials get a branch of their own: the orbit integrator
    calls the map three times per step, and the generic branch costs about
    nine times as much per call.
    """
    sep = c.separable
    if sep is not None and sep.cell_potential_inv is not None and sep.chem_potential is not None:
        inv, pot = sep.cell_potential_inv, sep.chem_potential

        def closed_form(s: float) -> float:
            if s >= v_sat:
                return 1.0
            return float(inv(float(pot(s)) + lam))

        return closed_form

    top = co.cell_potential_at_one(c)

    def generic(s: float) -> float:
        if s >= v_sat:
            return 1.0
        y = co.chem_potential(c, s) + lam
        if y >= top:
            return 1.0
        return co.cell_potential_inv(c, y)

    return generic


def find_crossings(c: CoefficientSet, lam: float, gb: Optional[GammaBeta] = None) -> PhaseParams:
    """Locate the crossing pattern that enables the flat-hump construction.

    Scans phi(s) = clamped_profile(s) - (beta/gamma) s on (0, gamma/beta)
    densely, refines each sign change by bisection, and verifies all four
    clauses: exactly the ordering rho_saddle < rho_center < v_sat <
    gamma/beta, fixed points at the two crossings, phi < 0 between them and
    phi > 0 between rho_center and gamma/beta.  Raises
    CrossingConditionError naming the violated clause.
    """
    gb = gb or c.linear_reaction
    if gb is None:
        raise InputError("no reaction rates: pass gb or use with_reaction()")
    co.check_separable_structure(c)
    q = gb.ratio
    top = co.cell_potential_at_one(c)
    if not lam < top:
        raise CrossingConditionError(
            "saturation-level", f"lam={lam} >= cell_potential(1)={top}: no saturation level")
    v_sat = co.chem_potential_inv(c, top - lam)
    if not v_sat < q:
        raise CrossingConditionError(
            "ordering", f"v_sat={v_sat:.6g} must lie below gamma/beta={q:.6g}")

    density = _profile_map(c, lam, v_sat)
    phi = lambda s: density(s) - s / q

    # dense linear scan plus geometric points toward 0: the lower crossing
    # can sit many orders of magnitude below gamma/beta.  phi(0) > 0 always
    # (the profile map is positive at s = 0), so including 0 brackets it.
    s_grid = np.unique(np.concatenate([
        [0.0],
        q * np.logspace(-12.0, 0.0, 257)[:-1],
        np.linspace(q / SCAN_POINTS, q * (1.0 - 1e-9), SCAN_POINTS),
    ]))
    s_grid = s_grid[s_grid <= q * (1.0 - 1e-9)]
    vals = np.array([phi(s) for s in s_grid])
    sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    roots = [brentq(phi, s_grid[i], s_grid[i + 1], xtol=ROOT_TOL) for i in sign_changes]
    exact_zeros = s_grid[vals == 0.0]
    roots = sorted(set(roots) | set(float(z) for z in exact_zeros))

    if len(roots) != 2:
        raise CrossingConditionError(
            "two-crossings",
            f"expected exactly 2 crossings of the profile map with (beta/gamma)s "
            f"on (0, gamma/beta); found {len(roots)} at {roots}")
    rho_saddle, rho_center = roots
    if not rho_center < v_sat:
        raise CrossingConditionError(
            "ordering", f"rho_center={rho_center:.6g} must lie below v_sat={v_sat:.6g}")

    between = np.linspace(rho_saddle, rho_center, 64)[1:-1]
    if any(phi(s) >= 0.0 for s in between):
        raise CrossingConditionError(
            "sign-below", "profile map must lie below (beta/gamma)s between the crossings")
    above = np.linspace(rho_center, q, 64)[1:-1]
    if any(phi(s) <= 0.0 for s in above):
        raise CrossingConditionError(
            "sign-above", "profile map must lie above (beta/gamma)s beyond rho_center")

    return PhaseParams(c, gb, lam, v_sat, float(rho_saddle), float(rho_center))


# ---------------------------------------------------------------------------
# conservative structure: rhs, potential, energy


def _rhs_fn(p: PhaseParams) -> Callable[[float], float]:
    """Right-hand side of the reduced stationary equation v'' = rhs(v)."""
    density = _profile_map(p.coeffs, p.lam, p.v_sat)
    beta, gamma = p.gb.beta, p.gb.gamma

    def rhs(v: float) -> float:
        return beta * v - gamma * density(v)

    return rhs


def potential(p: PhaseParams, v: float) -> float:
    """Potential of the conservative system, anchored at the center.

    potential(v) = -integral of (-rhs) ... i.e. G(v) with G' (v) = -rhs(v)
    read against the phase-plane convention v'' = rhs(v) = -G'(v), so
    G(rho_center) = 0, G has a local maximum at rho_saddle and grows toward
    gamma/beta.  Quadrature splits at the derivative kink v_sat.
    """
    rhs = _rhs_fn(p)
    pts = [x for x in (p.rho_saddle, p.v_sat) if min(p.rho_center, v) < x < max(p.rho_center, v)]
    val, _ = quad(rhs, p.rho_center, v, points=pts or None,
                  epsabs=1e-11, epsrel=1e-11, limit=200)
    return -val


def energy(p: PhaseParams, v: float, w: float) -> float:
    return 0.5 * w * w + potential(p, v)


@dataclass(frozen=True)
class EnergyWindow:
    """Admissible energies for closed orbits that reach the plateau."""

    at_saddle: float      # potential(rho_saddle)
    at_ceiling: float     # potential(gamma/beta)
    at_sat: float         # potential(v_sat)

    @property
    def closed_orbit_sup(self) -> float:
        return min(self.at_saddle, self.at_ceiling)

    @property
    def admissible(self) -> tuple[float, float]:
        """Energies producing closed orbits whose max exceeds v_sat."""
        return (self.at_sat, self.closed_orbit_sup)


def energy_window(p: PhaseParams) -> EnergyWindow:
    return EnergyWindow(potential(p, p.rho_saddle), potential(p, p.q),
                        potential(p, p.v_sat))


def hump_energy_margin(p: PhaseParams) -> tuple[bool, float]:
    """Mean inequality that opens the plateau-reaching energy window.

    Returns (holds, margin).  ``holds`` is the strict inequality

        mean of profile_density over [rho_saddle, v_sat]
            < (beta/gamma) (v_sat - rho_saddle) / 2,

    and ``margin`` is the equivalent potential gap
    potential(rho_saddle) - potential(v_sat) =
    integral over [rho_saddle, v_sat] of (beta s - gamma density(s)) ds,
    positive exactly when orbits through energies just under the saddle
    level cross the saturation level.
    """
    density = _profile_map(p.coeffs, p.lam, p.v_sat)
    integral, _ = quad(density, p.rho_saddle, p.v_sat, epsabs=1e-10, epsrel=1e-10,
                       limit=200)
    width = p.v_sat - p.rho_saddle
    holds = integral / width < (p.gb.beta / p.gb.gamma) * width / 2.0
    margin = 0.5 * p.gb.beta * (p.v_sat ** 2 - p.rho_saddle ** 2) - p.gb.gamma * integral
    return bool(holds), float(margin)


# ---------------------------------------------------------------------------
# orbit integration (symmetric/symplectic, 4th order composition of Verlet)

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1
_YOSHIDA = (_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1)
# integration steps per orbit period: the step is h = period / ORBIT_STEPS.
# construct_flat_hump samples the orbit by a quintic Hermite interpolant,
# whose O(h^6) error stays under the integrator's O(h^4): at 20,000 steps the
# canonical v-residual still decays with dx down to n = 4096 (at 5,000 it
# stalls at 4.7e-8).
ORBIT_STEPS = 20_000


@dataclass
class PhaseOrbit:
    """One closed orbit of the reduced system, sampled over a full period.

    At each abscissa x the samples hold v, w = v' and a = v'' = rhs(v): the
    three values a quintic Hermite interpolant needs (see
    :func:`_quintic_hermite`).
    """

    v0: float
    energy: float
    period: float
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    a: np.ndarray
    x1: Optional[float]       # first crossing of v_sat; None if the orbit turns below it


def _composed_step(rhs: Callable[[float], float], v: float, w: float, a: float,
                   h: float) -> tuple[float, float, float]:
    """One Yoshida step: three kick-drift-kick stages of lengths c * h.

    Returns (v, w, rhs(v)); each stage reuses the force of the previous one.
    """
    for c in _YOSHIDA:
        hc = c * h
        half = 0.5 * hc
        w_half = w + half * a
        v = v + hc * w_half
        a = rhs(v)
        w = w_half + half * a
    return v, w, a


def integrate_orbit(p: PhaseParams, v0: float) -> PhaseOrbit:
    """Integrate one closed orbit starting at the left turning point (v0, 0).

    Requires potential(v0) inside the closed-orbit energy window and
    rho_saddle < v0 < rho_center, where the rise is monotone.  The rise is
    integrated by a symmetric 4th-order composition of velocity-Verlet
    stages up to the first event, v = v_sat or w = 0, located by bisection
    on the step fraction.  The plateau above v_sat is filled in closed form
    on the same lattice (see :func:`_plateau_half`), so no step crosses the
    rhs kink.  The second half is the mirror image.  Every sample keeps the
    force a = rhs(v) the step computed (beta (v - q) on the plateau), so the
    orbit can be sampled to the integrator's order without another rhs call.
    """
    window = energy_window(p)
    e0 = potential(p, v0)
    if not (0.0 < e0 < window.closed_orbit_sup):
        raise InputError(
            f"potential(v0)={e0:.6g} outside the closed-orbit window "
            f"(0, {window.closed_orbit_sup:.6g})")
    if not p.rho_saddle < v0 < p.rho_center:
        raise InputError(f"v0={v0} must lie between rho_saddle and rho_center")

    rhs = _rhs_fn(p)
    h = orbit_period_oracle(p, v0, e0) / ORBIT_STEPS

    def before_event(v: float, w: float) -> bool:
        return v < p.v_sat and w > 0.0

    v, w, a = v0, 0.0, rhs(v0)
    vs, ws, accs = [v], [w], [a]
    for _ in range(ORBIT_STEPS):
        v_n, w_n, a_n = _composed_step(rhs, v, w, a, h)
        if not before_event(v_n, w_n):
            break
        v, w, a = v_n, w_n, a_n
        vs.append(v)
        ws.append(w)
        accs.append(a)
    else:
        raise ConstructionError(
            f"orbit from v0={v0} met neither v_sat nor a turning point within one period")

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v_m, w_m, _ = _composed_step(rhs, v, w, a, mid * h)
        if before_event(v_m, w_m):
            lo = mid
        else:
            hi = mid
    frac = 0.5 * (lo + hi)
    x_rise = np.arange(len(vs)) * h
    x_event = (len(vs) - 1) * h + frac * h
    if x_event - x_rise[-1] < 1e-9 * h:
        # the event landed on a grid sample; drop the duplicate abscissa
        x_rise, vs, ws, accs = x_rise[:-1], vs[:-1], ws[:-1], accs[:-1]

    if v_n < p.v_sat:           # turning point below the saturation level
        x1, half = None, x_event
        v_end, _, a_end = _composed_step(rhs, v, w, a, frac * h)
        x_top, v_top, w_top, a_top = [half], [v_end], [0.0], [a_end]
    else:
        x1, plateau_half = x_event, _plateau_half(p, v0)
        half = x1 + plateau_half
        lattice = np.arange(len(vs), int(half / h) + 1) * h
        lattice = lattice[(lattice > x1 + 1e-9 * h) & (lattice < half - 1e-9 * h)]
        x_top = np.concatenate([[x1], lattice, [half]])
        # v = q - A cosh(sqrt(beta) (l/2 - x)), equal to v_sat at x1
        root_beta = math.sqrt(p.gb.beta)
        amp = (p.q - p.v_sat) / math.cosh(root_beta * plateau_half)
        arg = root_beta * (half - x_top)
        v_top = p.q - amp * np.cosh(arg)
        w_top = amp * root_beta * np.sinh(arg)
        a_top = p.gb.beta * (v_top - p.q)

    x_half = np.concatenate([x_rise, x_top])
    v_half = np.concatenate([vs, v_top])
    w_half = np.concatenate([ws, w_top])
    a_half = np.concatenate([accs, a_top])
    # mirror to the full period: v and a are even about the top, w is odd
    x_full = np.concatenate([x_half, 2.0 * half - x_half[-2::-1]])
    v_full = np.concatenate([v_half, v_half[-2::-1]])
    w_full = np.concatenate([w_half, -w_half[-2::-1]])
    a_full = np.concatenate([a_half, a_half[-2::-1]])
    return PhaseOrbit(v0, e0, 2.0 * half, x_full, v_full, w_full, a_full, x1)


def _plateau_half(p: PhaseParams, v0: float) -> float:
    """Arc length from v_sat to the top of the orbit from v0, in closed form.

    Above v_sat, v'' = beta (v - q), so v = q - sqrt(2 delta / beta)
    cosh(sqrt(beta) (x - l/2)) with delta = potential(q) - potential(v0).
    delta is the closed-form potential rise from v_sat to q minus one
    quadrature of the rhs from v0 to v_sat, a range with no kink, so it
    stays well conditioned as delta -> 0.
    """
    beta, gap = p.gb.beta, p.q - p.v_sat
    rise, _ = quad(_rhs_fn(p), v0, p.v_sat, epsabs=1e-14, epsrel=1e-13, limit=100)
    delta = 0.5 * beta * gap * gap - rise
    if not delta > 0.0:
        raise ConstructionError(
            f"orbit from v0={v0} reaches the ceiling barrier (energy gap {delta:.3g})")
    return math.acosh(max(1.0, gap / math.sqrt(2.0 * delta / beta))) / math.sqrt(beta)


def _turning_point_integral(rhs: Callable[[float], float], anchor: float, sign: float,
                            y_end: float, kink: Optional[float]) -> float:
    """Arc length from the turning point ``anchor`` to anchor + sign * y_end^2,

        integral of dv / sqrt(2 (E - potential(v))),   E = potential(anchor).

    The stretch v = anchor + sign * y^2 removes the square-root endpoint
    singularity *and* stays bounded when the turning point is nearly
    degenerate (orbits close to the ceiling equilibrium linger there; the
    naive substitution loses digits).  The energy gap is integrated from the
    turning point so it stays relatively accurate where it is small.  Both
    quadratures split at ``kink`` (the derivative kink v_sat) when it lies
    inside the range.
    """

    def gap(v: float) -> float:
        # E - potential(v) as the signed integral of the rhs from the
        # turning point (quad handles reversed limits)
        lo, hi = min(anchor, v), max(anchor, v)
        pts = [kink] if (kink is not None and lo < kink < hi) else None
        val, _ = quad(rhs, anchor, v, points=pts, epsabs=1e-13, epsrel=1e-11,
                      limit=100)
        return val

    def integrand(y: float) -> float:
        g = gap(anchor + sign * y * y)
        if g <= 0.0:
            g = 1e-300
        return 2.0 * y / math.sqrt(2.0 * g)

    v_end = anchor + sign * y_end ** 2
    kink_y = None
    if kink is not None and min(anchor, v_end) < kink < max(anchor, v_end):
        kink_y = math.sqrt(abs(kink - anchor))
    with warnings.catch_warnings():
        # near-degenerate turning points create a sharp but integrable
        # boundary layer; quad resolves it while warning
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, y_end,
                      points=[kink_y] if kink_y else None,
                      epsabs=1e-11, epsrel=1e-10, limit=200)
    return val


def orbit_period_oracle(p: PhaseParams, v0: float, e0: Optional[float] = None) -> float:
    """Period from the turning-point integral, independent of the integrator:

        P = 2 * integral_{v0}^{v_max} dv / sqrt(2 (E - potential(v))),

    each half from its own turning point up to the midpoint of [v0, v_max].
    """
    if e0 is None:
        e0 = potential(p, v0)
    v_max = turning_point(p, v0, e0)
    v_mid = 0.5 * (v0 + v_max)
    rhs = _rhs_fn(p)
    kink = p.v_sat if v0 < p.v_sat < v_max else None
    left = _turning_point_integral(rhs, v0, +1.0, math.sqrt(v_mid - v0), kink)
    right = _turning_point_integral(rhs, v_max, -1.0, math.sqrt(v_max - v_mid), kink)
    return 2.0 * (left + right)


def turning_point(p: PhaseParams, v0: float, e0: Optional[float] = None) -> float:
    """The right turning point: potential(v_max) = potential(v0), v_max > center."""
    if e0 is None:
        e0 = potential(p, v0)
    fn = lambda v: potential(p, v) - e0
    return brentq(fn, p.rho_center, p.q, xtol=1e-14, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# flat-hump assembly


@dataclass
class StationaryProfile:
    """Sampled flat-hump pair with its residual diagnostics.

    ``orbit`` is the phase orbit v was sampled from, kept so that callers
    need not integrate it again (None for a profile assembled by hand).
    """

    params: PhaseParams
    grid: "object"                 # pde.Grid1D; typed loosely to avoid a cycle
    u: np.ndarray
    v: np.ndarray
    x1: float
    lam: float
    length: float
    v0: float
    residual_flux: float = math.nan
    residual_v: float = math.nan
    orbit: Optional[PhaseOrbit] = None


def _admissible(p: PhaseParams) -> tuple[float, float]:
    """The admissible energy window; ConstructionError when it is empty."""
    e_lo, e_hi = energy_window(p).admissible
    if not e_lo < e_hi:
        raise ConstructionError(
            "empty admissible energy window: the mean inequality fails "
            f"(potential at saturation {e_lo:.6g} >= closed-orbit sup {e_hi:.6g})")
    return e_lo, e_hi


def _v0_at_energy(p: PhaseParams, e: float) -> float:
    """Left turning point in (rho_saddle, rho_center) of the orbit at energy e."""
    return brentq(lambda v: potential(p, v) - e,
                  p.rho_saddle + 1e-13, p.rho_center - 1e-13, xtol=1e-15, rtol=8.9e-16)


def _solve_in_window(p: PhaseParams, misfit: Callable[[float], float],
                     y_bracket: tuple[float, float], xtol: float,
                     message: Callable[[float, float], str]) -> float:
    """v0 at a root of misfit(v0), by Brent's method on y = log(1 - frac).

    frac is the position of the orbit energy in the admissible window.  The
    two ends of ``y_bracket`` are probed once; when the misfit has the same
    sign at both, ConstructionError carries message(misfit_a, misfit_b).
    """
    e_lo, e_hi = _admissible(p)

    def v0_of(y: float) -> float:
        # frac = -expm1(y)
        return _v0_at_energy(p, e_lo - math.expm1(y) * (e_hi - e_lo))

    memo: dict[float, float] = {}

    def misfit_y(y: float) -> float:
        # brentq starts from the two bracket ends, already probed below
        if y not in memo:
            memo[y] = misfit(v0_of(y))
        return memo[y]

    ya, yb = y_bracket
    ma, mb = misfit_y(ya), misfit_y(yb)
    if ma * mb > 0:
        raise ConstructionError(message(ma, mb))
    return v0_of(brentq(misfit_y, ya, yb, xtol=xtol))


def default_v0(p: PhaseParams, fraction: float = 0.5) -> float:
    """Left turning point at the midpoint of the admissible energy window.

    Solves potential(v0) = E_sat + fraction * (E_sup - E_sat) on
    (rho_saddle, rho_center), where (E_sat, E_sup) is the window of energies
    whose orbits both close and cross the saturation level.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError("fraction must lie in (0, 1)")
    e_lo, e_hi = _admissible(p)
    return _v0_at_energy(p, e_lo + fraction * (e_hi - e_lo))


def v0_for_length(p: PhaseParams, length: float, tol: float = 1e-10) -> float:
    """Find v0 whose orbit period matches a requested domain length.

    The period grows monotonically toward the top of the energy window;
    Brent's method on the period of :func:`_edge_and_period`.  Raises
    ConstructionError when the requested length is below the shortest
    plateau-reaching period or beyond the reach of the window.
    """
    if not math.isfinite(length):
        raise InputError(f"requested length {length} is not a finite number")

    def message(low: float, high: float) -> str:
        if low > 0:
            return (f"requested length {length} below the shortest plateau-reaching "
                    f"period {length + low:.6g}")
        return f"cannot reach length {length}: period saturates"

    # energy fractions from 1e-6 to 1 - 1e-12; the period is smooth and
    # monotone in y, and xtol 1e-14 in y keeps it inside the closing check
    v0 = _solve_in_window(p, lambda v: _edge_and_period(p, v)[1] - length,
                          (math.log1p(-1e-6), math.log(1e-12)), 1e-14, message)
    if abs(_edge_and_period(p, v0)[1] - length) > max(tol, 1e-8 * length):
        raise ConstructionError("period matching did not converge to the requested length")
    return v0


def edge_position(p: PhaseParams, v0: float) -> float:
    """x1: arc length from the left turning point to the saturation level.

    The turning-point quadrature of the period integral, stopped at v_sat
    instead of the far turning point.
    """
    if not potential(p, v0) > potential(p, p.v_sat):
        raise InputError("orbit does not reach the saturation level")
    return _turning_point_integral(_rhs_fn(p), v0, +1.0, math.sqrt(p.v_sat - v0), None)


def _edge_and_period(p: PhaseParams, v0: float) -> tuple[float, float]:
    """(x1, period) of the orbit from v0; both v0 searches solve against it."""
    x1 = edge_position(p, v0)
    return x1, 2.0 * (x1 + _plateau_half(p, v0))


# Edge alignment searches y = log(1 - frac), frac the position in the
# admissible energy window: the period diverges logarithmically toward the
# top of the window, so the edge misfit is smooth and monotone in y.  On
# the canonical setup it falls by 13.6 cells per decade of 1 - frac near
# frac = 0.99 and by 1.6 near the root at frac = 1 - 2.8e-6.
EDGE_ALIGN_Y_BRACKET = (math.log(0.05), math.log(1e-8))
# 1e-9 in y is about 1e-9 cells of edge (1.6 cells per decade is 0.7 per
# unit of y)
EDGE_ALIGN_XTOL = 1e-9


def v0_for_edge_alignment(p: PhaseParams, n_cells: int, edge_index: int,
                          use_orbit: bool = False) -> float:
    """v0 whose plateau edge lands on a cell interface of an n_cells mesh.

    Solves x1(v0) * n_cells / period(v0) = edge_index for v0 at energy
    fraction frac = 1 - exp(y) of the admissible window, by Brent's method
    on y over EDGE_ALIGN_Y_BRACKET (frac from 0.95 to 1 - 1e-8).  With the
    edge on an interface at n_cells it stays on one at every dyadic
    refinement, so refinement studies of edge-sensitive quantities (like the
    relaxation drift of the time-dependent solver) see clean first-order
    scaling instead of the pseudo-random kink-to-cell offset.

    ``use_orbit`` is ignored: x1 and the period come from
    :func:`_edge_and_period`, which the orbit of construct_flat_hump matches.
    """
    def edge_misfit(v0: float) -> float:
        x1, period = _edge_and_period(p, v0)
        return x1 * n_cells / period - edge_index

    def message(ma: float, mb: float) -> str:
        return (f"edge index {edge_index} not bracketed: misfit ({ma:.3g}, {mb:.3g}); "
                "the index corresponds to a period outside the admissible window")

    return _solve_in_window(p, edge_misfit, EDGE_ALIGN_Y_BRACKET, EDGE_ALIGN_XTOL, message)


def _quintic_hermite(knots: np.ndarray, f: np.ndarray, df: np.ndarray, d2f: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """Piecewise quintic Hermite interpolant of (f, f', f'') at increasing knots.

    On each knot interval it is the degree-5 polynomial matching the value
    and the first two derivatives at both ends, so its error is O(h^6).
    """
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    h = knots[i + 1] - knots[i]
    t = (x - knots[i]) / h
    s = 1.0 - t
    t3 = t * t * t
    return (f[i] + (f[i + 1] - f[i]) * t3 * (10.0 - 15.0 * t + 6.0 * t * t)
            + h * (df[i] * t * s ** 3 * (1.0 + 3.0 * t) - df[i + 1] * t3 * s * (4.0 - 3.0 * t))
            + 0.5 * h * h * t * t * s * s * (d2f[i] * s + d2f[i + 1] * t))


def construct_flat_hump(p: PhaseParams, v0: Optional[float] = None,
                        grid_n: int = 4096) -> StationaryProfile:
    """Assemble the flat-hump pair on one orbit period.

    The domain size is an output: l = period(v0).  v(x) is the orbit,
    sampled at the cell centres by the quintic Hermite interpolant of its
    (v, w, a) samples, no less accurate than the integrator; u is the
    profile map of v below the saturation level and exactly 1 on the
    plateau [x1, l - x1], where x1 is the orbit's first crossing of v_sat.
    Residuals of both stationary equations are measured on the sampled
    grid by centered differences, skipping the cells whose stencil
    straddles the plateau edges (u has a derivative kink there).
    """
    from .pde import Grid1D

    if v0 is None:
        v0 = default_v0(p)
    orbit = integrate_orbit(p, v0)
    x1, length = orbit.x1, orbit.period
    if x1 is None:
        raise InputError(f"the orbit from v0={v0} turns below v_sat={p.v_sat:.6g}: no plateau")

    grid = Grid1D(grid_n, length)
    x = grid.centers
    v = _quintic_hermite(orbit.x, orbit.v, orbit.w, orbit.a, x)
    u = np.empty_like(v)
    density = _profile_map(p.coeffs, p.lam, p.v_sat)
    inside = (x >= x1) & (x <= length - x1)
    u[inside] = 1.0
    u[~inside] = [density(s) for s in v[~inside]]
    # clip roundoff above the ceiling near the plateau edges
    u = np.minimum(u, 1.0)

    profile = StationaryProfile(params=p, grid=grid, u=u, v=v, x1=float(x1),
                                lam=p.lam, length=length, v0=v0, orbit=orbit)
    profile.residual_flux, profile.residual_v = stationary_residuals(profile)
    return profile


def _centered_first(arr: np.ndarray, dx: float) -> np.ndarray:
    """4th-order centered first derivative on the interior (2 ghost cells)."""
    return (-arr[4:] + 8.0 * arr[3:-1] - 8.0 * arr[1:-3] + arr[:-4]) / (12.0 * dx)


def _centered_second(arr: np.ndarray, dx: float) -> np.ndarray:
    return (-arr[4:] + 16.0 * arr[3:-1] - 30.0 * arr[2:-2]
            + 16.0 * arr[1:-3] - arr[:-4]) / (12.0 * dx ** 2)


def stationary_residuals(profile: StationaryProfile,
                         exclusion_cells: int = 2) -> tuple[float, float]:
    """Sup-norm residuals of the two stationary equations on the grid.

    residual_flux = sup |D1(u) D2(v) u' - h1(u) h2(v) v'| and
    residual_v = sup |-v'' + beta v - gamma u|, derivatives by centered
    differences; cells within ``exclusion_cells`` of the plateau edges are
    excluded (u is only Lipschitz across them, so the difference stencil is
    inconsistent there).
    """
    p = profile.params
    sep = p.coeffs.separable
    dx = profile.grid.dx
    u, v = profile.u, profile.v
    x = profile.grid.centers[2:-2]

    du = _centered_first(u, dx)
    dv = _centered_first(v, dx)
    d2v = _centered_second(v, dx)
    ui, vi = u[2:-2], v[2:-2]

    flux_res = np.abs(np.asarray(sep.d1(ui), dtype=float) * np.asarray(sep.d2(vi), dtype=float) * du
                      - np.asarray(sep.h1(ui), dtype=float) * np.asarray(sep.h2(vi), dtype=float) * dv)
    v_res = np.abs(-d2v + p.gb.beta * vi - p.gb.gamma * ui)

    keep = np.ones(x.size, dtype=bool)
    margin = (exclusion_cells + 0.5) * dx
    for edge in (profile.x1, profile.length - profile.x1):
        keep &= np.abs(x - edge) > margin
    return float(flux_res[keep].max()), float(v_res[keep].max())


# ---------------------------------------------------------------------------
# sufficient conditions producing admissible offsets


def lambda_window_from_tangency(c: CoefficientSet, gb: GammaBeta,
                                shift: float = 1e-2,
                                scan_max: Optional[float] = None) -> tuple[float, float]:
    """Offset window (lam_base, lam_base + width) of crossing-pattern triplets.

    At lam_base = cell_potential(1) - chem_potential(gamma/beta) the clamped
    profile map touches the line (beta/gamma)s exactly at the ceiling
    gamma/beta.  If the profile map rises steeper than the line at that
    contact (checked by a one-sided slope), nudging lam upward by less than

        width = inf_s [chem_potential(s + shift) - chem_potential(s)]

    slides the contact into a transversal crossing pair, so every lam in the
    open window passes :func:`find_crossings`.
    """
    co.check_separable_structure(c)
    q = gb.ratio
    top = co.cell_potential_at_one(c)
    if not math.isfinite(top):
        raise StructuralError("cell potential diverges at 1: no saturation level exists")
    lam_base = top - co.chem_potential(c, q)

    # one-sided slope of the profile map at the tangency level
    s_probe = q * (1.0 - 1e-7)
    u_probe = _profile_map(c, lam_base, q)(s_probe)
    slope = co.chem_potential_slope(c, s_probe) / co.cell_potential_slope(c, u_probe)
    if not slope > q:
        raise StructuralError(
            f"profile-map slope {slope:.6g} at the tangency does not exceed gamma/beta={q:.6g}")

    hi = scan_max if scan_max is not None else q + 1.0
    s_grid = np.linspace(0.0, hi, 2049)
    gaps = np.array([co.chem_potential(c, s + shift) - co.chem_potential(c, s)
                     for s in s_grid])
    width = float(gaps.min())
    if width <= 0.0:
        raise StructuralError("chemical potential is not strictly increasing on the scan window")
    return lam_base, width


def lambda_interval_from_slopes(c: CoefficientSet, gb: GammaBeta) -> tuple[float, tuple[float, float]]:
    """Slope-matching interval of admissible offsets.

    Solves cell_potential'(r) = (gamma/beta) chem_potential'((gamma/beta) r)
    for its largest root r_star in (0, 1); every lam strictly inside

        (cell_potential(1) - chem_potential(gamma/beta),
         cell_potential(r_star) - chem_potential((gamma/beta) r_star))

    passes the crossing pattern.  Requires the limiting slope of the cell
    potential at 1 to stay below (gamma/beta) chem_potential'(gamma/beta).
    """
    co.check_separable_structure(c)
    q = gb.ratio
    top = co.cell_potential_at_one(c)
    if not math.isfinite(top):
        raise StructuralError("cell potential diverges at 1: slope matching not applicable")

    def slope_gap(r: float) -> float:
        return q * co.chem_potential_slope(c, q * r) - co.cell_potential_slope(c, r)

    r_hi = 1.0 - 1e-9
    if not slope_gap(r_hi) > 0.0:
        raise StructuralError(
            "limiting slope condition fails: cell potential is too steep at 1")

    r_grid = np.linspace(1e-6, r_hi, 4096)
    vals = np.array([slope_gap(r) for r in r_grid])
    sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_changes.size == 0:
        raise StructuralError("no slope-matching point in (0, 1)")
    i = sign_changes[-1]
    r_star = brentq(slope_gap, r_grid[i], r_grid[i + 1], xtol=ROOT_TOL)

    lo = top - co.chem_potential(c, q)
    hi = co.cell_potential(c, r_star) - co.chem_potential(c, q * r_star)
    if not lo < hi:
        raise StructuralError("slope-matching interval is empty")
    return float(r_star), (float(lo), float(hi))


def canonical_params() -> PhaseParams:
    """Example-C at gamma/beta = 3 with lam at 0.035 of the slope interval: the
    canonical setup, whose shallow hump keeps the edge-cell kink mild."""
    c3 = co.with_reaction(co.preset("example-C"), GammaBeta(3.0, 1.0))
    _, (lo, hi) = lambda_interval_from_slopes(c3, c3.linear_reaction)
    return find_crossings(c3, lo + 0.035 * (hi - lo))


def density_bounds_from_mass(c: CoefficientSet, gb: GammaBeta, mass_m: float,
                             domain_size: float) -> tuple[float, float]:
    """A priori density bounds for stationary states of prescribed mass.

    Applies only when the cell potential diverges at 1 (the profile map then
    never saturates).  Both bounds lie strictly inside (0, 1) and bracket
    the mean density mass_m / domain_size.
    """
    top = co.cell_potential_at_one(c)
    if math.isfinite(top):
        raise InputError(
            "density bounds require a divergent cell potential at 1 "
            f"(got cell_potential(1)={top:.6g})")
    if not 0.0 < mass_m < domain_size:
        raise InputError("mass must lie strictly between 0 and the domain size")
    mean = mass_m / domain_size
    j_mean = co.cell_potential(c, mean)
    spread = co.chem_potential(c, gb.ratio)
    lo = co.cell_potential_inv(c, j_mean - spread)
    hi = co.cell_potential_inv(c, j_mean + spread)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# cross-check against the time-dependent solver


def stationarity_drift(profile: StationaryProfile, cfg, t_check: float = 0.5) -> float:
    """Sup-norm drift of (u, v) after evolving the profile for t_check.

    Seeds the finite-volume solver with the sampled profile and integrates;
    a genuine stationary state drifts only by the discretization error,
    which must shrink under simultaneous refinement.
    """
    from dataclasses import replace as dc_replace

    from .pde import run

    cfg_run = dc_replace(cfg, t_end=t_check)
    snaps, _ = run(np.clip(profile.u, 0.0, 1.0), profile.v, profile.grid,
                   profile.params.coeffs, cfg_run, sample_times=())
    final = snaps[-1]
    return max(float(np.max(np.abs(final.u - profile.u))),
               float(np.max(np.abs(final.v - profile.v))))
