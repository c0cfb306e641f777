"""Model coefficients for the volume-filling chemotaxis system.

A :class:`CoefficientSet` bundles the diffusion coefficient ``D(r, s)``, the
chemotactic sensitivity ``h(r, s)`` and the reaction term ``g(r, s)`` of

    u_t = (D(u, v) u_x - h(u, v) v_x)_x,      v_t = v_xx + g(u, v),

together with whatever closed forms are known for derived quantities:

* the Kirchhoff transform  K(r, s) = integral of D(sigma, s) over sigma in
  (0, r), which turns the degenerate diffusive flux into an exact difference
  and is the backbone of the finite-volume scheme;
* for separable sets D = D1(r) D2(s), h = h1(r) h2(s), the strictly
  increasing potentials

      cell_potential(r) = integral_{1/2}^{r} D1/h1,
      chem_potential(s) = integral_{0}^{s} h2/D2,

  whose difference is conserved along stationary profiles.

Every derived quantity falls back to adaptive quadrature / bracketed root
finding when no closed form is registered, so the closed forms can always be
cross-checked against the generic numeric path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from .errors import DivergenceError, InputError, RangeError, StructuralError

QUAD_ABS_TOL = 1e-12
INVERT_REL_TOL = 1e-13
KIRCHHOFF_NODES = 24      # Gauss-Legendre nodes when D is not a polynomial in r

Func2 = Callable[[np.ndarray, np.ndarray], np.ndarray]
Func1 = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GammaBeta:
    """Positive rates of the linear reaction g(r, s) = gamma*r - beta*s."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.beta > 0):
            raise InputError("gamma and beta must be positive")

    @property
    def ratio(self) -> float:
        """gamma/beta, the ceiling of the chemical concentration."""
        return self.gamma / self.beta


@dataclass(frozen=True)
class SeparableFactors:
    """Factorization D = D1(r) D2(s), h = h1(r) h2(s)."""

    d1: Func1
    d2: Func1
    h1: Func1
    h2: Func1
    # optional closed forms; all generic paths fall back to quadrature
    cell_potential: Optional[Func1] = None        # integral_{1/2}^r D1/h1
    cell_potential_inv: Optional[Func1] = None
    chem_potential: Optional[Func1] = None        # integral_0^s h2/D2
    chem_potential_inv: Optional[Func1] = None


@dataclass(frozen=True)
class CoefficientSet:
    """The model functions with structural metadata.

    All callables accept and return numpy arrays (broadcasting); scalar
    input yields scalar-like output.  Instances are immutable values and
    safe to share between threads.
    """

    name: str
    D: Func2
    h: Func2
    g: Func2
    kappa: float = 0.0
    eps: float = 0.0                      # regularization already applied to D
    separable: Optional[SeparableFactors] = None
    antiderivative_D: Optional[Func2] = None      # Kirchhoff transform of the *unshifted* D
    antiderivative_D_s: Optional[Func2] = None    # its partial derivative in s
    linear_reaction: Optional[GammaBeta] = None   # set when g is exactly gamma*r - beta*s
    kirchhoff_nodes: int = KIRCHHOFF_NODES        # Gauss-Legendre rule of kirchhoff_many

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Kirchhoff transform and its s-derivative


def _check_domain(r: float, s: float) -> None:
    if not (0.0 <= r <= 1.0) or np.isnan(r):
        raise InputError(f"r={r} outside [0, 1]")
    if s < 0.0 or np.isnan(s):
        raise InputError(f"s={s} must be nonnegative")


def kirchhoff(c: CoefficientSet, r: float, s: float) -> float:
    """Integral of D(sigma, s) for sigma in (0, r), including any eps shift.

    Uses the registered closed form when available, otherwise adaptive
    quadrature with absolute tolerance ``QUAD_ABS_TOL``.
    """
    _check_domain(r, s)
    if c.antiderivative_D is not None:
        return float(c.antiderivative_D(r, s)) + c.eps * r
    if r == 0.0:
        return 0.0
    val, _ = quad(lambda sig: float(c.D(sig, s)), 0.0, r,
                  epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=200)
    return val


def kirchhoff_s(c: CoefficientSet, r: float, s: float) -> float:
    """Partial derivative of the Kirchhoff transform with respect to s.

    The eps shift is r-linear and drops out.  Without a closed form, uses a
    central difference of :func:`kirchhoff` with step 1e-6 * max(1, s)
    (one-sided at s = 0).
    """
    _check_domain(r, s)
    if c.antiderivative_D_s is not None:
        return float(c.antiderivative_D_s(r, s))
    step = 1e-6 * max(1.0, s)
    lo = s - step
    if lo < 0.0:
        return (kirchhoff(c, r, s + step) - kirchhoff(c, r, s)) / step
    return (kirchhoff(c, r, s + step) - kirchhoff(c, r, lo)) / (2.0 * step)


def kirchhoff_many(c: CoefficientSet, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized Kirchhoff transform used by the solver's flux loop.

    Closed form when registered; otherwise a Gauss-Legendre rule of
    ``c.kirchhoff_nodes`` points per entry.  :func:`from_expressions` picks
    the smallest rule exact for a D that is a polynomial in r (k points
    integrate degree 2k - 1 exactly), so such a K is exact to roundoff.  Any
    other D gets KIRCHHOFF_NODES points, whose error depends on D's
    smoothness, and costs a (size x KIRCHHOFF_NODES) array per call.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if c.antiderivative_D is not None:
        return np.asarray(c.antiderivative_D(r, s), dtype=float) + c.eps * r
    nodes, weights = _gauss_legendre_cache(c.kirchhoff_nodes)
    # map nodes from (-1, 1) onto (0, r_i) for every entry; includes any eps
    # shift since c.D already carries it
    half = 0.5 * r
    sig = half[..., None] * (nodes + 1.0)
    vals = c.D(sig, s[..., None])
    return np.einsum("...k,k->...", vals, weights) * half


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre_cache(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def kirchhoff_s_many(c: CoefficientSet, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized partial of the Kirchhoff transform in s."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if c.antiderivative_D_s is not None:
        return np.asarray(c.antiderivative_D_s(r, s), dtype=float)
    step = 1e-6 * np.maximum(1.0, s)
    lo = np.maximum(s - step, 0.0)
    hi = s + step
    return (kirchhoff_many(c, r, hi) - kirchhoff_many(c, r, lo)) / (hi - lo)


def regularize(c: CoefficientSet, eps: float) -> CoefficientSet:
    """Shift the diffusion coefficient by ``eps`` (uniform parabolicity).

    h and g are unchanged; the Kirchhoff transform gains exactly eps * r,
    and D's degree in r (so its Gauss-Legendre rule) is unchanged.
    """
    if not eps > 0.0:
        raise InputError(f"eps={eps} must be positive")
    base_D = c.D

    def shifted(r, s, _D=base_D, _e=eps):
        return _D(r, s) + _e

    return replace(c, name=f"{c.name}+eps={eps:g}", D=shifted, eps=c.eps + eps)


# ---------------------------------------------------------------------------
# Monotone potentials of separable sets


def _require_separable(c: CoefficientSet) -> SeparableFactors:
    if c.separable is None:
        raise StructuralError(f"{c.name}: no separable factorization registered")
    return c.separable


def cell_potential(c: CoefficientSet, r: float) -> float:
    """Integral of D1/h1 from 1/2 to r; strictly increasing on (0, 1).

    Diverges to -inf as r -> 0 (the integrand behaves like 1/r there), so
    r = 0 is rejected.  r = 1 is allowed and may be finite or +inf; see
    :func:`cell_potential_at_one`.
    """
    sep = _require_separable(c)
    if not (0.0 < r <= 1.0):
        if r == 0.0:
            raise DivergenceError("cell potential diverges at r = 0")
        raise InputError(f"r={r} outside (0, 1]")
    if sep.cell_potential is not None:
        return float(sep.cell_potential(r))
    return _cell_potential_quad(sep, r)


def _cell_potential_quad(sep: SeparableFactors, r: float) -> float:
    def integrand(sig):
        return sep.d1(sig) / sep.h1(sig)

    # below 1e-3 the integrand is close to its 1/r divergence; the explicit
    # breakpoint keeps the adaptive subdivision focused there
    pts = [1e-3] if r < 1e-3 else None
    val, _ = quad(integrand, 0.5, r, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL,
                  points=pts, limit=400)
    return val


def chem_potential(c: CoefficientSet, s: float) -> float:
    """Integral of h2/D2 from 0 to s; strictly increasing on (0, inf)."""
    sep = _require_separable(c)
    if s < 0.0:
        raise InputError(f"s={s} must be nonnegative")
    if sep.chem_potential is not None:
        return float(sep.chem_potential(s))
    if s == 0.0:
        return 0.0
    val, _ = quad(lambda sig: sep.h2(sig) / sep.d2(sig), 0.0, s,
                  epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=400)
    return val


def cell_potential_at_one(c: CoefficientSet) -> float:
    """cell_potential(1), detecting divergence.

    D1/h1 may fail to be integrable up to r = 1 (both factors vanish there);
    the transform is then a bijection onto the whole line and the flat-hump
    construction does not apply.  Detection compares quadrature on the
    shrinking tails [1 - 2^-k, 1]: a divergent integral keeps contributing.
    Returns the finite value or ``math.inf``.
    """
    sep = _require_separable(c)
    if sep.cell_potential is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            v = float(sep.cell_potential(1.0))
        return v if np.isfinite(v) else math.inf

    def integrand(sig):
        return sep.d1(sig) / sep.h1(sig)

    total, _ = quad(integrand, 0.5, 1.0 - 2.0 ** -10, epsabs=QUAD_ABS_TOL,
                    epsrel=QUAD_ABS_TOL, limit=400)
    prev_tail = None
    with warnings.catch_warnings():
        # probing divergence on shrinking shells, roundoff warnings expected
        warnings.simplefilter("ignore", IntegrationWarning)
        for k in range(10, 40):
            a, b = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
            tail, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)
            total += tail
            if prev_tail is not None and tail < 0.5 * prev_tail and tail < 1e-11:
                return total
            prev_tail = tail
    # tails not decaying: geometric dyadic shells each contribute ~constant
    # (or growing) mass, the signature of a log-or-worse divergence
    return math.inf


def cell_potential_inv(c: CoefficientSet, y: float) -> float:
    """Inverse of :func:`cell_potential`; returns r in (0, 1)."""
    sep = _require_separable(c)
    top = cell_potential_at_one(c)
    if y >= top:
        raise RangeError(f"y={y} is not below cell_potential(1)={top}")
    if sep.cell_potential_inv is not None:
        return float(sep.cell_potential_inv(y))
    fn = lambda r: cell_potential(c, r) - y
    lo = 0.5
    while fn(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise RangeError(f"y={y} below the range of the cell potential")
    hi = 0.75
    while fn(hi) < 0.0:
        hi = 0.5 * (1.0 + hi)
        if 1.0 - hi < 1e-15:
            hi = 1.0 - 1e-15
            break
    return brentq(fn, lo, hi, xtol=1e-300, rtol=INVERT_REL_TOL)


def chem_potential_inv(c: CoefficientSet, y: float) -> float:
    """Inverse of :func:`chem_potential`; returns s >= 0."""
    sep = _require_separable(c)
    if y < 0.0:
        raise RangeError(f"y={y} must be nonnegative")
    if y == 0.0:
        return 0.0
    if sep.chem_potential_inv is not None:
        return float(sep.chem_potential_inv(y))
    fn = lambda s: chem_potential(c, s) - y
    hi = 1.0
    while fn(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise OverflowError(f"cannot bracket chem_potential_inv({y})")
    return brentq(fn, 0.0, hi, xtol=1e-300, rtol=INVERT_REL_TOL)


def cell_potential_slope(c: CoefficientSet, r: float) -> float:
    """Exact derivative D1(r)/h1(r) of the cell potential."""
    sep = _require_separable(c)
    return float(sep.d1(r)) / float(sep.h1(r))


def chem_potential_slope(c: CoefficientSet, s: float) -> float:
    """Exact derivative h2(s)/D2(s) of the chemical potential."""
    sep = _require_separable(c)
    return float(sep.h2(s)) / float(sep.d2(s))


def numeric_only(c: CoefficientSet) -> CoefficientSet:
    """Copy of ``c`` with every closed form stripped.

    All derived quantities then go through quadrature / bisection, which is
    how tests cross-validate the registered closed forms.
    """
    sep = c.separable
    if sep is not None:
        sep = SeparableFactors(d1=sep.d1, d2=sep.d2, h1=sep.h1, h2=sep.h2)
    return replace(c, name=f"{c.name}(numeric)", separable=sep,
                   antiderivative_D=None, antiderivative_D_s=None)


# ---------------------------------------------------------------------------
# Structural condition checkers (sampled evidence, not proofs)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_value: Optional[float] = None
    worst_point: Optional[tuple] = None
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of sampled structural checks.

    A pass is evidence on the sampled grid, not a proof over the whole
    domain; ``grid_n`` documents the sampling density.
    """

    coefficient_name: str
    grid_n: int
    s_max: float
    checks: tuple[ConditionCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)

    @property
    def empirical_m(self) -> float:
        """Largest |d/ds Kirchhoff| seen on the grid."""
        return self["kirchhoff-s-bound"].worst_value

    def summary_lines(self) -> list[str]:
        out = []
        for ch in self.checks:
            status = "pass" if ch.passed else "FAIL"
            extra = "" if ch.worst_value is None else f"  worst={ch.worst_value:.6g}"
            if not ch.passed and ch.worst_point is not None:
                extra += f" at {ch.worst_point}"
            out.append(f"  [{status}] {ch.name}{extra}{('  ' + ch.note) if ch.note else ''}")
        return out


def _first_violation(mask: np.ndarray, rr: np.ndarray, ss: np.ndarray,
                     vals: np.ndarray):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None, None
    i = tuple(idx[0])
    return float(vals[i]), (float(rr[i]), float(ss[i]))


def check_conditions(c: CoefficientSet, s_max: float, grid_n: int = 64, *,
                     tol: float = 1e-9, edge_gap: float = 1.0 / 64.0) -> ConditionReport:
    """Sample the structural conditions on [0, 1] x [0, s_max].

    Checks degeneracy D(1, s) = 0, positivity of D away from r = 1
    (within ``edge_gap``; D may vanish only at the saturation density),
    the sensitivity zeros/positivity, the reaction conditions g(r, 0) >= 0
    and difference-quotient slope <= kappa, boundedness of the Kirchhoff
    s-derivative, and consistency of any registered separable factors.
    """
    if not s_max > 0:
        raise InputError("s_max must be positive")
    if grid_n < 16:
        raise InputError("grid_n must be at least 16")
    r = np.linspace(0.0, 1.0, grid_n)
    s = np.linspace(0.0, s_max, grid_n)
    rr, ss = np.meshgrid(r, s, indexing="ij")
    checks = []

    d_at_one = np.abs(np.asarray(c.D(np.ones_like(s), s), dtype=float)) - c.eps
    bad = d_at_one > tol
    wv, wp = _first_violation(bad, np.ones_like(s), s, d_at_one)
    checks.append(ConditionCheck("diffusion-degenerate-at-one", not bad.any(),
                                 wv if bad.any() else float(d_at_one.max()),
                                 wp, note="|D(1,s)| - eps"))

    interior = rr <= 1.0 - edge_gap
    d_vals = np.asarray(c.D(rr, ss), dtype=float)
    bad = (d_vals <= 0.0) & interior
    wv, wp = _first_violation(bad, rr, ss, d_vals)
    checks.append(ConditionCheck(
        "diffusion-positive", not bad.any(),
        wv if bad.any() else float(d_vals[interior].min()), wp,
        note=f"sampled on r <= {1 - edge_gap:g}"))

    h_ends = np.abs(np.asarray(c.h(np.zeros_like(s), s), dtype=float))
    h_ends = np.maximum(h_ends, np.abs(np.asarray(c.h(np.ones_like(s), s), dtype=float)))
    bad = h_ends > tol
    wv, wp = _first_violation(bad, np.zeros_like(s), s, h_ends)
    checks.append(ConditionCheck("sensitivity-zero-at-ends", not bad.any(),
                                 wv if bad.any() else float(h_ends.max()), wp))

    inner = (rr > 0.0) & (rr < 1.0)
    h_vals = np.asarray(c.h(rr, ss), dtype=float)
    bad = (h_vals <= 0.0) & inner
    wv, wp = _first_violation(bad, rr, ss, h_vals)
    checks.append(ConditionCheck("sensitivity-positive", not bad.any(),
                                 wv if bad.any() else float(h_vals[inner].min()), wp))

    g0 = np.asarray(c.g(r, np.zeros_like(r)), dtype=float)
    bad = g0 < -tol
    wv, wp = _first_violation(bad, r, np.zeros_like(r), g0)
    checks.append(ConditionCheck("reaction-nonnegative-at-zero", not bad.any(),
                                 wv if bad.any() else float(g0.min()), wp))

    # difference quotients in s at a few scales, compared against kappa
    worst_q = -np.inf
    worst_pt = None
    for delta in (1e-3 * max(1.0, s_max), 1e-2 * max(1.0, s_max)):
        quot = (np.asarray(c.g(rr, ss + delta), dtype=float) - np.asarray(c.g(rr, ss), dtype=float)) / delta
        k = int(np.argmax(quot))
        if quot.flat[k] > worst_q:
            worst_q = float(quot.flat[k])
            worst_pt = (float(rr.flat[k]), float(ss.flat[k]))
    ok = worst_q <= c.kappa + max(tol, 1e-6)
    checks.append(ConditionCheck("reaction-slope-bound", ok, worst_q,
                                 None if ok else worst_pt,
                                 note=f"kappa={c.kappa:g}"))

    ks = np.abs(kirchhoff_s_many(c, rr, ss))
    k = int(np.argmax(ks))
    checks.append(ConditionCheck("kirchhoff-s-bound", bool(np.isfinite(ks).all()),
                                 float(ks.flat[k]),
                                 (float(rr.flat[k]), float(ss.flat[k])),
                                 note="empirical bound M"))

    if c.separable is not None:
        sep = c.separable
        d_split = np.asarray(sep.d1(rr), dtype=float) * np.asarray(sep.d2(ss), dtype=float)
        h_split = np.asarray(sep.h1(rr), dtype=float) * np.asarray(sep.h2(ss), dtype=float)
        err = np.maximum(np.abs(d_vals - c.eps - d_split), np.abs(h_vals - h_split))
        k = int(np.argmax(err))
        ok = err.flat[k] <= max(tol, 1e-9)
        checks.append(ConditionCheck("separable-consistency", ok, float(err.flat[k]),
                                     None if ok else (float(rr.flat[k]), float(ss.flat[k]))))

    return ConditionReport(c.name, grid_n, s_max, tuple(checks))


def check_separable_structure(c: CoefficientSet, *, tol: float = 1e-9,
                              grid_n: int = 128) -> None:
    """Raise StructuralError unless the separable factors have the right shape.

    Requires D1(1) = 0, D1 > 0 on [0, 1), h1(0) = h1(1) = 0, h1 > 0 on
    (0, 1), and D2, h2 > 0 on the sampled s range.
    """
    sep = _require_separable(c)
    r = np.linspace(0.0, 1.0, grid_n)
    inner = r[1:-1]
    if abs(float(sep.d1(1.0))) > tol:
        raise StructuralError(f"{c.name}: D1(1) = {float(sep.d1(1.0)):g} != 0")
    if np.any(np.asarray(sep.d1(r[:-1]), dtype=float) <= 0.0):
        raise StructuralError(f"{c.name}: D1 must be positive on [0, 1)")
    if abs(float(sep.h1(0.0))) > tol or abs(float(sep.h1(1.0))) > tol:
        raise StructuralError(f"{c.name}: h1 must vanish at r = 0 and r = 1")
    if np.any(np.asarray(sep.h1(inner), dtype=float) <= 0.0):
        raise StructuralError(f"{c.name}: h1 must be positive on (0, 1)")
    s = np.linspace(0.0, 10.0, grid_n)
    if np.any(np.asarray(sep.d2(s), dtype=float) <= 0.0):
        raise StructuralError(f"{c.name}: D2 must be positive")
    if np.any(np.asarray(sep.h2(s), dtype=float) <= 0.0):
        raise StructuralError(f"{c.name}: h2 must be positive")


@dataclass(frozen=True)
class UniquenessReport:
    """Smallest empirical constants for the coupling inequality

        (h(r1,s1) - h(r2,s2))^2 <= C0 (r1-r2)(K(r1)-K(r2)) + C1 (s1-s2)^2

    over sampled pairs, with C1 held at ``c1``; plus the affine-in-r
    decomposition check for the reaction term.
    """

    coefficient_name: str
    satisfiable: bool
    c0: float
    c1: float
    worst_pair: Optional[tuple] = None
    reaction_affine: bool = True
    n_pairs: int = 0

    @property
    def passed(self) -> bool:
        return self.satisfiable and self.reaction_affine


def check_uniqueness_conditions(c: CoefficientSet, s_max: float,
                                n_pairs: int = 10_000, *, c1: float = 2.0,
                                seed: int = 0) -> UniquenessReport:
    """Empirically bound the constants in the uniqueness-type coupling condition.

    Requires D to be independent of s (verified by sampling).  For each
    random pair the required C0 (at fixed C1) is
    max(0, ((dh)^2 - C1 (ds)^2) / ((dr)(dK))); the report carries the
    maximum and the pair attaining it.  Pairs with dr = 0 must satisfy the
    inequality from the C1 term alone.
    """
    rng = np.random.default_rng(seed)
    r_probe = np.linspace(0.0, 1.0, 33)
    d0 = np.asarray(c.D(r_probe, np.zeros_like(r_probe)), dtype=float)
    dK = np.asarray(c.D(r_probe, np.full_like(r_probe, s_max)), dtype=float)
    if np.max(np.abs(d0 - dK)) > 1e-10:
        raise InputError(f"{c.name}: D depends on s; coupling condition not applicable")

    r1, r2 = rng.uniform(0.0, 1.0, (2, n_pairs))
    s1, s2 = rng.uniform(0.0, s_max, (2, n_pairs))
    dh2 = (np.asarray(c.h(r1, s1), dtype=float) - np.asarray(c.h(r2, s2), dtype=float)) ** 2
    K1 = kirchhoff_many(c, r1, np.zeros_like(r1))
    K2 = kirchhoff_many(c, r2, np.zeros_like(r2))
    denom = (r1 - r2) * (K1 - K2)          # nonnegative: K nondecreasing in r
    numer = dh2 - c1 * (s1 - s2) ** 2

    satisfiable = True
    worst_pair = None
    degenerate = denom <= 1e-300
    if np.any(numer[degenerate] > 1e-12):
        satisfiable = False
        k = int(np.argwhere(degenerate)[np.argmax(numer[degenerate])][0])
        worst_pair = ((float(r1[k]), float(s1[k])), (float(r2[k]), float(s2[k])))
        c0 = math.inf
    else:
        ratios = np.where(degenerate, 0.0, numer / np.where(degenerate, 1.0, denom))
        k = int(np.argmax(ratios))
        c0 = max(0.0, float(ratios[k]))
        worst_pair = ((float(r1[k]), float(s1[k])), (float(r2[k]), float(s2[k])))

    affine = _reaction_is_affine(c, s_max)
    return UniquenessReport(c.name, satisfiable, c0, c1, worst_pair, affine, n_pairs)


def _reaction_is_affine(c: CoefficientSet, s_max: float, tol: float = 1e-9) -> bool:
    s = np.linspace(0.0, s_max, 65)
    g0 = np.asarray(c.g(np.zeros_like(s), s), dtype=float)
    g1 = np.asarray(c.g(np.ones_like(s), s), dtype=float)
    gm = np.asarray(c.g(np.full_like(s, 0.5), s), dtype=float)
    return bool(np.max(np.abs(gm - 0.5 * (g0 + g1))) <= tol)


# ---------------------------------------------------------------------------
# Presets


def _linear_reaction_funcs(gb: GammaBeta):
    def g(r, s, _g=gb.gamma, _b=gb.beta):
        return _g * np.asarray(r, dtype=float) - _b * np.asarray(s, dtype=float)
    return g


def with_reaction(c: CoefficientSet, gb: GammaBeta) -> CoefficientSet:
    """Copy of ``c`` with the linear reaction rates replaced."""
    return replace(c, g=_linear_reaction_funcs(gb), linear_reaction=gb, kappa=0.0)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _separable_preset(name: str, sep: SeparableFactors, d1_integral: Func1,
                      d2_slope: Func1) -> CoefficientSet:
    """A preset derived from its factors: D = D1 D2, h = h1 h2, the Kirchhoff
    transform (integral_0^r D1) D2 and its s-derivative (integral_0^r D1) D2',
    and the reaction g = r - s."""
    def D(r, s):
        return sep.d1(r) * sep.d2(s)

    def h(r, s):
        return sep.h1(r) * sep.h2(s)

    def K(r, s):
        return d1_integral(r) * sep.d2(s)

    def K_s(r, s):
        if d2_slope is _zeros:      # constant D2: no need to integrate D1
            return np.zeros(np.broadcast_shapes(np.shape(r), np.shape(s)))
        return d1_integral(r) * d2_slope(s)

    gb = GammaBeta(1.0, 1.0)
    return CoefficientSet(name, D, h, _linear_reaction_funcs(gb), separable=sep,
                          antiderivative_D=K, antiderivative_D_s=K_s, linear_reaction=gb)


def _square_integral(r):
    return (1.0 - (1.0 - r) ** 3) / 3.0             # integral_0^r (1 - sigma)^2


def _linear_integral(r):
    return r - 0.5 * r ** 2                         # integral_0^r (1 - sigma)


def _expit(y):
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0, 1.0 / (1.0 + np.exp(-y)), np.exp(y) / (1.0 + np.exp(y)))


_PRESETS: dict[str, CoefficientSet] = {c.name: c for c in (
    # D = (1-r)^2 (s+1), h = r (1-r)^2 (s+1): chemical-dependent diffusion
    _separable_preset("example-A", SeparableFactors(
        d1=lambda r: (1.0 - r) ** 2,
        d2=lambda s: s + 1.0,
        h1=lambda r: r * (1.0 - r) ** 2,
        h2=lambda s: s + 1.0,
        cell_potential=lambda r: np.log(2.0 * r),       # integral of 1/r from 1/2
        cell_potential_inv=lambda y: 0.5 * np.exp(y),
        chem_potential=lambda s: np.asarray(s, dtype=float) + 0.0,
        chem_potential_inv=lambda y: np.asarray(y, dtype=float) + 0.0,
    ), _square_integral, _ones),
    # D = (1-r)^2 (s-independent), h = r (1-r)^2 (s+1)
    _separable_preset("example-B", SeparableFactors(
        d1=lambda r: (1.0 - r) ** 2,
        d2=_ones,
        h1=lambda r: r * (1.0 - r) ** 2,
        h2=lambda s: s + 1.0,
        cell_potential=lambda r: np.log(2.0 * r),
        cell_potential_inv=lambda y: 0.5 * np.exp(y),
        chem_potential=lambda s: 0.5 * np.asarray(s, dtype=float) ** 2 + s,
        chem_potential_inv=lambda y: np.sqrt(1.0 + 2.0 * np.asarray(y, dtype=float)) - 1.0,
    ), _square_integral, _zeros),
    # h1 = r D1 and h2 = e^s D2 with D1 = 1 - r, D2 = 1: the flat-hump worked
    # example, whose cell potential is log 2r and chemical potential e^s - 1
    _separable_preset("example-C", SeparableFactors(
        d1=lambda r: 1.0 - np.asarray(r, dtype=float),
        d2=_ones,
        h1=lambda r: r * (1.0 - r),
        h2=np.exp,
        cell_potential=lambda r: np.log(2.0 * r),
        cell_potential_inv=lambda y: 0.5 * np.exp(y),
        chem_potential=np.expm1,
        chem_potential_inv=np.log1p,
    ), _linear_integral, _zeros),
    # D1 = 1 - r, h1 = r (1-r)^2: the cell potential is logit(r), which
    # diverges at r = 1, so the mass-based density bounds apply
    _separable_preset("example-D", SeparableFactors(
        d1=lambda r: 1.0 - np.asarray(r, dtype=float),
        d2=_ones,
        h1=lambda r: r * (1.0 - r) ** 2,
        h2=_ones,
        cell_potential=lambda r: np.log(r) - np.log1p(-r),     # logit(r)
        cell_potential_inv=_expit,
        chem_potential=lambda s: np.asarray(s, dtype=float) + 0.0,
        chem_potential_inv=lambda y: np.asarray(y, dtype=float) + 0.0,
    ), _linear_integral, _zeros),
)}


def preset(name: str) -> CoefficientSet:
    """Look up a shipped coefficient set by its config key."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise InputError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}") from None


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def from_expressions(name: str, *, D: str, h: str, g: str, kappa: float = 0.0,
                     D1: str | None = None, D2: str | None = None,
                     h1: str | None = None, h2: str | None = None) -> CoefficientSet:
    """Build a coefficient set from expression-grammar strings.

    When all four factor strings are given, the set is marked separable and
    the stationary machinery applies (factor consistency is checked by
    :func:`check_conditions`, their structure by
    :func:`check_separable_structure`).  A D of degree p in r gets the
    (p + 2) // 2-point Gauss-Legendre Kirchhoff rule, exact for it, capped
    at KIRCHHOFF_NODES; any other D gets KIRCHHOFF_NODES points.
    """
    from .expressions import parse_expression

    sep = None
    if all(x is not None for x in (D1, D2, h1, h2)):
        fd1 = parse_expression(D1)
        fd2 = parse_expression(D2)
        fh1 = parse_expression(h1)
        fh2 = parse_expression(h2)
        sep = SeparableFactors(
            d1=lambda r: fd1(r, 0.0), d2=lambda s: fd2(0.0, s),
            h1=lambda r: fh1(r, 0.0), h2=lambda s: fh2(0.0, s))
    elif any(x is not None for x in (D1, D2, h1, h2)):
        raise InputError("separable factors require all four of D1, D2, h1, h2")
    fD = parse_expression(D)
    p = fD.r_degree
    nodes = KIRCHHOFF_NODES if p is None else min(KIRCHHOFF_NODES, (p + 2) // 2)
    return CoefficientSet(name, fD, parse_expression(h), parse_expression(g), kappa=kappa,
                          separable=sep, kirchhoff_nodes=nodes)
