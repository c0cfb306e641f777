"""Output checks of the benchmark workloads.

Each check is computed here from the program's outputs, apart from the
program's own verdicts, and returns ``None`` when the output is correct or
a one-line description of what is wrong.  Tolerances are those of the
release criteria in ``tests/test_acceptance.py`` unless stated otherwise.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

MASS_TOL = 1e-11          # relative mass drift (criterion 1)
BOUND_TOL = 1e-10         # slack on the invariant region (criterion 2, the solver's TOL_BOUND)
V_CEILING_TOL = 1e-8      # v stays below gamma/beta when v0 does (criterion 2)
MIRROR_TOL = 1e-12        # even data stays even; observed gaps are <= 2e-15
LADDER_FINAL_OVER_FIRST = 0.2     # criterion 3
DRIFT_TOL = 2e-2          # `flathump verify`'s stationarity-drift tolerance
DRIFT_RATIO_RANGE = (1.5, 3.0)    # first-order rate under grid halving (criterion 7)
J_RELATION_TOL = 1e-7     # criterion 6
EXCLUSION_CELLS = 2       # v-residual skips cells this close to a plateau edge (u only Lipschitz)
MIN_RESIDUAL_ORDER = 1.0  # residual decay under grid doubling (criterion 6)
EDGE_TOL_CELLS = 1e-5     # plateau edge on a mesh interface, in cell widths
ENERGY_FLATNESS = 1e-8    # per unit period (criterion 8)
PERIOD_REL_TOL = 1e-6     # orbit period against the quadrature (criterion 8)
AGREEMENT_TOL = 1e-10     # expression-grammar run against the closed-form run


def mass_drift(u0: np.ndarray, u1: np.ndarray) -> float:
    """Relative change of sum(u) between two states on one grid (exact sums)."""
    m0 = math.fsum(np.asarray(u0, dtype=float).tolist())
    m1 = math.fsum(np.asarray(u1, dtype=float).tolist())
    return abs(m1 - m0) / abs(m0)


def mass(u0: np.ndarray, u1: np.ndarray) -> Optional[str]:
    drift = mass_drift(u0, u1)
    return None if drift <= MASS_TOL else f"relative mass drift {drift:.3e} > {MASS_TOL:g}"


def bounds(u: np.ndarray, v: np.ndarray, v_ceiling: float) -> Optional[str]:
    """0 <= u <= 1 and 0 <= v <= v_ceiling + V_CEILING_TOL."""
    u_lo, u_hi, v_lo, v_hi = float(u.min()), float(u.max()), float(v.min()), float(v.max())
    if u_lo < -BOUND_TOL or u_hi > 1.0 + BOUND_TOL:
        return f"u in [{u_lo:.3e}, {u_hi:.17g}] leaves [0, 1]"
    if v_lo < -BOUND_TOL or v_hi > v_ceiling + V_CEILING_TOL:
        return f"v in [{v_lo:.3e}, {v_hi:.17g}] leaves [0, {v_ceiling:g}]"
    return None


def mirror_symmetry(u: np.ndarray) -> Optional[str]:
    """u(x) = u(L - x) on a cell-centred mesh."""
    gap = float(np.max(np.abs(u - u[::-1])))
    return None if gap <= MIRROR_TOL else f"mirror-symmetry gap {gap:.3e} > {MIRROR_TOL:g}"


def cauchy_ladder(diffs: Sequence[float]) -> Optional[str]:
    """Cauchy differences decrease strictly and shrink by the required factor."""
    if not all(b < a for a, b in zip(diffs, diffs[1:])):
        return f"Cauchy differences {list(diffs)} do not decrease strictly"
    ratio = diffs[-1] / diffs[0]
    if not ratio <= LADDER_FINAL_OVER_FIRST:
        return f"Cauchy final/first {ratio:.3f} > {LADDER_FINAL_OVER_FIRST:g}"
    return None


def sup_drift(u0: np.ndarray, v0: np.ndarray, u1: np.ndarray, v1: np.ndarray) -> float:
    return max(float(np.max(np.abs(u1 - u0))), float(np.max(np.abs(v1 - v0))))


def drift_refinement(coarse: float, fine: float) -> Optional[str]:
    """Fine-grid drift within tolerance and a first-order coarse/fine ratio."""
    if not fine <= DRIFT_TOL:
        return f"sup drift {fine:.3e} at the finer grid > {DRIFT_TOL:g}"
    ratio = coarse / fine
    lo, hi = DRIFT_RATIO_RANGE
    if not lo < ratio < hi:
        return f"coarse/fine drift ratio {ratio:.3f} outside ({lo:g}, {hi:g})"
    return None


def v_residual(u: np.ndarray, v: np.ndarray, length: float, beta: float, gamma: float,
               x1: float) -> float:
    """sup |-v'' + beta v - gamma u| by the 3-point second difference.

    Cells whose centre lies within ``EXCLUSION_CELLS + 1/2`` cell widths of
    a plateau edge are skipped: u is only Lipschitz there.  The program's
    own residual uses a 5-point stencil; this one is independent of it.
    """
    n = v.size
    dx = length / n
    x = (np.arange(1, n - 1) + 0.5) * dx
    res = np.abs(-(v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx ** 2 + beta * v[1:-1] - gamma * u[1:-1])
    keep = np.ones(x.size, dtype=bool)
    for edge in (x1, length - x1):
        keep &= np.abs(x - edge) > (EXCLUSION_CELLS + 0.5) * dx
    return float(res[keep].max())


def residual_within(residual: float, tol: float) -> Optional[str]:
    return None if residual <= tol else f"v-equation residual {residual:.3e} > {tol:g}"


def residual_order(residuals: Sequence[float]) -> Optional[str]:
    """Residuals on successively doubled grids decay at least at ``MIN_RESIDUAL_ORDER``."""
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    if not all(o >= MIN_RESIDUAL_ORDER for o in orders):
        return f"residual orders {['%.2f' % o for o in orders]} below {MIN_RESIDUAL_ORDER:g}"
    return None


def j_relation(u: np.ndarray, v: np.ndarray, lam: float) -> Optional[str]:
    """log(2u) - (e^v - 1) = lam: example-C's potentials in closed form."""
    dev = float(np.max(np.abs(np.log(2.0 * u) - np.expm1(v) - lam)))
    return None if dev <= J_RELATION_TOL else f"j-relation deviation {dev:.3e} > {J_RELATION_TOL:g}"


def plateau(x: np.ndarray, u: np.ndarray, x1: float, length: float,
            mesh: int, edge_index: int) -> Optional[str]:
    """u = 1 on [x1, l - x1] and x1 on interface ``edge_index`` of a ``mesh``-cell mesh."""
    inside = (x >= x1) & (x <= length - x1)
    if not inside.any() or not np.all(u[inside] == 1.0):
        return "u is not 1 on the plateau [x1, l - x1]"
    offset = x1 * mesh / length - edge_index
    if not abs(offset) <= EDGE_TOL_CELLS:
        return f"plateau edge {offset:+.3e} cells off interface {edge_index} of {mesh}"
    return None


def energy_flat(energies: np.ndarray, period: float) -> Optional[str]:
    spread = float(np.max(np.abs(energies - energies[0])))
    tol = ENERGY_FLATNESS * period
    return None if spread <= tol else f"orbit energy varies by {spread:.3e} > {tol:.3e}"


def period_match(period: float, quadrature: float) -> Optional[str]:
    rel = abs(period - quadrature) / quadrature
    return None if rel <= PERIOD_REL_TOL else \
        f"orbit period {period:.10g} vs quadrature {quadrature:.10g} (rel {rel:.2e})"


def agreement(a: np.ndarray, b: np.ndarray) -> Optional[str]:
    gap = float(np.max(np.abs(a - b)))
    return None if gap <= AGREEMENT_TOL else f"runs differ by {gap:.3e} > {AGREEMENT_TOL:g}"
