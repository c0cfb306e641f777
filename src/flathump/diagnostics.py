"""Invariant monitors, norms, and convergence studies.

Studies never raise on a scientific failure; they return structured
verdicts so that parameter sweeps always complete.  Only malformed input
raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import InputError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .pde import Grid1D, State


# what set a step's dt: the larger term of the CFL rate (the chemotactic
# advection or the reaction; both diffusions are implicit and set none), the
# dt_max cap, or a cut at a sample time or t_end
DT_LIMITS = ("advection", "reaction", "dt_max", "truncation")


@dataclass
class RunReport:
    """Diagnostic record of one solver run."""

    mass_history: list[tuple[float, float]] = field(default_factory=list)
    u_min: list[float] = field(default_factory=list)
    u_max: list[float] = field(default_factory=list)
    v_min: list[float] = field(default_factory=list)
    v_max: list[float] = field(default_factory=list)
    dt_stats: tuple[float, float, int] = (0.0, 0.0, 0)
    dt_limits: dict[str, int] = field(default_factory=lambda: dict.fromkeys(DT_LIMITS, 0))
    newton_iterations: int = 0          # Kirchhoff-stage Newton iterations, summed over steps
    newton_iterations_max: int = 0      # and the most taken in one step
    limiter_cell_steps: int = 0         # cells whose chemotactic inflow was scaled, summed over steps
    limiter_theta_min: float = 1.0      # the smallest scale factor (1.0: the limiter never fired)
    violations: list[tuple[float, str, float]] = field(default_factory=list)

    def record_mass(self, t: float, m: float) -> None:
        self.mass_history.append((t, m))

    def record_snapshot(self, state: "State") -> None:
        self.u_min.append(float(state.u.min()))
        self.u_max.append(float(state.u.max()))
        self.v_min.append(float(state.v.min()))
        self.v_max.append(float(state.v.max()))

    def record_violations(self, state: "State", tol: float) -> None:
        over = float(state.u.max()) - 1.0
        under = -float(state.u.min())
        v_under = -float(state.v.min())
        if over > tol:
            self.violations.append((state.t, "u>1", over))
        if under > tol:
            self.violations.append((state.t, "u<0", under))
        if v_under > tol:
            self.violations.append((state.t, "v<0", v_under))

    @property
    def mass_drift(self) -> float:
        """Largest relative deviation of the mass from its initial value."""
        if not self.mass_history:
            return 0.0
        m0 = self.mass_history[0][1]
        scale = max(abs(m0), 1e-300)
        return max(abs(m - m0) for _, m in self.mass_history) / scale

    def flat_items(self) -> list[tuple[str, object]]:
        """Key-value view used by the CSV writer."""
        items: list[tuple[str, object]] = [
            ("mass_initial", self.mass_history[0][1] if self.mass_history else math.nan),
            ("mass_final", self.mass_history[-1][1] if self.mass_history else math.nan),
            ("mass_drift_rel", self.mass_drift),
            ("u_min", min(self.u_min) if self.u_min else math.nan),
            ("u_max", max(self.u_max) if self.u_max else math.nan),
            ("v_min", min(self.v_min) if self.v_min else math.nan),
            ("v_max", max(self.v_max) if self.v_max else math.nan),
            ("dt_min", self.dt_stats[0]),
            ("dt_max", self.dt_stats[1]),
            ("n_steps", self.dt_stats[2]),
            *((f"dt_set_by_{name}", count) for name, count in self.dt_limits.items()),
            ("newton_iterations", self.newton_iterations),
            ("newton_iterations_max", self.newton_iterations_max),
            ("limiter_cell_steps", self.limiter_cell_steps),
            ("limiter_theta_min", self.limiter_theta_min),
            ("n_violations", len(self.violations)),
        ]
        return items


def mass(state: "State", grid: "Grid1D") -> float:
    """sum(u) dx with compensated summation.

    The conservation claims are at the 1e-11 level on up to 1e5 cells, which
    a naive left-to-right sum cannot guarantee; math.fsum is exact.
    """
    return math.fsum(state.u.tolist()) * grid.dx


def lp_distance(a: "State", b: "State", grid: "Grid1D", p: str = "L2") -> tuple[float, float]:
    """(||u_a - u_b||_p, ||v_a - v_b||_p) with cell-average quadrature."""
    if a.u.shape != b.u.shape:
        raise InputError("states live on different grids")
    du = a.u - b.u
    dv = a.v - b.v
    if p == "L1":
        return (float(np.sum(np.abs(du))) * grid.dx, float(np.sum(np.abs(dv))) * grid.dx)
    if p == "L2":
        return (math.sqrt(float(np.sum(du * du)) * grid.dx),
                math.sqrt(float(np.sum(dv * dv)) * grid.dx))
    if p == "Linf":
        return (float(np.max(np.abs(du))), float(np.max(np.abs(dv))))
    raise InputError(f"unknown norm {p!r} (use L1, L2, Linf)")


# ---------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class StudyRow:
    label: str
    values: tuple[float, ...]


@dataclass
class StudyTable:
    """Result of a convergence/dependence study.

    ``passed`` is the scientific verdict; ``note`` explains a failure or
    flags unmet hypotheses.  Rows are deterministic in input order.
    """

    kind: str
    columns: tuple[str, ...]
    rows: list[StudyRow] = field(default_factory=list)
    passed: bool = True
    note: str = ""
    metadata: dict = field(default_factory=dict)


def eps_convergence_study(u0: np.ndarray, v0: np.ndarray, grid: "Grid1D",
                          c, cfg, eps_list: Sequence[float]) -> StudyTable:
    """Cauchy differences d(eps) = ||u^eps - u^(eps/2)||_L2 at t_end.

    Runs the solver on identical grid and data at every eps in the list and
    at every half value, and tabulates one difference per listed eps.  The
    regularized family is Cauchy as eps decreases, so the column must
    decrease strictly for the study to pass.  Every run uses ``cfg`` with
    only eps replaced.
    """
    from .pde import run

    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise InputError("eps_list needs at least 3 entries")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise InputError("eps_list must be strictly decreasing")

    all_eps = sorted({e for e in eps_list} | {0.5 * e for e in eps_list},
                     reverse=True)

    finals = {}
    for eps in all_eps:
        snaps, _ = run(u0, v0, grid, c, replace(cfg, eps=eps), sample_times=())
        finals[eps] = snaps[-1]

    table = StudyTable("eps-convergence", ("eps", "eps_half", "l2_u", "l2_v"),
                       metadata={"t_end": cfg.t_end, "n_cells": grid.n_cells,
                                 "preset": getattr(c, "name", "?")})
    diffs = []
    for e in eps_list:
        du, dv = lp_distance(finals[e], finals[0.5 * e], grid, "L2")
        diffs.append(du)
        table.rows.append(StudyRow(f"{e:g}", (e, 0.5 * e, du, dv)))
    decreasing = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    if not decreasing:
        table.passed = False
        table.note = "Cauchy differences are not strictly decreasing in eps"
    table.metadata["first_diff"] = diffs[0]
    table.metadata["last_diff"] = diffs[-1]
    return table


def continuous_dependence_study(u0: np.ndarray, v0: np.ndarray, grid: "Grid1D",
                                c, cfg, delta_list: Sequence[float],
                                perturbation: Optional[np.ndarray] = None,
                                ratio_spread: float = 3.0) -> StudyTable:
    """Normalized divergence of runs from perturbed initial data.

    Perturbs u0 by delta * w for a fixed unit-amplitude shape w and
    tabulates ||difference(t_end)||_L2 / delta.  Boundedness of the ratios
    across deltas (within ``ratio_spread``) is the pass criterion.  When the
    coefficient set falls outside the scope of the uniqueness theory
    (s-dependent diffusion), the study still runs but is flagged.
    """
    from .coefficients import check_uniqueness_conditions
    from .pde import run

    deltas = [float(d) for d in delta_list]
    if any(d < 0 for d in deltas):
        raise InputError("perturbation amplitudes must be nonnegative")
    if perturbation is None:
        x = grid.centers / grid.length
        perturbation = np.sin(2.0 * np.pi * x)
    w = np.asarray(perturbation, dtype=float)
    if np.max(np.abs(w)) > 0:
        w = w / np.max(np.abs(w))

    hypotheses = True
    note = ""
    try:
        rep = check_uniqueness_conditions(c, s_max=max(1.0, float(v0.max(initial=0.0))),
                                          n_pairs=2000)
        hypotheses = rep.passed
    except InputError:
        hypotheses = False
    if not hypotheses:
        note = "hypotheses not satisfied (diffusion depends on the chemical); study is heuristic"

    base, _ = run(u0, v0, grid, c, cfg, sample_times=())
    base_final = base[-1]
    table = StudyTable("continuous-dependence", ("delta", "l2_u_over_delta", "l2_v_over_delta"),
                       note=note,
                       metadata={"hypotheses_satisfied": hypotheses, "t_end": cfg.t_end})
    ratios = []
    for d in deltas:
        if d == 0.0:
            table.rows.append(StudyRow("0", (0.0, 0.0, 0.0)))
            continue
        u_pert = np.clip(u0 + d * w, 0.0, 1.0)
        snaps, _ = run(u_pert, v0, grid, c, cfg, sample_times=())
        du, dv = lp_distance(snaps[-1], base_final, grid, "L2")
        ratios.append(du / d)
        table.rows.append(StudyRow(f"{d:g}", (d, du / d, dv / d)))
    if ratios:
        lo, hi = min(ratios), max(ratios)
        if lo <= 0 or hi / max(lo, 1e-300) > ratio_spread:
            table.passed = False
            table.note = (note + "; " if note else "") + \
                f"normalized divergence ratios spread by {hi / max(lo, 1e-300):.3g}x"
    return table


def grid_convergence_order(solutions: Sequence[np.ndarray], grids: Sequence["Grid1D"]) -> list[float]:
    """Empirical L1 orders from solutions on successively doubled grids.

    Each fine solution is restricted to the coarser mesh by averaging cell
    pairs before differencing.
    """
    if len(solutions) < 3:
        raise InputError("need at least three resolutions")
    diffs = []
    for coarse, fine, gc in zip(solutions, solutions[1:], grids):
        restricted = 0.5 * (fine[0::2] + fine[1::2])
        diffs.append(float(np.sum(np.abs(restricted - coarse))) * gc.dx)
    return [math.log2(d1 / d2) for d1, d2 in zip(diffs, diffs[1:])]
