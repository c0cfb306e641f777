"""Conservative finite-volume solver for the regularized chemotaxis system.

Cell-centered mesh on (0, l) with no-flux boundaries.  The u-update is in
conservation form

    u_i <- u_i - (dt/dx) (F_{i+1/2} - F_{i-1/2}),       F_boundary = 0,

so the discrete mass sum(u) dx telescopes exactly.  The diffusive part of
the interface flux differences the composite Kirchhoff field K(u_i, v_i)
and subtracts the K_s correction,

    F_diff = -(K(u_R, v_R) - K(u_L, v_L))/dx + K_s(ubar, sbar) (v_R - v_L)/dx,

mirroring the identity D u_x = (K(u, v))_x - K_s(u, v) v_x; the form stays
meaningful at the degeneracy u = 1 and in the bare eps = 0 limit.

The chemotactic part upwinds the sensitivity in the direction of the
v-gradient (donor evaluation of h).  On its own that update can push a cell
past the saturation density when strong gradients feed an almost-full cell
(and past u = 1 the diffusion coefficient of the model turns negative, so
the run explodes).  The step therefore scales the chemotactic part of the
inflowing interfaces of any cell that one step would overfill, by exactly
the factor that lands it at the ceiling: a conservative flux limiter in the
Zhang-Shu spirit, not a state clipping (mass moves between cells only
through interface fluxes).  The limiter is inactive wherever one step's
chemotactic inflow is below the cell's remaining capacity, i.e. everywhere
except a thin saturation front, so stationary plateau profiles are held
rather than eroded.

The v-equation v_t = v_xx + g(u, v) is stepped by backward-Euler diffusion
with explicit reaction (default) or fully explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import coefficients as co
from .coefficients import CoefficientSet
from .errors import BlowUpError, InputError, InvariantViolationError, StiffnessError

TOL_BOUND = 1e-10      # invariant-region slack for the discrete solution
DT_UNDERFLOW = 1e-14


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on (0, length)."""

    n_cells: int
    length: float

    def __post_init__(self):
        if self.n_cells < 4:
            raise InputError("n_cells must be at least 4")
        if not self.length > 0:
            raise InputError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class State:
    """Cell averages of the density u, the chemical v, and the time."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    eps = 0 is allowed: the Kirchhoff-transform flux is well defined in the
    degenerate limit and the stationarity checks exercise it.
    ``debug_boundary_leak`` injects a constant spurious boundary flux and
    exists only so the verification pipeline can prove it would catch a
    conservation bug.
    """

    eps: float = 1e-3
    dt_max: float = 1e-2
    cfl: float = 0.45
    t_end: float = 1.0
    flux_scheme: str = "upwind_chemotaxis"      # or "central"
    v_stepping: str = "implicit"                # or "explicit"
    abort_on_violation: bool = True
    debug_boundary_leak: float = 0.0

    def __post_init__(self):
        if self.eps < 0:
            raise InputError(f"eps={self.eps} must be nonnegative")
        if not self.dt_max > 0:
            raise InputError("dt_max must be positive")
        if not 0 < self.cfl <= 1:
            raise InputError("cfl must lie in (0, 1]")
        if not self.t_end > 0:
            raise InputError("t_end must be positive")
        if self.flux_scheme not in ("upwind_chemotaxis", "central"):
            raise InputError(f"unknown flux_scheme {self.flux_scheme!r}")
        if self.v_stepping not in ("implicit", "explicit"):
            raise InputError(f"unknown v_stepping {self.v_stepping!r}")


def apply_eps(c: CoefficientSet, cfg: SolverConfig) -> CoefficientSet:
    """Coefficient set with the config's regularization folded into D."""
    return co.regularize(c, cfg.eps) if cfg.eps > 0 else c


# ---------------------------------------------------------------------------
# coefficient bounds used by the CFL rule (grid sweeps; run() keeps one per ceiling)

CFL_R_NODES = 129      # the bounds sample r at k/128, k = 0..128


def _coefficient_bounds(c: CoefficientSet, s_ceiling: float) -> tuple[np.ndarray, float, float]:
    """(max over s of D per r-node, max |dh/dr|, max |dg/ds|) over [0,1] x [0, s_ceiling]."""
    r = np.linspace(0.0, 1.0, CFL_R_NODES)
    s = np.linspace(0.0, s_ceiling, 17)
    rr, ss = np.meshgrid(r, s, indexing="ij")
    d_by_node = np.max(np.asarray(c.D(rr, ss), dtype=float), axis=1)
    dr = 1e-6
    h_r = (np.asarray(c.h(np.clip(rr + dr, 0, 1), ss), dtype=float)
           - np.asarray(c.h(np.clip(rr - dr, 0, 1), ss), dtype=float))
    h_r /= (np.clip(rr + dr, 0, 1) - np.clip(rr - dr, 0, 1))
    lip_h = float(np.max(np.abs(h_r)))
    ds = 1e-6 * max(1.0, s_ceiling)
    g_s = (np.asarray(c.g(rr, ss + ds), dtype=float)
           - np.asarray(c.g(rr, ss), dtype=float)) / ds
    gs_max = float(np.max(np.abs(g_s)))
    return d_by_node, lip_h, gs_max


def _s_ceiling(v_max: float) -> float:
    # quantized so one sweep is reused while v wanders below the ceiling
    return float(2.0 ** math.ceil(math.log2(max(v_max, 1e-6)))) if 1.0 < v_max < math.inf else 1.0


def cfl_dt(state: State, grid: Grid1D, c_eps: CoefficientSet, cfg: SolverConfig) -> float:
    """Stable step from a harmonic combination of the active constraints.

    dt = cfl / (2 maxD/dx^2 + 2 Lh max|v_x|/dx + max|g_s| [+ 2/dx^2 explicit v]),
    capped by dt_max.  maxD is taken over the r-nodes k/128 that bracket
    the state's density range [min u, max u], which holds every secant
    slope of K that the step differences; Lh and max|g_s| stay over all of
    [0, 1], because positivity rests on h(u) <= Lh u.  The harmonic form
    keeps the sum of the parabolic and advective Courant numbers below cfl,
    so any cfl <= 1 preserves the monotonicity of the donor-cell update.
    A state with a non-finite value raises BlowUpError.  Each call sweeps
    the coefficient bounds afresh; run() sweeps once per v-ceiling and
    reuses the result.
    """
    bounds = _coefficient_bounds(c_eps, _s_ceiling(float(state.v.max(initial=0.0))))
    return _dt_from_bounds(state, grid.dx, bounds, cfg)[0]


def _dt_from_bounds(state: State, dx: float, bounds: tuple[np.ndarray, float, float],
                    cfg: SolverConfig) -> tuple[float, str]:
    """(dt, what set it: "diffusion", "advection", "reaction" or "dt_max")."""
    d_by_node, lip_h, gs_max = bounds
    u, v = state.u, state.v
    u_min, u_max = float(u.min()), float(u.max())
    grad_v = float(np.abs(v[1:] - v[:-1]).max()) / dx if v.size > 1 else 0.0
    # min/max and the differences propagate NaN and inf
    if not all(map(math.isfinite, (u_min, u_max, grad_v))):
        raise BlowUpError(f"non-finite state at t={state.t}")
    last = CFL_R_NODES - 1
    lo = min(max(math.floor(last * u_min), 0), last)
    hi = min(max(math.ceil(last * u_max), 0), last)
    diffusion = 2.0 * float(d_by_node[lo:hi + 1].max()) / dx ** 2
    advection = 2.0 * lip_h * grad_v / dx
    rate = diffusion + advection + gs_max
    if cfg.v_stepping == "explicit":
        rate += 2.0 / dx ** 2
        diffusion += 2.0 / dx ** 2
    if not (rate > 0 and cfg.cfl / rate <= cfg.dt_max):
        dt, limit = cfg.dt_max, "dt_max"
    else:
        dt = cfg.cfl / rate
        if diffusion >= max(advection, gs_max):
            limit = "diffusion"
        else:
            limit = "advection" if advection >= gs_max else "reaction"
    if dt < DT_UNDERFLOW:
        raise StiffnessError(f"dt={dt:.3e} underflowed at t={state.t}")
    return dt, limit


# ---------------------------------------------------------------------------
# interface fluxes


def _split_fluxes(u: np.ndarray, v: np.ndarray, dx: float, c_eps: CoefficientSet,
                  scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """(diffusive, chemotactic) fluxes at the n-1 interior interfaces.

    The diffusive part discretizes -D u_x as the difference of the
    composite Kirchhoff field K(u_i, v_i) plus the K_s correction, exactly
    mirroring the identity D grad u = grad[K(u, v)] - K_s(u, v) grad v; the
    two v-couplings cancel to second order, leaving the degenerate r-part.
    """
    uL, uR = u[:-1], u[1:]
    s_bar = 0.5 * (v[:-1] + v[1:])
    u_bar = 0.5 * (uL + uR)
    dv = v[1:] - v[:-1]

    K = co.kirchhoff_many(c_eps, u, v)
    diff = -(K[1:] - K[:-1]) / dx
    diff += co.kirchhoff_s_many(c_eps, u_bar, s_bar) * dv / dx

    if scheme == "upwind_chemotaxis":
        donor = np.where(dv > 0.0, uL, uR)
        h_val = np.asarray(c_eps.h(donor, s_bar), dtype=float)
    else:
        h_val = 0.5 * (np.asarray(c_eps.h(uL, s_bar), dtype=float)
                       + np.asarray(c_eps.h(uR, s_bar), dtype=float))
    return diff, h_val * dv / dx


def _limit_chemo_inflow(u: np.ndarray, diff: np.ndarray, chem: np.ndarray,
                        dt: float, dx: float) -> np.ndarray:
    """Scale chemotactic inflows so no cell exceeds the ceiling u = 1.

    Per cell: capacity = 1 - (diffusion-only update); if one step's
    chemotactic inflow exceeds it, every inflowing interface of that cell
    is scaled by the same factor.  Each interface flux is scaled once (by
    its receiving cell), so the update stays conservative.
    """
    coeff = dt / dx
    step_diff = coeff * diff
    u_diff = u.copy()
    u_diff[:-1] -= step_diff
    u_diff[1:] += step_diff

    inflow = np.zeros_like(u)
    inflow[1:] += np.maximum(chem, 0.0)          # rightward flux feeds cell i+1
    inflow[:-1] += np.maximum(-chem, 0.0)        # leftward flux feeds cell i
    inflow *= coeff
    capacity = np.maximum(1.0 - u_diff, 0.0)
    over = inflow > capacity
    if not over.any():
        return chem
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(over, capacity / np.maximum(inflow, 1e-300), 1.0)
    return chem * np.where(chem > 0.0, theta[1:], theta[:-1])


def flux_interface(uL: float, uR: float, vL: float, vR: float, dx: float,
                   c_eps: CoefficientSet, scheme: str = "upwind_chemotaxis") -> float:
    """Single-interface numerical u-flux (sign: flux of u to the right).

    This is the unlimited flux; the saturation limiter in :func:`step`
    additionally scales chemotactic inflows of cells one step would
    overfill (it needs dt and both neighbor interfaces, so it is not a
    property of a single interface).
    """
    for name, val in (("uL", uL), ("uR", uR)):
        if not 0.0 <= val <= 1.0:
            raise InputError(f"{name}={val} outside [0, 1]")
    if vL < 0 or vR < 0:
        raise InputError("vL, vR must be nonnegative")
    diff, chem = _split_fluxes(np.array([uL, uR]), np.array([vL, vR]), dx, c_eps, scheme)
    return float(diff[0] + chem[0])


# ---------------------------------------------------------------------------
# time stepping


def _advance_v(u: np.ndarray, v: np.ndarray, dt: float, dx: float,
               c: CoefficientSet, mode: str) -> np.ndarray:
    reaction = np.asarray(c.g(u, v), dtype=float)
    if mode == "explicit":
        lap = np.empty_like(v)
        lap[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
        lap[0] = v[1] - v[0]          # mirror ghost (no-flux)
        lap[-1] = v[-2] - v[-1]
        return v + dt * (lap / dx ** 2 + reaction)
    a = dt / dx ** 2
    n = v.size
    off = np.full(n - 1, -a)
    diag = np.full(n, 1.0 + 2.0 * a)
    diag[0] = diag[-1] = 1.0 + a      # mirror ghost rows keep row sums at 1
    *_, v_new, info = dgtsv(off, diag, off.copy(), v + dt * reaction,
                            overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                            overwrite_b=True)
    if info != 0:
        raise BlowUpError(f"implicit v-solve failed (LAPACK gtsv info={info})")
    return v_new


def step(state: State, grid: Grid1D, c: CoefficientSet, cfg: SolverConfig,
         dt: Optional[float] = None, *, eps_applied: bool = False) -> State:
    """Advance one time step; returns a new State.

    ``dt`` defaults to the CFL-limited step.  ``eps_applied`` indicates that
    ``c`` already carries the config's regularization (run() passes the
    shifted set once instead of rebuilding it every step).
    """
    c_eps = c if eps_applied else apply_eps(c, cfg)
    if dt is None:
        dt = cfl_dt(state, grid, c_eps, cfg)
    dx = grid.dx
    diff, chem = _split_fluxes(state.u, state.v, dx, c_eps, cfg.flux_scheme)
    if cfg.flux_scheme == "upwind_chemotaxis":
        chem = _limit_chemo_inflow(state.u, diff, chem, dt, dx)
    flux = diff + chem

    u_new = state.u.copy()
    coeff = dt / dx
    step_flux = coeff * flux
    u_new[:-1] -= step_flux
    u_new[1:] += step_flux
    if cfg.debug_boundary_leak:
        u_new[0] += coeff * cfg.debug_boundary_leak

    v_new = _advance_v(state.u, state.v, dt, dx, c_eps, cfg.v_stepping)
    t = state.t + dt
    # one set of reductions serves both checks: min/max propagate NaN and inf
    u_min, u_max, v_min, v_max = u_new.min(), u_new.max(), v_new.min(), v_new.max()
    if not all(map(math.isfinite, (u_min, u_max, v_min, v_max))):
        raise BlowUpError(f"solution blew up at t={t}")
    if cfg.abort_on_violation:
        if u_min < -TOL_BOUND or u_max > 1.0 + TOL_BOUND:
            raise InvariantViolationError(
                f"u out of [0, 1] at t={t}: range [{u_min:.3e}, {u_max:.3e}]")
        if v_min < -TOL_BOUND:
            raise InvariantViolationError(f"v negative at t={t}: min {v_min:.3e}")
    return State(u_new, v_new, t)


def run(u0: np.ndarray, v0: np.ndarray, grid: Grid1D, c: CoefficientSet,
        cfg: SolverConfig, sample_times: Sequence[float] = ()) -> tuple[list[State], "RunReport"]:
    """Integrate to cfg.t_end, recording snapshots at ``sample_times``.

    Returns the snapshots (plus the final state if t_end is not already a
    sample time) and a RunReport with the mass history, per-snapshot
    extrema, dt statistics, the count of steps by what set dt
    (diagnostics.DT_LIMITS) and any tolerated invariant violations.
    """
    from .diagnostics import RunReport, mass

    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.shape != (grid.n_cells,) or v0.shape != (grid.n_cells,):
        raise InputError("initial data shape does not match the grid")
    # written so that NaN fails: it compares false with everything
    if not (u0.min() >= 0.0 and u0.max() <= 1.0):
        raise InputError("u0 must take values in [0, 1]")
    if not (v0.min() >= 0.0 and v0.max() < np.inf):
        raise InputError("v0 must be finite and nonnegative")

    targets = sorted({float(t) for t in sample_times if 0.0 < t <= cfg.t_end})
    state = State(u0.copy(), v0.copy(), 0.0)
    c_eps = apply_eps(c, cfg)

    report = RunReport()
    report.record_mass(0.0, mass(state, grid))
    snapshots: list[State] = []
    if any(abs(t) < 1e-12 for t in sample_times):
        snapshots.append(state.copy())
        report.record_snapshot(state)

    next_idx = 0
    dt_min, dt_max_seen, n_steps = math.inf, 0.0, 0
    bounds: dict[float, tuple[np.ndarray, float, float]] = {}    # one sweep per v-ceiling
    try:
        while state.t < cfg.t_end - 1e-12:
            ceiling = _s_ceiling(float(state.v.max(initial=0.0)))
            if ceiling not in bounds:
                bounds[ceiling] = _coefficient_bounds(c_eps, ceiling)
            dt, limit = _dt_from_bounds(state, grid.dx, bounds[ceiling], cfg)
            hit_sample = False
            if next_idx < len(targets) and state.t + dt >= targets[next_idx] - 1e-12:
                dt = targets[next_idx] - state.t
                hit_sample = True
                limit = "truncation"
            elif state.t + dt > cfg.t_end:
                dt = cfg.t_end - state.t
                limit = "truncation"
            state = step(state, grid, c_eps, cfg, dt, eps_applied=True)
            n_steps += 1
            report.dt_limits[limit] += 1
            dt_min = min(dt_min, dt)
            dt_max_seen = max(dt_max_seen, dt)
            if not cfg.abort_on_violation:
                report.record_violations(state, TOL_BOUND)
            if hit_sample:
                state.t = targets[next_idx]     # exact stamp, no drift
                next_idx += 1
                snapshots.append(state.copy())
                report.record_snapshot(state)
                report.record_mass(state.t, mass(state, grid))
    except (BlowUpError, StiffnessError, InvariantViolationError) as exc:
        raise type(exc)(f"{exc} (run failed at t={state.t:.6g})") from exc

    if not snapshots or snapshots[-1].t < cfg.t_end - 1e-12:
        snapshots.append(state.copy())
        report.record_snapshot(state)
    report.record_mass(state.t, mass(state, grid))
    report.dt_stats = (dt_min if n_steps else 0.0, dt_max_seen, n_steps)
    return snapshots, report


# ---------------------------------------------------------------------------
# initial-data profiles shared by tests and the CLI


def profile_constant(grid: Grid1D, value: float) -> np.ndarray:
    return np.full(grid.n_cells, float(value))


def profile_bump(grid: Grid1D, base: float = 0.05, amplitude: float = 0.85,
                 width_fraction: float = 0.125) -> np.ndarray:
    """Smooth Gaussian bump centered in the domain, values in [0, 1]."""
    x = grid.centers
    mid = 0.5 * grid.length
    w = width_fraction * grid.length
    return base + amplitude * np.exp(-((x - mid) / w) ** 2)

def profile_step(grid: Grid1D, lo: float = 0.0, hi: float = 1.0,
                 fraction: float = 1.0 / 3.0) -> np.ndarray:
    """Piecewise-constant profile: ``hi`` on the central ``fraction`` of cells."""
    x = grid.centers
    mid = 0.5 * grid.length
    half = 0.5 * fraction * grid.length
    return np.where(np.abs(x - mid) <= half, hi, lo).astype(float)


def profile_random(grid: Grid1D, rng: np.random.Generator,
                   low: float = 0.0, high: float = 1.0) -> np.ndarray:
    return rng.uniform(low, high, grid.n_cells)
