"""Conservative finite-volume solver for the regularized chemotaxis system.

Cell-centered mesh on (0, l) with no-flux boundaries.  The u-update is in
conservation form

    u_i <- u_i - (dt/dx) (F_{i+1/2} - F_{i-1/2}),       F_boundary = 0,

so the discrete mass sum(u) dx telescopes exactly.  The diffusive flux
mirrors the identity D u_x = (K(u, v))_x - K_s(u, v) v_x of the composite
Kirchhoff field K; the form stays meaningful at the degeneracy u = 1 and in
the bare eps = 0 limit.  Each step splits it in two stages.

Implicit stage.  With sbar = (v_i + v_{i+1})/2 frozen at each interface,
the Kirchhoff difference

    F^K_{i+1/2}(w) = -(K(w_{i+1}, sbar) - K(w_i, sbar))/dx

is taken by backward Euler: Newton solves w - u + (dt/dx) div F^K(w) = 0.
Its Jacobian I + (dt/dx^2) L diag(D(., sbar)) is a tridiagonal M-matrix
even at eps = 0, so the stage obeys a discrete maximum principle and dt is
not bound by dx^2.  The converged flux is applied in flux form,
u_d = u - (dt/dx) div F^K(w), so the mass still telescopes.

Explicit stage at u_d.  The remainder of the diffusive flux,

    R = (-[K(u_R, v_R) - K(u_R, sbar)] + [K(u_L, v_L) - K(u_L, sbar)]
         + K_s(ubar, sbar) (v_R - v_L)) / dx,

vanishes exactly when K does not depend on s.  The chemotactic part
upwinds the sensitivity in the direction of the v-gradient and evaluates h
at the donor's minmod face value

    u_i +- (1/2) minmod(u_i - u_{i-1}, u_{i+1} - u_i),

with zero slope in the two end cells (B. van Leer, J. Comput. Phys. 32
(1979) 101-136; A. Chertock and A. Kurganov, Numer. Math. 111 (2008)
169-205).  A face value lies between neighbouring averages, so it stays in
[0, 1], and a cell's two face values sum to 2 u_i.  With h(r) <= Lip(h) r
the chemotactic outflow of cell i in one step is at most
(dt/dx) Lip(h) (u_i^- + u_i^+) max|dv|/dx = 2 Lip(h) max|v_x| (dt/dx) u_i,
the bound the cell average gave, and the CFL rule keeps it below cfl u_i.
So when D does not depend on s (R = 0) the update keeps u >= 0.  When it
does, R drains an empty cell next to a cell holding u_R at about
(K_s(u_R/2, sbar) - K_s(u_R, sbar)/2) dv/dx, a rate the CFL rule does not
bound, and only the invariant check guards u >= 0.

The chemotactic update can push a cell past the saturation density when
strong gradients feed an almost-full cell (and past u = 1 the diffusion
coefficient of the model turns negative, so the run explodes).  The step
therefore scales the chemotactic part of the inflowing interfaces of any
cell that one step would overfill, by exactly the factor that lands it at
the ceiling: a conservative flux limiter in the Zhang-Shu spirit, not a
state clipping.  The capacity is taken after the diffusive outflow,
1 - (u_d - (dt/dx) div R), so at a saturated plateau edge the chemotactic
inflow balances that outflow and the plateau is held rather than eroded.

The v-equation v_t = v_xx + g(u, v) is stepped by backward-Euler diffusion
with explicit reaction.
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


def apply_eps(c: CoefficientSet, cfg: SolverConfig) -> CoefficientSet:
    """Coefficient set with the config's regularization folded into D."""
    return co.regularize(c, cfg.eps) if cfg.eps > 0 else c


# ---------------------------------------------------------------------------
# coefficient bounds used by the CFL rule (grid sweeps; run() keeps one per ceiling)


def _coefficient_bounds(c: CoefficientSet, s_ceiling: float) -> tuple[float, float]:
    """(max |dh/dr|, max |dg/ds|) over [0,1] x [0, s_ceiling]; InputError where D < 0."""
    r = np.linspace(0.0, 1.0, 129)
    s = np.linspace(0.0, s_ceiling, 17)
    rr, ss = np.meshgrid(r, s, indexing="ij")
    d = np.broadcast_to(np.asarray(c.D(rr, ss), dtype=float), rr.shape)
    if (d < -1e-12).any():      # backward diffusion: no step can resolve it
        i = np.unravel_index(np.nanargmin(d), d.shape)
        raise InputError(f"diffusion coefficient D of {c.name!r} is negative: "
                         f"D({rr[i]:.6g}, {ss[i]:.6g}) = {d[i]:.6g}")
    r_up, r_down = np.clip(rr + 1e-6, 0, 1), np.clip(rr - 1e-6, 0, 1)
    h_r = (np.asarray(c.h(r_up, ss), dtype=float)
           - np.asarray(c.h(r_down, ss), dtype=float)) / (r_up - r_down)
    ds = 1e-6 * max(1.0, s_ceiling)
    g_s = (np.asarray(c.g(rr, ss + ds), dtype=float)
           - np.asarray(c.g(rr, ss), dtype=float)) / ds
    return float(np.max(np.abs(h_r))), float(np.max(np.abs(g_s)))


def _s_ceiling(v_max: float) -> float:
    # v_max rounded up on an eighth-octave grid, so one sweep is reused while
    # v wanders below the ceiling; the bounds are taken over an s range at
    # most 2^(1/8) times the one the state has.  A v_max within roundoff of
    # a grid point keeps its own value.  v <= 1 and non-finite v keep 1.
    if not 1.0 < v_max < math.inf:
        return 1.0
    return max(v_max, 2.0 ** (math.ceil(8.0 * math.log2(v_max) - 1e-9) / 8.0))


def cfl_dt(state: State, grid: Grid1D, c_eps: CoefficientSet, cfg: SolverConfig) -> float:
    """Stable step of the explicit stage: dt = cfl / (2 Lh max|v_x|/dx + max|g_s|).

    Capped by dt_max.  Both diffusions are backward Euler and bound nothing.
    Lh and max|g_s| are taken over [0, 1] x [0, s ceiling], because
    positivity rests on h(u) <= Lh u.  A cell's two face values sum to
    2 u_i, so its chemotactic outflow per step is at most
    dt 2 Lh max|v_x| / dx u_i, and the harmonic form keeps that below
    cfl u_i.  When D does not depend on s (R = 0), any cfl <= 1 therefore
    keeps u >= 0.  When it does, R can drain an empty cell at a rate this
    rule does not bound, and the step's InvariantViolationError is the
    guard.  A non-finite state raises BlowUpError.  Each call sweeps the
    coefficient bounds afresh; run() sweeps once per v-ceiling.
    """
    if not np.isfinite(state.u).all():
        raise BlowUpError(f"non-finite state at t={state.t}")
    bounds = _coefficient_bounds(c_eps, _s_ceiling(float(state.v.max(initial=0.0))))
    return _dt_from_bounds(state.v, state.t, grid.dx, bounds, cfg)[0]


def _dt_from_bounds(v: np.ndarray, t: float, dx: float, bounds: tuple[float, float],
                    cfg: SolverConfig) -> tuple[float, str]:
    """(dt, what set it: "advection", "reaction" or "dt_max")."""
    lip_h, gs_max = bounds
    grad_v = float(np.abs(v[1:] - v[:-1]).max()) / dx
    if not math.isfinite(grad_v):       # the differences propagate NaN and inf
        raise BlowUpError(f"non-finite state at t={t}")
    advection = 2.0 * lip_h * grad_v / dx
    rate = advection + gs_max
    if not (rate > 0 and cfg.cfl / rate <= cfg.dt_max):
        dt, limit = cfg.dt_max, "dt_max"
    else:
        dt = cfg.cfl / rate
        limit = "advection" if advection >= gs_max else "reaction"
    if dt < DT_UNDERFLOW:
        raise StiffnessError(f"dt={dt:.3e} underflowed at t={t}")
    return dt, limit


# ---------------------------------------------------------------------------
# interface fluxes


def _pairs(x: np.ndarray) -> np.ndarray:
    """The two cells of each of the n-1 interior interfaces, stacked: left cells first."""
    return np.concatenate((x[:-1], x[1:]))


def _flux_update(u: np.ndarray, flux: np.ndarray, coeff: float) -> np.ndarray:
    """u - coeff * div(flux) with zero flux through the boundary."""
    out = u.copy()
    step_flux = coeff * flux
    out[:-1] -= step_flux
    out[1:] += step_flux
    return out


def _kirchhoff_flux(w_pair: np.ndarray, s_pair: np.ndarray, dx: float,
                    c_eps: CoefficientSet) -> np.ndarray:
    """F^K = -(K(w_R, sbar) - K(w_L, sbar))/dx from the stacked interface pairs."""
    K = co.kirchhoff_many(c_eps, w_pair, s_pair)
    m = K.size // 2
    return (K[:m] - K[m:]) / dx


def _explicit_fluxes(u: np.ndarray, v: np.ndarray, s_pair: np.ndarray, dx: float,
                     c_eps: CoefficientSet) -> tuple[np.ndarray, np.ndarray]:
    """(diffusive remainder R, chemotactic flux) at the n-1 interior interfaces.

    F^K + R is the Kirchhoff difference of K(u_i, v_i) plus the K_s
    correction, mirroring D grad u = grad[K(u, v)] - K_s(u, v) grad v; R
    holds its v-couplings, which cancel to second order.
    """
    uL, uR = u[:-1], u[1:]
    m = uL.size
    s_bar = s_pair[:m]
    dv = v[1:] - v[:-1]

    K = co.kirchhoff_many(c_eps, u, v)
    K_bar = co.kirchhoff_many(c_eps, _pairs(u), s_pair)
    rem = (K[:-1] - K_bar[:m]) - (K[1:] - K_bar[m:])
    rem += co.kirchhoff_s_many(c_eps, 0.5 * (uL + uR), s_bar) * dv
    rem /= dx

    half_slope = _half_minmod_slope(u)
    donor = np.where(dv > 0.0, uL + half_slope[:-1], uR - half_slope[1:])
    h_val = np.asarray(c_eps.h(donor, s_bar), dtype=float)
    return rem, h_val * dv / dx


def _half_minmod_slope(u: np.ndarray) -> np.ndarray:
    """Half of each cell's minmod slope, zero in the two end cells.

    u_i +- this value are the cell's face values: each lies between u_i and
    a neighbouring average, and the two sum to 2 u_i.
    """
    half_du = 0.5 * (u[1:] - u[:-1])
    left, right = half_du[:-1], half_du[1:]
    half = np.zeros_like(u)
    # minmod(a, b) is the median of a, b and 0
    np.maximum(np.minimum(left, np.maximum(right, 0.0)), np.minimum(right, 0.0), out=half[1:-1])
    return half


def _limit_chemo_inflow(u: np.ndarray, diff: np.ndarray, chem: np.ndarray,
                        dt: float, dx: float) -> tuple[np.ndarray, int, float]:
    """Scale chemotactic inflows so no cell exceeds the ceiling u = 1.

    Per cell: capacity = 1 - (diffusion-only update); if one step's
    chemotactic inflow exceeds it, every inflowing interface of that cell
    is scaled by the same factor theta = capacity / inflow.  Each interface
    flux is scaled once (by its receiving cell), so the update stays
    conservative.  Returns the limited flux, the number of scaled cells and
    the smallest theta (1.0 when none was scaled).
    """
    coeff = dt / dx
    inflow = np.zeros_like(u)
    inflow[1:] += np.maximum(chem, 0.0)          # rightward flux feeds cell i+1
    inflow[:-1] += np.maximum(-chem, 0.0)        # leftward flux feeds cell i
    inflow *= coeff
    capacity = np.maximum(1.0 - _flux_update(u, diff, coeff), 0.0)
    over = np.flatnonzero(inflow > capacity)
    if not over.size:
        return chem, 0, 1.0
    theta_over = capacity[over] / inflow[over]      # inflow > capacity >= 0 there
    theta = np.ones_like(u)
    theta[over] = theta_over
    return chem * np.where(chem > 0.0, theta[1:], theta[:-1]), over.size, float(theta_over.min())


# ---------------------------------------------------------------------------
# time stepping

NEWTON_TOL = 1e-13      # max |correction| (or |residual|) that ends the Kirchhoff solve
NEWTON_MAX_ITER = 30


def _implicit_kirchhoff(u: np.ndarray, s_pair: np.ndarray, dt: float, dx: float,
                        c_eps: CoefficientSet, t: float) -> tuple[np.ndarray, int]:
    """Backward-Euler Kirchhoff stage: (converged F^K, Newton iterations).

    Newton on w - u + (dt/dx) div F^K(w) = 0 with the tridiagonal Jacobian
    I + (dt/dx^2) L diag(D(., sbar)), solved by LAPACK gtsv.  The solution
    obeys the maximum principle, so each iterate is projected onto
    [min u, max u].  Newton takes at least one iteration and stops when its
    correction or the residual falls to NEWTON_TOL; a linear K converges in
    one.  A non-finite residual or correction raises BlowUpError, no
    convergence within NEWTON_MAX_ITER raises StiffnessError.
    """
    coeff = dt / dx
    a = coeff / dx
    lo, hi = u.min(), u.max()
    m = u.size - 1
    w = u
    correction = math.inf
    for iterations in range(NEWTON_MAX_ITER + 1):
        w_pair = _pairs(w)
        flux = _kirchhoff_flux(w_pair, s_pair, dx, c_eps)
        residual = w - _flux_update(u, flux, coeff)
        size = float(np.abs(residual).max())
        if not math.isfinite(size):
            raise BlowUpError(f"solution blew up in the Kirchhoff stage at t={t}")
        if iterations and (size <= NEWTON_TOL or correction <= NEWTON_TOL):
            return flux, iterations
        if iterations == NEWTON_MAX_ITER:
            break
        d_pair = a * np.asarray(c_eps.D(w_pair, s_pair), dtype=float)
        left, right = d_pair[:m], d_pair[m:]        # dF/dw_L and -dF/dw_R, times dt/dx
        diag = np.ones_like(w)
        diag[:-1] += left
        diag[1:] += right
        *_, delta, info = dgtsv(-left, diag, -right, -residual, overwrite_dl=True,
                                overwrite_d=True, overwrite_du=True, overwrite_b=True)
        if info != 0:
            raise StiffnessError(f"singular Kirchhoff Jacobian at t={t} (LAPACK gtsv info={info})")
        correction = float(np.abs(delta).max())     # NaN here makes the next residual NaN
        w = np.clip(w + delta, lo, hi)
    raise StiffnessError(f"Kirchhoff Newton did not converge in {NEWTON_MAX_ITER} iterations "
                         f"at t={t} (last correction {correction:.3e})")


def _advance_v(u: np.ndarray, v: np.ndarray, dt: float, dx: float,
               c: CoefficientSet) -> np.ndarray:
    """Backward-Euler diffusion of v with explicit reaction, no-flux mirror ghosts."""
    reaction = np.asarray(c.g(u, v), dtype=float)
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


@dataclass
class StepInfo:
    """What a step measured on the way, for run() to reuse and report."""

    newton_iterations: int = 0
    v_max: float = 0.0          # max of the new v, from the step's own checks
    limiter_cells: int = 0      # cells whose chemotactic inflow the limiter scaled
    limiter_theta_min: float = 1.0      # and the smallest factor it scaled by


def step(state: State, grid: Grid1D, c: CoefficientSet, cfg: SolverConfig,
         dt: Optional[float] = None, *, eps_applied: bool = False,
         info: Optional[StepInfo] = None) -> State:
    """Advance one time step; returns a new State.

    ``dt`` defaults to the CFL-limited step.  ``eps_applied`` indicates that
    ``c`` already carries the config's regularization (run() passes the
    shifted set once instead of rebuilding it every step).  ``info``, when
    given, receives the step's Newton iteration count, the new max of v and
    what the saturation limiter did.
    """
    c_eps = c if eps_applied else apply_eps(c, cfg)
    if dt is None:
        dt = cfl_dt(state, grid, c_eps, cfg)
    dx = grid.dx
    coeff = dt / dx
    u, v = state.u, state.v
    t = state.t + dt
    s_bar = 0.5 * (v[:-1] + v[1:])
    s_pair = np.concatenate((s_bar, s_bar))      # frozen at both cells of an interface
    kirchhoff, iterations = _implicit_kirchhoff(u, s_pair, dt, dx, c_eps, t)
    u_d = _flux_update(u, kirchhoff, coeff)
    rem, chem = _explicit_fluxes(u_d, v, s_pair, dx, c_eps)
    chem, limited, theta_min = _limit_chemo_inflow(u_d, rem, chem, dt, dx)
    u_new = _flux_update(u_d, rem + chem, coeff)
    if cfg.debug_boundary_leak:
        u_new[0] += coeff * cfg.debug_boundary_leak

    v_new = _advance_v(u, v, dt, dx, c_eps)
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
    if info is not None:
        info.newton_iterations = iterations
        info.v_max = float(v_max)
        info.limiter_cells = limited
        info.limiter_theta_min = theta_min
    return State(u_new, v_new, t)


def run(u0: np.ndarray, v0: np.ndarray, grid: Grid1D, c: CoefficientSet,
        cfg: SolverConfig, sample_times: Sequence[float] = ()) -> tuple[list[State], "RunReport"]:
    """Integrate to cfg.t_end, recording snapshots at ``sample_times``.

    Returns the snapshots (plus the final state if t_end is not already a
    sample time) and a RunReport with the mass history, per-snapshot
    extrema, dt statistics, the count of steps by what set dt
    (diagnostics.DT_LIMITS), the Newton iteration counts, what the
    saturation limiter did and any tolerated invariant violations.
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
    # dt_min skips steps cut to land on a sample time or t_end, unless all were
    dt_min_stable, dt_min_cut, dt_max_seen, n_steps = math.inf, math.inf, 0.0, 0
    bounds: dict[float, tuple[float, float]] = {}      # one sweep per v-ceiling
    info = StepInfo(v_max=float(v0.max()))
    try:
        while state.t < cfg.t_end - 1e-12:
            ceiling = _s_ceiling(info.v_max)
            if ceiling not in bounds:
                bounds[ceiling] = _coefficient_bounds(c_eps, ceiling)
            dt, limit = _dt_from_bounds(state.v, state.t, grid.dx, bounds[ceiling], cfg)
            hit_sample = False
            if next_idx < len(targets) and state.t + dt >= targets[next_idx] - 1e-12:
                dt = targets[next_idx] - state.t
                hit_sample = True
                limit = "truncation"
            elif state.t + dt > cfg.t_end:
                dt = cfg.t_end - state.t
                limit = "truncation"
            state = step(state, grid, c_eps, cfg, dt, eps_applied=True, info=info)
            n_steps += 1
            report.dt_limits[limit] += 1
            report.newton_iterations += info.newton_iterations
            report.newton_iterations_max = max(report.newton_iterations_max,
                                               info.newton_iterations)
            report.limiter_cell_steps += info.limiter_cells
            report.limiter_theta_min = min(report.limiter_theta_min, info.limiter_theta_min)
            if limit == "truncation":
                dt_min_cut = min(dt_min_cut, dt)
            else:
                dt_min_stable = min(dt_min_stable, dt)
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
    dt_min = dt_min_stable if dt_min_stable < math.inf else dt_min_cut
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
