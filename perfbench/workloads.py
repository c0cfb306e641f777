"""The four benchmark workloads and the layers the traced run wraps.

A workload builds its inputs from the seed in its constructor (set-up) and
runs one round of operations in ``run_round`` (the timed body), checking
every output as it goes.  The make-up follows the release criteria in
``tests/test_acceptance.py``; README.md says where a round is cut shorter
than a criterion and why.  Import this module after the checkout's ``src``
directory is on ``sys.path`` (``run.use_checkout_sources``).
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

import checks
from flathump import cli, pde, reporting
from flathump import coefficients as co
from flathump import diagnostics as dg
from flathump import errors
from flathump import stationary as st

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path(__file__).resolve().parent / "results"

# an operation that raises one of the package's own errors counts as failed;
# any other exception is a fault of the benchmark and ends the run
FAILURES = (errors.InputError, errors.SolverError, errors.CrossingConditionError,
            errors.ConstructionError)

SOLVER = dict(dt_max=1e-2, cfl=0.45)      # the criteria's step control
LAMBDA_FRACTION = 0.035                   # canonical offset of tests/conftest.py


@dataclass
class Tally:
    """Operations attempted and failed, and wrong outputs, over a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def attempt(self, label: str, fn: Callable, *args):
        """Run one operation; ``None`` when it raised one of the package's errors."""
        self.attempted += 1
        try:
            return fn(*args)
        except FAILURES as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {message}")

    def check(self, label: str, problem: Optional[str]) -> None:
        if problem is not None:
            self.problems.append(f"{label}: {problem}")


def initial_data(kind: str, grid: pde.Grid1D, rng: np.random.Generator):
    """(u0, v0) of the criteria: even bump or step with v = 1/2, or uniform noise."""
    if kind == "bump":
        return pde.profile_bump(grid), pde.profile_constant(grid, 0.5)
    if kind == "step":
        return pde.profile_step(grid), pde.profile_constant(grid, 0.5)
    return pde.profile_random(grid, rng), pde.profile_random(grid, rng)


def canonical_params() -> st.PhaseParams:
    """Example-C at gamma/beta = 3, offset at 0.035 of the slope-matching interval."""
    c3 = co.with_reaction(co.preset("example-C"), co.GammaBeta(3.0, 1.0))
    _, (lo, hi) = st.lambda_interval_from_slopes(c3, c3.linear_reaction)
    return st.find_crossings(c3, lo + LAMBDA_FRACTION * (hi - lo))


def canonical_v0() -> float:
    """The canonical v0: orbit-aligned to edge 16 of a 1024-cell mesh."""
    return float(st.v0_for_edge_alignment(canonical_params(), 1024, 16, use_orbit=True))


class Workload:
    """Set-up in the constructor, one timed round in ``run_round``.

    ``coeffs`` holds the coefficient sets the rounds use, looked up on every
    use, so that the traced run can swap in sets with wrapped D, h and g.
    """

    coeffs: dict[str, co.CoefficientSet]

    def run_round(self, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""


# ---------------------------------------------------------------------------
# ensemble: many short independent solver runs


ENSEMBLE_PRESETS = ("example-A", "example-B", "example-C")
ENSEMBLE_KINDS = ("bump", "step", "random")
ENSEMBLE_SIZES = (256, 1024)
ENSEMBLE_LENGTH = 20.0
ENSEMBLE_T_END = 0.1          # criterion 1 runs to 1.0; see README.md
EPS_LADDER = (1e-1, 5e-2, 2.5e-2, 1.25e-2)


class Ensemble(Workload):
    """Criterion 1's 18-run mix (shortened) and criterion 3's eps ladder."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.coeffs = {name: co.preset(name) for name in ENSEMBLE_PRESETS}
        self.cfg = pde.SolverConfig(eps=1e-3, t_end=ENSEMBLE_T_END, **SOLVER)
        self.samples = [ENSEMBLE_T_END * f for f in (0.25, 0.5, 1.0)]
        self.members = []
        for name in ENSEMBLE_PRESETS:
            for kind in ENSEMBLE_KINDS:
                for n in ENSEMBLE_SIZES:
                    grid = pde.Grid1D(n, ENSEMBLE_LENGTH)
                    self.members.append((name, kind, grid, *initial_data(kind, grid, rng)))
        self.ladder_grid = pde.Grid1D(256, 10.0)
        self.ladder_u0 = pde.profile_bump(self.ladder_grid)
        self.ladder_v0 = pde.profile_constant(self.ladder_grid, 0.5)
        self.ladder_cfg = pde.SolverConfig(eps=1.0, t_end=0.5, **SOLVER)

    def run_round(self, tally: Tally) -> None:
        for name, kind, grid, u0, v0 in self.members:
            label = f"{name}/{kind}/n={grid.n_cells}"
            out = tally.attempt(label, pde.run, u0, v0, grid, self.coeffs[name], self.cfg,
                                self.samples)
            if out is None:
                continue
            snaps, _ = out
            tally.check(label, checks.mass(u0, snaps[-1].u))
            for snap in snaps:
                tally.check(label, checks.bounds(snap.u, snap.v, v_ceiling=1.0))
                if kind != "random":
                    tally.check(label, checks.mirror_symmetry(snap.u))
        table = tally.attempt("eps-ladder", dg.eps_convergence_study, self.ladder_u0,
                              self.ladder_v0, self.ladder_grid, self.coeffs["example-A"],
                              self.ladder_cfg, EPS_LADDER)
        if table is not None:
            tally.check("eps-ladder", checks.cauchy_ladder([row.values[2] for row in table.rows]))


# ---------------------------------------------------------------------------
# relax: the canonical flat hump relaxed under the solver


RELAX_SIZES = (1024, 2048)
RELAX_T = 0.5


class Relax(Workload):
    """Build the canonical hump at two grids and relax each at eps = 0.

    The inputs do not depend on the seed: the hump is the canonical one.
    The v0 alignment runs in a short-lived child process.  Its 48 orbit
    probes leave splines in reference cycles and would set this process's
    peak RSS (198 MiB against the rounds' own 103 MiB), hiding any memory
    growth of the rounds themselves.
    """

    def __init__(self, seed: int):
        self.params = canonical_params()
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            self.v0 = pool.submit(canonical_v0).result()
        self.coeffs = {"example-C3": self.params.coeffs}
        self.cfg = pde.SolverConfig(eps=0.0, t_end=RELAX_T, **SOLVER)

    def _relax(self, n: int):
        prof = st.construct_flat_hump(self.params, self.v0, n)
        u0 = np.clip(prof.u, 0.0, 1.0)
        snaps, _ = pde.run(u0, prof.v, prof.grid, self.coeffs["example-C3"], self.cfg)
        return prof, u0, snaps[-1]

    def run_round(self, tally: Tally) -> None:
        drifts = []
        for n in RELAX_SIZES:
            label = f"relax n={n}"
            out = tally.attempt(label, self._relax, n)
            if out is None:
                continue
            prof, u0, final = out
            tally.check(label, checks.mass(u0, final.u))
            tally.check(label, checks.bounds(final.u, final.v, v_ceiling=self.params.q))
            drifts.append(checks.sup_drift(prof.u, prof.v, final.u, final.v))
        if len(drifts) == len(RELAX_SIZES):
            tally.check("relax", checks.drift_refinement(*drifts))


# ---------------------------------------------------------------------------
# construct: the stationary pipeline, no solver work


STATIONARY_CONFIG = ROOT / "scripts" / "configs" / "stationary_c.cfg"
BUILD_SIZES = (1024, 2048)     # the CLI's own profile is the 4096 one
ORBIT_CHECKS = 10


def _read_key_values(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    return {key: float(value) for key, value in rows[1:]}


def _read_columns(path: Path) -> tuple[dict[str, str], np.ndarray]:
    """('#' metadata line as a dict, data rows) of a reporting.write_columns file."""
    with open(path, encoding="utf-8") as fh:
        meta = dict(tok.split("=", 1) for tok in fh.readline().lstrip("# ").split())
    return meta, np.loadtxt(path, delimiter=",", skiprows=2)


class Construct(Workload):
    """`flathump stationary` on the shipped config, two more builds, orbit checks."""

    def __init__(self, seed: int):
        config = cli.load_config(str(STATIONARY_CONFIG))
        # cmd_stationary's default when the config sets no tolerance
        self.v_tol = float(config.raw.get("stationary.residual_v_tol", 1e-4))
        _, mesh, edge = config.stationary_v0.split(":")      # align:N:K
        self.mesh, self.edge = int(mesh), int(edge)
        self.params = canonical_params()
        self.fractions = np.random.default_rng(seed).uniform(0.05, 0.95, ORBIT_CHECKS)
        self.out_dir = RESULTS / f"construct-{os.getpid()}"
        self.coeffs = {}          # the CLI builds its own set from the config

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _orbit_periods(self, frac: float) -> tuple[float, float]:
        """(integrated period, quadrature period) at an energy fraction of the window."""
        p = self.params
        e_lo, e_hi = st.energy_window(p).admissible
        target = e_lo + frac * (e_hi - e_lo)
        v0 = brentq(lambda v: st.potential(p, v) - target,
                    p.rho_saddle + 1e-13, p.rho_center - 1e-13, xtol=1e-15)
        return st.integrate_orbit(p, v0).period, st.orbit_period_oracle(p, v0)

    def run_round(self, tally: Tally) -> None:
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["stationary", "--config", str(STATIONARY_CONFIG),
                             "--out", str(self.out_dir)])
        if code == 0:
            self._check_outputs(tally)
        else:
            tally.fail("stationary", f"exit code {code}")
            for n in BUILD_SIZES:           # they need the CLI's v0
                tally.attempted += 1
                tally.fail(f"build n={n}", "not run")

        for frac in self.fractions:
            label = f"orbit at energy fraction {frac:.6f}"
            periods = tally.attempt(label, self._orbit_periods, frac)
            if periods is not None:
                tally.check(label, checks.period_match(*periods))

    def _check_outputs(self, tally: Tally) -> None:
        par = _read_key_values(self.out_dir / "parameters.csv")
        lam, x1, length = par["lambda"], par["x1"], par["length"]
        beta, gamma = par["beta"], par["gamma"]
        _, profile = _read_columns(self.out_dir / "profile.csv")
        x, u, v = profile.T
        tally.check("profile", None if lam == self.params.lam else
                    f"lambda {lam!r} differs from the canonical {self.params.lam!r}")
        outside = (x < x1) | (x > length - x1)
        tally.check("profile", checks.j_relation(u[outside], v[outside], lam))
        tally.check("profile", checks.plateau(x, u, x1, length, self.mesh, self.edge))
        finest = checks.v_residual(u, v, length, beta, gamma, x1)
        tally.check("profile", checks.residual_within(finest, self.v_tol))

        meta, portrait = _read_columns(self.out_dir / "phase_portrait.csv")
        tally.check("phase portrait", checks.energy_flat(portrait[:, 3], float(meta["period"])))

        residuals = []
        for n in BUILD_SIZES:
            prof = tally.attempt(f"build n={n}", st.construct_flat_hump, self.params,
                                 par["v0"], n)
            if prof is not None:
                residuals.append(checks.v_residual(prof.u, prof.v, prof.length, beta, gamma,
                                                   prof.x1))
        if len(residuals) == len(BUILD_SIZES):
            tally.check("residual order", checks.residual_order(residuals + [finest]))


# ---------------------------------------------------------------------------
# custom: coefficient sets given in the expression grammar


CUSTOM_EXPRESSIONS = {
    "example-A": dict(D="(1 - r)^2 * (s + 1)", h="r * (1 - r)^2 * (s + 1)", g="r - s"),
    "example-B": dict(D="(1 - r)^2", h="r * (1 - r)^2 * (s + 1)", g="r - s"),
}
CUSTOM_KINDS = ("bump", "random")
CUSTOM_SIZES = (256, 1024)
CUSTOM_T_END = 0.1


class Custom(Workload):
    """Presets A and B written as expressions, checked against the closed forms.

    Set-up runs every member once on the closed-form preset; a round runs
    it on the expression-grammar set, which has no closed forms, so the
    solver takes the Gauss-Legendre Kirchhoff path and evaluates D, h and g
    through the compiled expressions.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.coeffs = {name: co.from_expressions(f"{name} as expressions", **exprs)
                       for name, exprs in CUSTOM_EXPRESSIONS.items()}
        self.cfg = pde.SolverConfig(eps=1e-3, t_end=CUSTOM_T_END, **SOLVER)
        self.members = []
        for name in CUSTOM_EXPRESSIONS:
            closed = co.preset(name)
            for kind in CUSTOM_KINDS:
                for n in CUSTOM_SIZES:
                    grid = pde.Grid1D(n, ENSEMBLE_LENGTH)
                    u0, v0 = initial_data(kind, grid, rng)
                    snaps, _ = pde.run(u0, v0, grid, closed, self.cfg)
                    self.members.append((name, kind, grid, u0, v0, snaps[-1]))

    def run_round(self, tally: Tally) -> None:
        for name, kind, grid, u0, v0, reference in self.members:
            label = f"{name} as expressions/{kind}/n={grid.n_cells}"
            out = tally.attempt(label, pde.run, u0, v0, grid, self.coeffs[name], self.cfg)
            if out is None:
                continue
            final = out[0][-1]
            tally.check(label, checks.mass(u0, final.u))
            tally.check(label, checks.bounds(final.u, final.v, v_ceiling=1.0))
            tally.check(label, checks.agreement(final.u, reference.u))
            tally.check(label, checks.agreement(final.v, reference.v))


WORKLOADS = {"ensemble": Ensemble, "relax": Relax, "construct": Construct, "custom": Custom}


# ---------------------------------------------------------------------------
# layers of the traced run


def _orbit_samples(args, orbit) -> tuple[str, int]:
    return "stationary.orbit_samples", orbit.x.size


def _bytes_written(args, result) -> tuple[str, int]:
    return "reporting.bytes", os.path.getsize(args[0])


# (module, attribute, group, counter); write_snapshot delegates to
# write_columns, which counts its bytes
TRACED_FUNCTIONS = [
    (pde, "run", "pde.run", None),
    (pde, "step", "pde.step", None),
    (co, "kirchhoff_many", "coefficients.kirchhoff_many", None),
    (co, "kirchhoff_s_many", "coefficients.kirchhoff_s_many", None),
    *[(co, name, "coefficients.potentials", None)
      for name in ("cell_potential", "chem_potential", "cell_potential_inv",
                   "chem_potential_inv", "cell_potential_at_one")],
    (dg, "mass", "diagnostics.mass", None),
    (dg, "eps_convergence_study", "diagnostics.eps_convergence_study", None),
    (st, "potential", "stationary.potential", None),
    (st, "energy", "stationary.energy", None),
    (st, "integrate_orbit", "stationary.integrate_orbit", _orbit_samples),
    (st, "orbit_period_oracle", "stationary.orbit_period_oracle", None),
    (st, "v0_for_edge_alignment", "stationary.v0_for_edge_alignment", None),
    (st, "find_crossings", "stationary.find_crossings", None),
    (st, "construct_flat_hump", "stationary.construct_flat_hump", None),
    (st, "stationary_residuals", "stationary.stationary_residuals", None),
    (reporting, "write_columns", "reporting.write", _bytes_written),
    (reporting, "write_key_values", "reporting.write", _bytes_written),
    (reporting, "write_study", "reporting.write", _bytes_written),
    (reporting, "write_snapshot", "reporting.write", None),
    (cli, "cmd_stationary", "cli.cmd_stationary", None),
]
LAYER_GROUPS = list(dict.fromkeys(
    [group for _, _, group, _ in TRACED_FUNCTIONS] + ["coefficients.eval", "expressions.eval"]))
COUNTERS = {"stationary.orbit_samples": "count", "reporting.bytes": "B"}


def per_layer_metrics(totals: dict[str, tuple[int, float]], counters: dict[str, int],
                      rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """metric -> (value, unit): per-round calls, self time and counts.

    ``overhead_s`` is the traced minus the untraced wall time of a round.
    """
    out: dict[str, tuple[float, str]] = {}
    for group in LAYER_GROUPS:
        calls, self_s = totals.get(group, (0, 0.0))
        out[f"{group}.calls"] = (calls / rounds, "count")
        out[f"{group}.self_s"] = (self_s / rounds, "s")
        if group == "pde.step":
            out["pde.step.self_us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    for name, unit in COUNTERS.items():
        out[name] = (counters.get(name, 0) / rounds, unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_, unit) in per_layer_metrics({}, {}, 1, 0.0).items()]
