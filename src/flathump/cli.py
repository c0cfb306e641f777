"""Command-line surface.

Subcommands: simulate, stationary, verify, sweep.  The only inputs are a
config file (flat ``key = value`` lines with dotted section prefixes) and
the overrides --out / --seed.  Exit codes partition failures:

    0  pass
    1  scientific failure (a verified property does not hold)
    2  config error
    3  solver error (blow-up, stiffness, invariant violation)
    4  structural / crossing-condition failure
    5  construction failure
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import coefficients as co
from . import diagnostics as dg
from . import pde
from . import reporting
from . import stationary as st
from .errors import (
    ConstructionError,
    CrossingConditionError,
    InputError,
    SolverError,
    StructuralError,
)

EXIT_PASS = 0
EXIT_SCIENTIFIC = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STRUCTURAL = 4
EXIT_CONSTRUCTION = 5


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' comments; dotted section keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InputError(f"config line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _get_float(mapping, key, default=None, *, positive=False, nonnegative=False):
    if key not in mapping:
        if default is None:
            raise InputError(f"missing required config key {key!r}")
        return default
    try:
        val = float(mapping[key])
    except ValueError:
        raise InputError(f"config key {key!r}: {mapping[key]!r} is not a number") from None
    if positive and not val > 0:
        raise InputError(f"config key {key!r} must be positive, got {val}")
    if nonnegative and val < 0:
        raise InputError(f"config key {key!r} must be nonnegative, got {val}")
    return val


def _get_int(mapping, key, default=None, *, minimum=None):
    if key not in mapping:
        if default is None:
            raise InputError(f"missing required config key {key!r}")
        return default
    try:
        val = int(mapping[key])
    except ValueError:
        raise InputError(f"config key {key!r}: {mapping[key]!r} is not an integer") from None
    if minimum is not None and val < minimum:
        raise InputError(f"config key {key!r} must be >= {minimum}, got {val}")
    return val


# every key a config may hold; any other key is a config error
CONFIG_KEYS = frozenset({
    "preset", "gamma", "beta", "seed", "output.dir", "sample_times",
    "coefficients.D", "coefficients.h", "coefficients.g", "coefficients.kappa",
    "coefficients.D1", "coefficients.D2", "coefficients.h1", "coefficients.h2",
    "grid.n_cells", "grid.length",
    "solver.eps", "solver.dt_max", "solver.cfl", "solver.t_end",
    "solver.abort_on_violation", "solver.debug_boundary_leak",
    "initial.u", "initial.v",
    "stationary.lambda", "stationary.lambda_fraction", "stationary.v0",
    "stationary.grid_n", "stationary.residual_flux_tol", "stationary.residual_v_tol",
    "verify.mass_tol", "verify.stationary_n", "verify.drift_tol",
    "sweep.parameter", "sweep.values",
})


@dataclass
class Config:
    """Validated run configuration."""

    coefficients: co.CoefficientSet
    gamma_beta: co.GammaBeta
    grid: pde.Grid1D
    solver: pde.SolverConfig
    seed: int = 0
    out_dir: str = "out"
    sample_times: tuple[float, ...] = ()
    initial_u: str = "bump"
    initial_v: str = "constant:0.5"
    stationary_lambda: str = "auto"
    stationary_fraction: float = 0.5
    stationary_v0: str = "auto"
    stationary_grid_n: int = 4096
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "Config":
        unknown = sorted(set(m) - CONFIG_KEYS)
        if unknown:
            raise InputError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
        if "preset" in m and any(key.startswith("coefficients.") for key in m):
            raise InputError("config key 'preset' cannot be combined with 'coefficients.*' keys")
        gamma = _get_float(m, "gamma", 1.0, positive=True)
        beta = _get_float(m, "beta", 1.0, positive=True)
        gb = co.GammaBeta(gamma, beta)

        if "preset" in m:
            base = co.preset(m["preset"])
        elif "coefficients.D" in m:
            base = co.from_expressions(
                "custom",
                D=m["coefficients.D"],
                h=m.get("coefficients.h", "0"),
                g=m.get("coefficients.g", "r - s"),
                kappa=_get_float(m, "coefficients.kappa", 0.0, nonnegative=True),
                D1=m.get("coefficients.D1"), D2=m.get("coefficients.D2"),
                h1=m.get("coefficients.h1"), h2=m.get("coefficients.h2"))
        else:
            raise InputError("config needs either 'preset' or 'coefficients.D'")
        if "coefficients.g" not in m:
            base = co.with_reaction(base, gb)

        abort = m.get("solver.abort_on_violation", "true").lower()
        if abort not in ("true", "false"):
            raise InputError(f"config key 'solver.abort_on_violation': {abort!r} is not true or false")
        grid = pde.Grid1D(
            n_cells=_get_int(m, "grid.n_cells", 256, minimum=4),
            length=_get_float(m, "grid.length", 10.0, positive=True))
        solver = pde.SolverConfig(
            eps=_get_float(m, "solver.eps", 1e-3, nonnegative=True),
            dt_max=_get_float(m, "solver.dt_max", 1e-2, positive=True),
            cfl=_get_float(m, "solver.cfl", 0.45, positive=True),
            t_end=_get_float(m, "solver.t_end", 1.0, positive=True),
            abort_on_violation=abort == "true",
            debug_boundary_leak=_get_float(m, "solver.debug_boundary_leak", 0.0))

        times: tuple[float, ...] = ()
        if "sample_times" in m and m["sample_times"].strip():
            try:
                times = tuple(float(tok) for tok in m["sample_times"].split(","))
            except ValueError:
                raise InputError(f"config key 'sample_times': cannot parse {m['sample_times']!r}") from None
            if not all(np.isfinite(times)):
                raise InputError(f"config key 'sample_times': {m['sample_times']!r} is not finite")

        return cls(
            coefficients=base, gamma_beta=gb, grid=grid, solver=solver,
            seed=_get_int(m, "seed", 0),
            out_dir=m.get("output.dir", "out"),
            sample_times=times,
            initial_u=m.get("initial.u", "bump"),
            initial_v=m.get("initial.v", "constant:0.5"),
            stationary_lambda=m.get("stationary.lambda", "auto"),
            stationary_fraction=_get_float(m, "stationary.lambda_fraction", 0.5),
            stationary_grid_n=_get_int(m, "stationary.grid_n", 4096, minimum=16),
            stationary_v0=m.get("stationary.v0", "auto"),
            raw=dict(m))


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from None
    return Config.from_mapping(parse_config_text(text))


def _spec_number(convert, text: str, key: str, spec: str):
    """``convert(text)`` for a number inside a spec; InputError if malformed."""
    try:
        return convert(text)
    except ValueError:
        raise InputError(f"config key {key!r}: cannot parse {text!r} in {spec!r}") from None


def initial_profile(spec: str, grid: pde.Grid1D, rng: np.random.Generator,
                    chemical: bool = False) -> np.ndarray:
    """Initial-data builders: constant:V | bump | step | random | file:PATH."""
    key = "initial.v" if chemical else "initial.u"
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind == "constant":
        return pde.profile_constant(grid, _spec_number(float, arg or "0.5", key, spec))
    if kind == "bump":
        return pde.profile_bump(grid)
    if kind == "step":
        return pde.profile_step(grid)
    if kind == "random":
        hi = _spec_number(float, arg, key, spec) if arg else 1.0
        if not 0.0 <= hi < np.inf:
            raise InputError(f"config key {key!r}: bound in {spec!r} must be finite and >= 0")
        return pde.profile_random(grid, rng, 0.0, hi)
    if kind == "file":
        try:
            data = np.genfromtxt(arg, delimiter=",", names=True, comments="#")
        except (OSError, ValueError) as exc:
            raise InputError(f"config key {key!r}: cannot read {arg!r}: {exc}") from None
        col = "v" if chemical else "u"
        if col not in (data.dtype.names or ()):
            raise InputError(f"initial data file {arg!r} lacks column {col!r}")
        vals = np.asarray(data[col], dtype=float)
        if vals.size != grid.n_cells:
            raise InputError(
                f"initial data file {arg!r} has {vals.size} rows, grid has {grid.n_cells}")
        return vals
    raise InputError(f"unknown initial-data spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: Config) -> int:
    rng = np.random.default_rng(cfg.seed)
    u0 = initial_profile(cfg.initial_u, cfg.grid, rng)
    v0 = initial_profile(cfg.initial_v, cfg.grid, rng, chemical=True)
    snaps, report = pde.run(u0, v0, cfg.grid, cfg.coefficients, cfg.solver,
                            sample_times=cfg.sample_times)
    x = cfg.grid.centers
    for snap in snaps:
        path = os.path.join(cfg.out_dir, f"snapshot_t{snap.t:.6f}.csv")
        reporting.write_snapshot(path, x, snap.u, snap.v, t=snap.t,
                                 eps=cfg.solver.eps, preset=cfg.coefficients.name,
                                 n_cells=cfg.grid.n_cells)
    reporting.write_key_values(os.path.join(cfg.out_dir, "report.csv"),
                               report.flat_items(),
                               metadata={"preset": cfg.coefficients.name,
                                         "seed": cfg.seed})
    if report.violations:
        t, kind, mag = report.violations[0]
        print(f"FAIL invariant violation {kind} of {mag:.3e} at t={t:.6g}")
        return EXIT_SCIENTIFIC
    print(f"ok simulate: {len(snaps)} snapshots, mass drift {report.mass_drift:.3e}")
    return EXIT_PASS


def _resolve_lambda(cfg: Config) -> float:
    c = cfg.coefficients
    gb = cfg.gamma_beta
    mode = cfg.stationary_lambda
    if mode in ("auto", "auto-slope"):
        _, (lo, hi) = st.lambda_interval_from_slopes(c, gb)
        return lo + cfg.stationary_fraction * (hi - lo)
    if mode == "auto-window":
        base, width = st.lambda_window_from_tangency(c, gb)
        return base + cfg.stationary_fraction * width
    try:
        return float(mode)
    except ValueError:
        raise InputError(
            f"config key 'stationary.lambda': expected a number, 'auto', "
            f"'auto-slope' or 'auto-window', got {mode!r}") from None


def _resolve_v0(cfg: Config, params: st.PhaseParams) -> float:
    spec = cfg.stationary_v0
    if spec == "auto":
        return st.default_v0(params)
    kind, _, arg = spec.partition(":")
    key = "stationary.v0"
    if kind == "length":
        return st.v0_for_length(params, _spec_number(float, arg, key, spec))
    if kind == "align":
        n_str, _, idx_str = arg.partition(":")
        return st.v0_for_edge_alignment(params, _spec_number(int, n_str, key, spec),
                                        _spec_number(int, idx_str, key, spec))
    try:
        return float(spec)
    except ValueError:
        raise InputError(
            f"config key 'stationary.v0': expected a number, 'auto', "
            f"'length:L' or 'align:N:K', got {spec!r}") from None


def cmd_stationary(cfg: Config) -> int:
    c = cfg.coefficients
    lam = _resolve_lambda(cfg)
    params = st.find_crossings(c, lam, cfg.gamma_beta)
    holds, margin = st.hump_energy_margin(params)
    if not holds:
        print(f"FAIL mean inequality for the energy gap does not hold (margin {margin:.6g})")
        return EXIT_STRUCTURAL
    v0 = _resolve_v0(cfg, params)
    profile = st.construct_flat_hump(params, v0, cfg.stationary_grid_n)

    out = cfg.out_dir
    reporting.write_snapshot(os.path.join(out, "profile.csv"),
                             profile.grid.centers, profile.u, profile.v,
                             t=0.0, eps=0.0, preset=c.name, n_cells=cfg.stationary_grid_n)
    reporting.write_phase_portrait(os.path.join(out, "phase_portrait.csv"), params,
                                   profile.orbit)
    reporting.write_key_values(
        os.path.join(out, "parameters.csv"),
        [("lambda", profile.lam), ("v_sat", params.v_sat),
         ("rho_saddle", params.rho_saddle), ("rho_center", params.rho_center),
         ("x1", profile.x1), ("length", profile.length), ("v0", v0),
         ("residual_flux", profile.residual_flux), ("residual_v", profile.residual_v),
         ("energy_margin", margin), ("gamma", cfg.gamma_beta.gamma),
         ("beta", cfg.gamma_beta.beta)],
        metadata={"preset": c.name})

    flux_tol = _get_float(cfg.raw, "stationary.residual_flux_tol", 1e-6)
    v_tol = _get_float(cfg.raw, "stationary.residual_v_tol", 1e-4)
    if profile.residual_flux > flux_tol or profile.residual_v > v_tol:
        print(f"FAIL residuals above thresholds: flux {profile.residual_flux:.3e} "
              f"(tol {flux_tol:g}), v {profile.residual_v:.3e} (tol {v_tol:g})")
        return EXIT_SCIENTIFIC
    print(f"ok stationary: lambda={lam:.6g} x1={profile.x1:.6g} l={profile.length:.6g} "
          f"residuals=({profile.residual_flux:.3e}, {profile.residual_v:.3e})")
    return EXIT_PASS


def cmd_verify(cfg: Config) -> int:
    """Condition checks, conservation/invariant suite, studies, stationarity."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(cfg.seed)

    rep = co.check_conditions(cfg.coefficients, s_max=5.0, grid_n=64)
    checks.append(("structural-conditions", rep.passed,
                   f"empirical M={rep.empirical_m:.4g}"))

    u0 = initial_profile(cfg.initial_u, cfg.grid, rng)
    v0 = initial_profile(cfg.initial_v, cfg.grid, rng, chemical=True)
    mass_tol = _get_float(cfg.raw, "verify.mass_tol", 1e-11)
    # verify and its studies record invariant violations rather than raise
    run_cfg = replace(cfg.solver, abort_on_violation=False)
    snaps, report = pde.run(u0, v0, cfg.grid, cfg.coefficients, run_cfg,
                            sample_times=cfg.sample_times or (cfg.solver.t_end,))
    checks.append(("mass-conservation", report.mass_drift <= mass_tol,
                   f"relative drift {report.mass_drift:.3e} (tol {mass_tol:g})"))
    checks.append(("invariant-region", not report.violations,
                   f"{len(report.violations)} violations"))

    eps_list = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
    eps_tab = dg.eps_convergence_study(u0, v0, cfg.grid, cfg.coefficients,
                                       run_cfg, eps_list)
    ratio = eps_tab.metadata["last_diff"] / eps_tab.metadata["first_diff"]
    eps_ok = eps_tab.passed and ratio <= 0.2
    checks.append(("eps-convergence", eps_ok,
                   f"final/first {ratio:.3f} (needs <= 0.2, decreasing)"))
    reporting.write_study(os.path.join(cfg.out_dir, "eps_study.csv"), eps_tab)

    dep_c = co.with_reaction(co.preset("example-B"), cfg.gamma_beta)
    grid_dep = pde.Grid1D(min(cfg.grid.n_cells, 256), cfg.grid.length)
    u0d = pde.profile_bump(grid_dep, base=0.1, amplitude=0.7)
    v0d = pde.profile_constant(grid_dep, 0.5)
    dep_cfg = replace(run_cfg, t_end=min(run_cfg.t_end, 0.5))
    dep_tab = dg.continuous_dependence_study(u0d, v0d, grid_dep, dep_c, dep_cfg,
                                             [1e-2, 1e-3, 1e-4])
    checks.append(("continuous-dependence", dep_tab.passed, dep_tab.note or "ratios bounded"))
    reporting.write_study(os.path.join(cfg.out_dir, "dependence_study.csv"), dep_tab)

    try:
        params = st.canonical_params()
        n_prof = _get_int(cfg.raw, "verify.stationary_n", 1024, minimum=64)
        v0s = st.v0_for_edge_alignment(params, 1024, 16)
        profile = st.construct_flat_hump(params, v0s, n_prof)
        drift_cfg = replace(run_cfg, eps=0.0, t_end=0.5)
        drift = st.stationarity_drift(profile, drift_cfg, t_check=0.5)
        drift_tol = _get_float(cfg.raw, "verify.drift_tol", 2e-2)
        checks.append(("stationarity-drift", drift <= drift_tol,
                       f"sup drift {drift:.3e} at n={n_prof} (tol {drift_tol:g})"))
    except (CrossingConditionError, ConstructionError, StructuralError) as exc:
        checks.append(("stationarity-drift", False, str(exc)))

    width = max(len(name) for name, _, _ in checks)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    reporting.write_key_values(os.path.join(cfg.out_dir, "verify_summary.csv"),
                               [(name, "pass" if ok else "fail") for name, ok, _ in checks])
    if failed:
        print(f"verification failed: {', '.join(failed)}")
        return EXIT_SCIENTIFIC
    return EXIT_PASS


def cmd_sweep(cfg: Config) -> int:
    key = cfg.raw.get("sweep.parameter")
    values = cfg.raw.get("sweep.values")
    if not key or not values:
        raise InputError("sweep needs 'sweep.parameter' and 'sweep.values'")
    worst = EXIT_PASS
    rows = []
    for tok in values.split(","):
        tok = tok.strip()
        mapping = dict(cfg.raw)
        mapping[key] = tok
        mapping["output.dir"] = os.path.join(cfg.out_dir, f"{key.replace('.', '_')}_{tok}")
        sub = Config.from_mapping(mapping)
        code = cmd_simulate(sub)
        rows.append((tok, code))
        worst = max(worst, code)
    reporting.write_key_values(os.path.join(cfg.out_dir, "sweep_summary.csv"),
                               [(tok, code) for tok, code in rows],
                               metadata={"parameter": key})
    return worst


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="flathump",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("simulate", "stationary", "verify", "sweep"))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        os.makedirs(cfg.out_dir, exist_ok=True)
        handler = {"simulate": cmd_simulate, "stationary": cmd_stationary,
                   "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
        return handler(cfg)
    except CrossingConditionError as exc:
        print(f"crossing-condition failure [{exc.clause}]: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except StructuralError as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ConstructionError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:          # blow-up, stiffness, invariant violation
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
