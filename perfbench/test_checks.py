"""The benchmark's own tests: every output check can fail, and the tracer and
the command keep their contracts.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_checkout_sources()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flathump import coefficients as co  # noqa: E402
from flathump import pde  # noqa: E402
from flathump import stationary as st  # noqa: E402


def _relax(u0, v0, cfg, n=128, length=20.0):
    grid = pde.Grid1D(n, length)
    snaps, _ = pde.run(u0(grid), v0(grid), grid, co.preset("example-A"), cfg)
    return snaps[-1]


# --------------------------------------------------------------------------
# solver-output checks fail on faulty runs


def test_mass_check_fails_on_boundary_leak():
    grid = pde.Grid1D(128, 20.0)
    u0, v0 = pde.profile_bump(grid), pde.profile_constant(grid, 0.5)
    clean = pde.SolverConfig(eps=1e-3, t_end=0.05)
    leaky = pde.SolverConfig(eps=1e-3, t_end=0.05, debug_boundary_leak=1e-3)
    for cfg, fails in ((clean, False), (leaky, True)):
        snaps, _ = pde.run(u0, v0, grid, co.preset("example-A"), cfg)
        assert (checks.mass(u0, snaps[-1].u) is not None) == fails


def test_bounds_check_fails_above_one():
    grid = pde.Grid1D(64, 10.0)
    u, v = pde.profile_bump(grid), pde.profile_constant(grid, 0.5)
    assert checks.bounds(u, v, v_ceiling=1.0) is None
    pushed = u.copy()
    pushed[32] = 1.0 + 1e-6
    assert checks.bounds(pushed, v, v_ceiling=1.0) is not None
    assert checks.bounds(u, v + 0.6, v_ceiling=1.0) is not None
    assert checks.bounds(u, v - 0.6, v_ceiling=1.0) is not None


def test_symmetry_check_fails_on_mirrored_asymmetric_state():
    cfg = pde.SolverConfig(eps=1e-3, t_end=0.05)
    even = _relax(pde.profile_bump, lambda g: pde.profile_constant(g, 0.5), cfg)
    assert checks.mirror_symmetry(even.u) is None

    def lopsided(grid):
        u = pde.profile_bump(grid)
        u[: grid.n_cells // 4] += 0.05
        return u

    odd = _relax(lopsided, lambda g: pde.profile_constant(g, 0.5), cfg)
    assert checks.mirror_symmetry(odd.u) is not None


@pytest.fixture(scope="module")
def hump():
    return st.construct_flat_hump(workloads.canonical_params(), None, 2048)


def test_v_residual_check_fails_on_shifted_v(hump):
    p = hump.params
    args = (hump.length, p.gb.beta, p.gb.gamma, hump.x1)
    assert checks.residual_within(checks.v_residual(hump.u, hump.v, *args), 1e-4) is None
    shifted = checks.v_residual(hump.u, hump.v + 1e-3, *args)
    assert checks.residual_within(shifted, 1e-4) is not None


def test_profile_checks_fail_on_wrong_profiles(hump):
    x, lam = hump.grid.centers, hump.lam
    outside = (x < hump.x1) | (x > hump.length - hump.x1)
    u, v = hump.u[outside], hump.v[outside]
    assert checks.j_relation(u, v, lam) is None
    assert checks.j_relation(u, v, lam + 1e-6) is not None

    edge = hump.x1 * 2048 / hump.length
    k = int(round(edge))
    offset_ok = abs(edge - k) <= checks.EDGE_TOL_CELLS
    assert (checks.plateau(x, hump.u, hump.x1, hump.length, 2048, k) is None) == offset_ok
    assert checks.plateau(x, hump.u, hump.x1, hump.length, 2048, k + 1) is not None
    dented = hump.u.copy()
    dented[hump.grid.n_cells // 2] = 0.999
    assert checks.plateau(x, dented, hump.x1, hump.length, 2048, k) is not None


# --------------------------------------------------------------------------
# scalar checks fail outside their tolerances


@pytest.mark.parametrize("check, good, bad", [
    (checks.cauchy_ladder, ([4e-2, 2e-2, 1e-2, 5e-3],), ([4e-2, 2e-2, 2e-2, 5e-3],)),
    (checks.cauchy_ladder, ([4e-2, 2e-2, 1e-2, 5e-3],), ([4e-2, 3.5e-2, 3e-2, 1e-2],)),
    (checks.drift_refinement, (1.2e-2, 6e-3), (1.2e-2, 1e-2)),
    (checks.drift_refinement, (1.2e-2, 6e-3), (6e-2, 3e-2)),
    (checks.residual_order, ([2e-4, 5e-5, 1.2e-5],), ([2e-4, 1.5e-4, 1.2e-5],)),
    (checks.energy_flat, (np.array([1.0, 1.0 + 1e-9]), 1.0), (np.array([1.0, 1.0 + 1e-7]), 1.0)),
    (checks.period_match, (14.0, 14.0 * (1 + 1e-8)), (14.0, 14.0 * (1 + 1e-5))),
    (checks.agreement, (np.zeros(3), np.full(3, 1e-12)), (np.zeros(3), np.full(3, 1e-9))),
])
def test_scalar_checks(check, good, bad):
    assert check(*good) is None
    assert check(*bad) is not None


# --------------------------------------------------------------------------
# tracer


def test_tracer_self_time_calls_and_restore():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(mod.inner(x))

    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer()
    original = co.preset("example-A")
    sets = {"A": original}
    functions = [(mod, "outer", "layer.outer", None),
                 (mod, "inner", "layer.inner", lambda args, out: ("layer.items", out))]
    with tracer.installed(functions, sets):
        assert mod.outer(1) == 3
        sets["A"].D(0.5, 0.5)
    assert mod.inner is inner and mod.outer is outer
    assert sets["A"] is original
    totals = tracer.totals()
    assert totals["layer.outer"][0] == 1 and totals["layer.inner"][0] == 2
    assert totals["coefficients.eval"][0] == 1
    assert tracer.counters["layer.items"] == 2 + 3
    duration = np.array(tracer.end) - np.array(tracer.start)
    assert totals["layer.outer"][1] == pytest.approx(duration[0] - duration[1] - duration[2])


def test_nested_calls_of_one_group_count_once():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.wrapper = lambda: mod.leaf()
    tracer = tracing.Tracer()
    with tracer.installed([(mod, "wrapper", "g", None), (mod, "leaf", "g", None)], {}):
        mod.wrapper()
    assert tracer.totals()["g"][0] == 1


# --------------------------------------------------------------------------
# the command and BENCHMARK.json agree


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s",
                                                       "peak_rss_mib"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.per_layer_names()


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
