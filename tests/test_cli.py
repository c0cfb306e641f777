import os
import subprocess
import sys

import pytest

from flathump import cli, pde
from flathump.errors import InputError


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "configs")


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SIM_CFG = """
# comment line
preset = example-A
gamma = 1.0
beta = 1.0
seed = 42
grid.n_cells = 64
grid.length = 10.0
solver.eps = 1e-3
solver.t_end = 0.2
initial.u = bump
initial.v = constant:0.5
sample_times = 0.1, 0.2
"""


class TestConfigParsing:
    def test_key_values_and_comments(self):
        mapping = cli.parse_config_text("a.b = 1  # tail comment\n\n# full comment\nc=x\n")
        assert mapping == {"a.b": "1", "c": "x"}

    def test_rejects_bad_lines(self):
        with pytest.raises(InputError):
            cli.parse_config_text("just words\n")

    def test_field_named_validation(self):
        with pytest.raises(InputError, match="solver.eps"):
            cli.Config.from_mapping({"preset": "example-A", "solver.eps": "-1"})
        with pytest.raises(InputError, match="grid.n_cells"):
            cli.Config.from_mapping({"preset": "example-A", "grid.n_cells": "two"})
        with pytest.raises(InputError):
            cli.Config.from_mapping({})

    def test_abort_on_violation_is_true_or_false(self):
        for text, value in (("TRUE", True), ("false", False)):
            cfg = cli.Config.from_mapping({"preset": "example-A", "solver.abort_on_violation": text})
            assert cfg.solver.abort_on_violation is value
        with pytest.raises(InputError, match="solver.abort_on_violation"):
            cli.Config.from_mapping({"preset": "example-A", "solver.abort_on_violation": "flase"})

    @pytest.mark.parametrize("times", ["0.1, nan", "inf", "0.5, -inf"])
    def test_non_finite_sample_time_rejected(self, times):
        with pytest.raises(InputError, match="sample_times"):
            cli.Config.from_mapping({"preset": "example-A", "sample_times": times})

    def test_unknown_key_rejected(self):
        for key in ("sovler.eps", "solver.t_edn", "grid.n"):
            with pytest.raises(InputError, match=key):
                cli.Config.from_mapping({"preset": "example-A", key: "1"})

    def test_every_read_key_accepted(self):
        cli.Config.from_mapping({
            "preset": "example-A", "stationary.residual_flux_tol": "1e-6",
            "stationary.residual_v_tol": "1e-4", "verify.mass_tol": "1e-11",
            "verify.stationary_n": "512", "verify.drift_tol": "2e-2",
            "sweep.parameter": "solver.eps", "sweep.values": "0.1, 0.01",
            "solver.debug_boundary_leak": "0"})

    @pytest.mark.parametrize("key", ["coefficients.D", "coefficients.g", "coefficients.kappa"])
    def test_preset_with_coefficients_rejected(self, key):
        with pytest.raises(InputError, match="preset"):
            cli.Config.from_mapping({"preset": "example-A", key: "1"})

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_shipped_configs_load(self, name):
        cli.load_config(os.path.join(CONFIG_DIR, name))

    def test_custom_coefficients(self):
        cfg = cli.Config.from_mapping({
            "coefficients.D": "(1-r)^2", "coefficients.h": "r*(1-r)^2*(s+1)",
        })
        assert cfg.coefficients.name == "custom"
        assert float(cfg.coefficients.D(1.0, 0.0)) == 0.0


class TestSimulate:
    def test_writes_snapshots_and_report(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sim.cfg", SIM_CFG)
        out = str(tmp_path / "out")
        code = cli.main(["simulate", "--config", cfg_path, "--out", out])
        assert code == 0
        files = sorted(os.listdir(out))
        assert "report.csv" in files
        with open(os.path.join(out, "report.csv"), encoding="utf-8") as fh:
            keys = {line.split(",")[0] for line in fh}
        assert {"limiter_cell_steps", "limiter_theta_min"} <= keys
        snaps = [f for f in files if f.startswith("snapshot_")]
        assert len(snaps) == 2
        head = open(os.path.join(out, snaps[0]), encoding="utf-8").readline()
        assert head.startswith("# t=")
        assert "preset=example-A" in head
        assert "n_cells=64" in head

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sim.cfg", SIM_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["simulate", "--config", cfg_path, "--out", out1]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", out2]) == 0
        for name in os.listdir(out1):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name

    def test_seed_changes_random_data(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sim.cfg",
                             SIM_CFG.replace("initial.u = bump", "initial.u = random"))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["simulate", "--config", cfg_path, "--out", out1, "--seed", "1"]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", out2, "--seed", "2"]) == 0
        s1 = open(os.path.join(out1, "snapshot_t0.100000.csv"), "rb").read()
        s2 = open(os.path.join(out2, "snapshot_t0.100000.csv"), "rb").read()
        assert s1 != s2

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "bad.cfg", "preset = example-A\nsolver.eps = -1\n")
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_negative_diffusion_exits_2(self, tmp_path, capsys):
        # backward diffusion is a config error named as such, not a Newton failure
        cfg_path = write_cfg(tmp_path, "sim.cfg", SIM_CFG.replace(
            "preset = example-A", "coefficients.D = 0.5 - r\ncoefficients.h = r * (1 - r)"))
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "diffusion coefficient D" in capsys.readouterr().err

    def test_newton_failure_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pde, "NEWTON_MAX_ITER", 1)
        cfg_path = write_cfg(tmp_path, "sim.cfg", SIM_CFG)
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3


STAT_CFG = """
preset = example-C
gamma = 3.0
beta = 1.0
stationary.lambda = auto-slope
stationary.lambda_fraction = 0.035
stationary.v0 = auto
stationary.grid_n = 512
"""


class TestStationary:
    def test_construction_outputs(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "stat.cfg", STAT_CFG)
        out = str(tmp_path / "out")
        code = cli.main(["stationary", "--config", cfg_path, "--out", out])
        assert code == 0
        for name in ("profile.csv", "parameters.csv", "phase_portrait.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "phase_portrait.csv"), encoding="utf-8") as fh:
            rows = sum(1 for line in fh) - 2        # metadata and header lines
        assert 1024 < rows <= 2048
        text = open(os.path.join(out, "parameters.csv"), encoding="utf-8").read()
        for key in ("lambda", "v_sat", "rho_saddle", "rho_center", "x1",
                    "length", "residual_flux", "residual_v", "energy_margin"):
            assert key in text

    def test_broken_separable_structure_exits_4(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "bad.cfg", """
coefficients.D = 1 - r
coefficients.h = (1 + r) * exp(s)
coefficients.D1 = 1 - r
coefficients.D2 = 1
coefficients.h1 = 1 + r
coefficients.h2 = exp(s)
gamma = 3.0
beta = 1.0
stationary.lambda = -2.0
""")
        assert cli.main(["stationary", "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 4

    def test_offset_breaking_crossings_exits_4(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "bad.cfg", STAT_CFG.replace(
            "stationary.lambda = auto-slope", "stationary.lambda = -1.0").replace(
            "stationary.lambda_fraction = 0.035", ""))
        assert cli.main(["stationary", "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 4

    def test_unreachable_length_exits_5(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "short.cfg", STAT_CFG.replace(
            "stationary.v0 = auto", "stationary.v0 = length:0.001"))
        assert cli.main(["stationary", "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 5


def run_cli(capsys, command, cfg_path, out):
    """The CLI in this process: (exit code, stdout, stderr).

    An exception that escapes ``cli.main`` fails the calling test.
    """
    code = cli.main([command, "--config", cfg_path, "--out", out])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(command, cfg_path, out):
    """The CLI in a fresh interpreter, through the ``python -m`` entry point,
    so a traceback would reach stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "flathump.cli", command, "--config", cfg_path, "--out", out],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("command, key, spec", [
    ("simulate", "initial.u", "constant:abc"),
    ("simulate", "initial.u", "random:abc"),
    ("stationary", "stationary.v0", "length:abc"),
    ("stationary", "stationary.v0", "align:abc:16"),
])
def test_malformed_number_in_spec_exits_2(tmp_path, capsys, command, key, spec):
    # the appended line overrides the base config's value for the key
    base = SIM_CFG if command == "simulate" else STAT_CFG
    cfg_path = write_cfg(tmp_path, "bad.cfg", f"{base}\n{key} = {spec}\n")
    code, out, err = run_cli(capsys, command, cfg_path, str(tmp_path / "o"))
    assert code == 2, err
    assert "Traceback" not in out + err
    assert key in err


@pytest.mark.parametrize("key, value", [
    ("initial.u", "file:{tmp}/missing.csv"),
    ("initial.u", "file:{tmp}"),
    ("initial.u", "file:{tmp}/nan.csv"),                # a non-numeric u cell reads as NaN
    ("initial.u", "file:{tmp}/ragged.csv"),
    ("initial.v", "random:-1"),
    ("initial.v", "random:nan"),
    ("initial.v", "random:inf"),
    ("coefficients.D", "(0-8)^(1/3) * (1 - r)"),        # complex constant part
])
def test_malformed_input_exits_2(tmp_path, capsys, key, value):
    (tmp_path / "nan.csv").write_text("x,u,v\n" + "0.1,abc,0.5\n" * 64, encoding="utf-8")
    (tmp_path / "ragged.csv").write_text("x,u,v\n0.1,0.5\n", encoding="utf-8")
    base = SIM_CFG.replace("preset = example-A", "coefficients.h = r * (1 - r)^2") \
        if key.startswith("coefficients.") else SIM_CFG
    cfg_path = write_cfg(tmp_path, "bad.cfg", f"{base}\n{key} = {value.format(tmp=tmp_path)}\n")
    code, out, err = run_cli(capsys, "simulate", cfg_path, str(tmp_path / "o"))
    assert code == 2, err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("lines, named", [
    ("sovler.eps = -5\nsolver.t_edn = 0.01\ngrid.n = 32\n", "sovler.eps"),
    ("coefficients.D = (1 - r)^2\n", "preset"),
    # the solver has one chemotactic flux and one v-update
    pytest.param("solver.flux_scheme = central\n", "unknown config key(s) 'solver.flux_scheme'",
                 id="flux_scheme"),
    pytest.param("solver.v_stepping = explicit\n", "unknown config key(s) 'solver.v_stepping'",
                 id="v_stepping"),
])
def test_unknown_or_conflicting_key_exits_2(tmp_path, capsys, lines, named):
    cfg_path = write_cfg(tmp_path, "bad.cfg", SIM_CFG + lines)
    code, out, err = run_cli(capsys, "simulate", cfg_path, str(tmp_path / "o"))
    assert code == 2, err
    assert "Traceback" not in out + err
    assert named in err


# one subprocess test per command keeps `python -m flathump.cli` covered


def test_overflowing_coefficient_expression_exits_2(tmp_path):
    cfg_path = write_cfg(tmp_path, "huge.cfg", SIM_CFG.replace(
        "preset = example-A", "coefficients.D = 9^9^9\ncoefficients.h = r * (1 - r)^2"))
    proc = run_cli_process("simulate", cfg_path, str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "9^9^9" in proc.stderr


def test_non_finite_length_exits_2(tmp_path):
    cfg_path = write_cfg(tmp_path, "nan.cfg", f"{STAT_CFG}\nstationary.v0 = length:nan\n")
    proc = run_cli_process("stationary", cfg_path, str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "nan" in proc.stderr


class TestVerifyAndSweep:
    def test_verify_passes_and_creates_outputs(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "verify.cfg", SIM_CFG + """
verify.stationary_n = 512
verify.drift_tol = 5e-2
solver.t_end = 0.5
""")
        out = str(tmp_path / "nested" / "dirs")     # created automatically
        code = cli.main(["verify", "--config", cfg_path, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "verify_summary.csv"))

    def test_injected_leak_fails_mass_check(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "leak.cfg", SIM_CFG + """
solver.debug_boundary_leak = 0.01
verify.stationary_n = 512
verify.drift_tol = 5e-2
""")
        code = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "mass-conservation" in out

    def test_sweep_runs_each_value(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "sweep.cfg", SIM_CFG + """
sweep.parameter = solver.eps
sweep.values = 0.1, 0.01
""")
        out = str(tmp_path / "sweep")
        assert cli.main(["sweep", "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "sweep_summary.csv"))
        assert os.path.exists(os.path.join(out, "solver_eps_0.1", "report.csv"))
        assert os.path.exists(os.path.join(out, "solver_eps_0.01", "report.csv"))
