import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from flathump import coefficients as co
from flathump import diagnostics as dg
from flathump import pde
from flathump.errors import InputError


def neumaier_sum(values):
    # independent compensated-summation oracle
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


class TestMass:
    def test_uniform_density_gives_domain_size(self):
        grid = pde.Grid1D(64, 7.5)
        state = pde.State(np.ones(64), np.zeros(64))
        assert dg.mass(state, grid) == pytest.approx(7.5, abs=1e-14)

    def test_half_indicator(self):
        grid = pde.Grid1D(64, 7.5)
        u = np.zeros(64)
        u[:32] = 1.0
        assert dg.mass(pde.State(u, u), grid) == pytest.approx(7.5 / 2, abs=1e-14)

    def test_compensated_oracle(self):
        rng = np.random.default_rng(9)
        grid = pde.Grid1D(10_000, 3.0)
        u = rng.uniform(0, 1, 10_000)
        state = pde.State(u, u)
        assert dg.mass(state, grid) == pytest.approx(
            neumaier_sum(u.tolist()) * grid.dx, abs=1e-14)

    @given(a=hnp.arrays(float, 32, elements=hst.floats(0, 1)),
           b=hnp.arrays(float, 32, elements=hst.floats(0, 1)))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b):
        grid = pde.Grid1D(32, 2.0)
        lhs = dg.mass(pde.State(a + b, a), grid)
        rhs = dg.mass(pde.State(a, a), grid) + dg.mass(pde.State(b, b), grid)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestNorms:
    def test_identical_states(self):
        grid = pde.Grid1D(16, 1.0)
        s = pde.State(np.linspace(0, 1, 16), np.linspace(0, 1, 16))
        for p in ("L1", "L2", "Linf"):
            assert dg.lp_distance(s, s, grid, p) == (0.0, 0.0)

    def test_constant_shift_l1(self):
        grid = pde.Grid1D(16, 4.0)
        a = pde.State(np.full(16, 0.2), np.zeros(16))
        b = pde.State(np.full(16, 0.5), np.zeros(16))
        du, _ = dg.lp_distance(a, b, grid, "L1")
        assert du == pytest.approx(0.3 * 4.0, abs=1e-13)

    def test_l2_direct_sum_oracle(self):
        rng = np.random.default_rng(4)
        grid = pde.Grid1D(256, 2.0)
        a = pde.State(rng.uniform(0, 1, 256), rng.uniform(0, 1, 256))
        b = pde.State(rng.uniform(0, 1, 256), rng.uniform(0, 1, 256))
        du, dv = dg.lp_distance(a, b, grid, "L2")
        oracle = math.sqrt(sum((x - y) ** 2 for x, y in zip(a.u, b.u)) * grid.dx)
        assert du == pytest.approx(oracle, abs=1e-13)

    def test_grid_mismatch(self):
        a = pde.State(np.zeros(8), np.zeros(8))
        b = pde.State(np.zeros(16), np.zeros(16))
        with pytest.raises(InputError):
            dg.lp_distance(a, b, pde.Grid1D(8, 1.0))

    @given(data=hst.data())
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, data):
        grid = pde.Grid1D(16, 1.0)
        arrays = [data.draw(hnp.arrays(float, 16, elements=hst.floats(0, 1)))
                  for _ in range(3)]
        states = [pde.State(a, a) for a in arrays]
        for p in ("L1", "L2", "Linf"):
            ab = dg.lp_distance(states[0], states[1], grid, p)[0]
            bc = dg.lp_distance(states[1], states[2], grid, p)[0]
            ac = dg.lp_distance(states[0], states[2], grid, p)[0]
            assert ac <= ab + bc + 1e-12


class TestEpsStudy:
    def test_short_list_rejected(self, preset_a):
        grid = pde.Grid1D(32, 4.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.1)
        with pytest.raises(InputError):
            dg.eps_convergence_study(u0, v0, grid, preset_a, cfg, [1e-1])
        with pytest.raises(InputError):
            dg.eps_convergence_study(u0, v0, grid, preset_a, cfg, [1e-1, 2e-1, 5e-2])

    def test_cauchy_column_decreases(self, preset_a):
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.25)
        table = dg.eps_convergence_study(u0, v0, grid, preset_a, cfg,
                                         [1e-1, 5e-2, 2.5e-2])
        diffs = [row.values[2] for row in table.rows]
        assert table.passed
        assert diffs == sorted(diffs, reverse=True)

    def test_pure_diffusion_scales_linearly(self):
        # h = 0 double: the eps-sensitivity is a plain diffusion
        # perturbation, so log-log slope of the Cauchy column is ~1
        c = co.from_expressions("a-no-chemo", D="(1-r)^2*(s+1)", h="0", g="0")
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.5)
        table = dg.eps_convergence_study(u0, v0, grid, c, cfg,
                                         [1e-1, 5e-2, 2.5e-2, 1.25e-2])
        eps = np.array([row.values[0] for row in table.rows])
        diffs = np.array([row.values[2] for row in table.rows])
        slope = np.polyfit(np.log(eps), np.log(diffs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_runs_copy_the_config_with_only_eps_replaced(self, preset_a, monkeypatch):
        # every field but eps reaches the solver unchanged, non-default
        # values included
        grid = pde.Grid1D(32, 4.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(eps=0.3, dt_max=5e-3, cfl=0.3, t_end=0.02,
                               abort_on_violation=False, debug_boundary_leak=1e-3)
        seen = []
        real_run = pde.run

        def capture(u, v, g, c, run_cfg, **kwargs):
            seen.append(run_cfg)
            return real_run(u, v, g, c, run_cfg, **kwargs)

        monkeypatch.setattr(pde, "run", capture)
        eps_list = [1e-1, 5e-2, 2.5e-2]
        dg.eps_convergence_study(u0, v0, grid, preset_a, cfg, eps_list)
        all_eps = sorted(set(eps_list) | {0.5 * e for e in eps_list}, reverse=True)
        assert seen == [replace(cfg, eps=e) for e in all_eps]


class TestDependenceStudy:
    def test_zero_delta_row(self, preset_b):
        grid = pde.Grid1D(64, 5.0)
        u0 = pde.profile_bump(grid, base=0.1, amplitude=0.6)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.1)
        table = dg.continuous_dependence_study(u0, v0, grid, preset_b, cfg, [0.0, 1e-3])
        assert table.rows[0].values == (0.0, 0.0, 0.0)

    def test_ratios_bounded(self, preset_b):
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid, base=0.1, amplitude=0.7)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.25)
        table = dg.continuous_dependence_study(u0, v0, grid, preset_b, cfg,
                                               [1e-2, 1e-3, 1e-4])
        assert table.passed
        assert table.metadata["hypotheses_satisfied"]
        ratios = [row.values[1] for row in table.rows]
        assert max(ratios) / min(ratios) <= 3.0

    def test_out_of_scope_coefficients_flagged(self, preset_a):
        # strongly v-dependent diffusion sits outside the uniqueness theory;
        # the study still runs but carries the flag
        grid = pde.Grid1D(64, 5.0)
        u0 = pde.profile_bump(grid, base=0.1, amplitude=0.6)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.1)
        table = dg.continuous_dependence_study(u0, v0, grid, preset_a, cfg, [1e-3])
        assert not table.metadata["hypotheses_satisfied"]
        assert "hypotheses" in table.note


class TestRunReport:
    def test_flat_items_and_drift(self, preset_a):
        grid = pde.Grid1D(64, 5.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = pde.SolverConfig(t_end=0.2)
        _, report = pde.run(u0, v0, grid, preset_a, cfg, sample_times=[0.1, 0.2])
        items = dict(report.flat_items())
        assert items["n_violations"] == 0
        assert items["mass_drift_rel"] <= 1e-11
        assert items["dt_min"] > 0
        assert report.dt_stats[2] > 0
