import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from flathump import coefficients as co
from flathump import pde
from flathump.diagnostics import DT_LIMITS, grid_convergence_order, lp_distance, mass
from flathump.errors import BlowUpError, InputError, InvariantViolationError, StiffnessError


def make_cfg(**kw):
    base = dict(eps=1e-3, dt_max=1e-2, cfl=0.45, t_end=0.5)
    base.update(kw)
    return pde.SolverConfig(**base)


class TestGrid:
    def test_cells_tile_domain(self):
        grid = pde.Grid1D(8, 2.0)
        assert grid.dx == pytest.approx(0.25)
        np.testing.assert_allclose(grid.centers, 0.125 + 0.25 * np.arange(8))

    def test_validation(self):
        with pytest.raises(InputError):
            pde.Grid1D(3, 1.0)
        with pytest.raises(InputError):
            pde.Grid1D(8, 0.0)


class TestFluxInterface:
    @staticmethod
    def _fluxes(uL, uR, vL, vR, dx, c_eps):
        # (F^K, R, chemotaxis) at one interface, from the helpers the step uses
        u, v = np.array([uL, uR]), np.array([vL, vR])
        s_pair = np.full(2, 0.5 * (vL + vR))
        rem, chem = pde._explicit_fluxes(u, v, s_pair, dx, c_eps)
        return pde._kirchhoff_flux(pde._pairs(u), s_pair, dx, c_eps)[0], rem[0], chem[0]

    def test_no_gradients_no_flux(self, preset_a):
        c = co.regularize(preset_a, 1e-3)
        assert self._fluxes(0.4, 0.4, 0.7, 0.7, 0.1, c) == (0.0, 0.0, 0.0)

    def test_saturated_cells_have_no_chemotaxis(self, preset_a, preset_b):
        # h(1, s) = 0, so the donor flux vanishes at u = 1 on both sides
        for c in (preset_a, preset_b):
            assert self._fluxes(1.0, 1.0, 0.2, 0.9, 0.1, c)[2] == pytest.approx(0.0, abs=1e-15)
        # s-independent diffusion: the flux vanishes entirely
        assert self._fluxes(1.0, 1.0, 0.2, 0.9, 0.1, preset_b) == pytest.approx((0.0,) * 3, abs=1e-15)

    def test_pure_diffusion_against_quadrature(self, preset_b):
        # vL = vR kills the chemotactic part and R; the Kirchhoff difference
        # must match direct quadrature of D
        kirchhoff, rem, chem = self._fluxes(0.2, 0.4, 0.5, 0.5, 0.1, preset_b)
        assert rem == chem == 0.0
        integral, _ = quad(lambda r: float(preset_b.D(r, 0.5)), 0.2, 0.4, epsabs=1e-13)
        assert kirchhoff == pytest.approx(-integral / 0.1, rel=1e-12)


class TestFaceValues:
    def test_face_values_lie_between_neighbouring_averages(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(0, 1, 200)
        half = pde._half_minmod_slope(u)
        for face, neighbour in ((u[1:-1] + half[1:-1], u[2:]), (u[1:-1] - half[1:-1], u[:-2])):
            assert np.all(np.minimum(u[1:-1], neighbour) <= face)
            assert np.all(face <= np.maximum(u[1:-1], neighbour))

    def test_end_cells_and_extrema_have_zero_slope(self):
        u = np.array([0.2, 0.9, 0.4, 0.5, 0.6, 0.6, 0.1])
        half = pde._half_minmod_slope(u)
        assert half[0] == half[-1] == 0.0
        # a local maximum, a local minimum and a flat neighbour: no slope
        assert half[1] == half[2] == half[5] == 0.0
        assert half[3] == pytest.approx(0.05, abs=1e-15)

    def test_linear_data_is_exact_at_interior_faces(self):
        x = np.arange(16, dtype=float)
        u = 0.1 + 0.05 * x
        half = pde._half_minmod_slope(u)
        np.testing.assert_allclose(u[1:-1] + half[1:-1], 0.1 + 0.05 * (x[1:-1] + 0.5), atol=1e-15)
        np.testing.assert_allclose(u[1:-1] - half[1:-1], 0.1 + 0.05 * (x[1:-1] - 0.5), atol=1e-15)

    @pytest.mark.parametrize("name", ["example-A", "example-C"])
    def test_step_keeps_even_data_even(self, name):
        grid = pde.Grid1D(128, 10.0)
        x = grid.centers - 0.5 * grid.length
        state = pde.State(0.2 + 0.7 * np.exp(-x ** 2), 0.5 + 0.4 * np.exp(-(x / 2) ** 2))
        out = pde.step(state, grid, co.preset(name), make_cfg())
        assert np.abs(out.u - out.u[::-1]).max() <= 1e-14
        assert np.abs(out.v - out.v[::-1]).max() <= 1e-14


class TestLimiter:
    def test_scales_an_overfilled_cell(self):
        # the middle cell holds 0.9 and receives 0.2 from both sides: both
        # inflows are halved, the outflow of the end cells is untouched
        u = np.array([0.5, 0.9, 0.5, 0.2])
        chem = np.array([0.1, -0.1, 0.3])
        limited, cells, theta_min = pde._limit_chemo_inflow(u, np.zeros(3), chem, 1.0, 1.0)
        np.testing.assert_allclose(limited, [0.05, -0.05, 0.3], rtol=1e-14)
        assert cells == 1 and theta_min == pytest.approx(0.5, rel=1e-14)

    def test_idle_limiter_reports_nothing(self):
        chem = np.array([0.01, -0.01, 0.01])
        limited, cells, theta_min = pde._limit_chemo_inflow(
            np.full(4, 0.5), np.zeros(3), chem, 1.0, 1.0)
        assert limited is chem and (cells, theta_min) == (0, 1.0)


class TestCflDt:
    @staticmethod
    def _explicit_rate(c, state, grid):
        # the rate of the explicit stage from the CFL rule's own sweep
        lip_h, gs_max = pde._coefficient_bounds(c, 1.0)
        grad_v = float(np.abs(np.diff(state.v)).max()) / grid.dx
        return 2.0 * lip_h * grad_v / grid.dx + gs_max

    def test_pure_diffusion_takes_dt_max(self):
        # D^eps = eps, no chemotaxis, no reaction: the implicit stage sets no
        # bound, so dt is the cap however fine the mesh
        c_eps = co.regularize(co.from_expressions("bare", D="0", h="0", g="0"), 0.5)
        cfg = make_cfg(eps=0.5, dt_max=10.0)
        for n in (64, 4096):
            grid = pde.Grid1D(n, 4.0)
            state = pde.State(np.full(n, 0.5), np.full(n, 1.0))
            assert pde.cfl_dt(state, grid, c_eps, cfg) == 10.0

    def test_doubling_cells_halves_the_advective_dt(self):
        # v linear in x: max|v_x| is the same on both meshes, so the
        # advective rate 2 Lip(h) max|v_x| / dx doubles with n
        c = co.from_expressions("a-chemo", D="(1-r)^2*(s+1)", h="r*(1-r)^2*(s+1)", g="0")
        cfg = make_cfg(eps=1e-2, dt_max=10.0)
        dts = []
        for n in (64, 128):
            grid = pde.Grid1D(n, 4.0)
            state = pde.State(np.full(n, 0.5), 0.25 * grid.centers)
            dts.append(pde.cfl_dt(state, grid, co.regularize(c, 1e-2), cfg))
        assert dts[1] == pytest.approx(dts[0] / 2.0, rel=1e-12)

    def test_consistent_with_grid_sweep(self, preset_a):
        # independent bound from the closed forms of preset A on [0,1] x [0,1]:
        # h_r = (1-r)(1-3r)(s+1), g_s = -1
        c = co.regularize(preset_a, 1e-2)
        grid = pde.Grid1D(64, 4.0)
        rng = np.random.default_rng(0)
        state = pde.State(rng.uniform(0, 1, 64), rng.uniform(0, 1, 64))
        r = np.linspace(0, 1, 301)
        s = np.linspace(0, 1, 301)
        rr, ss = np.meshgrid(r, s)
        lip_h = float(np.max(np.abs((1 - rr) * (1 - 3 * rr) * (ss + 1))))
        grad_v = float(np.abs(np.diff(state.v)).max()) / grid.dx
        dt = pde.cfl_dt(state, grid, c, make_cfg(eps=1e-2, dt_max=10.0))
        # the rule's one-sided difference at r = 0 reads Lip(h) low by ~2e-6
        assert dt == pytest.approx(0.45 / (2.0 * lip_h * grad_v / grid.dx + 1.0), rel=1e-5)

    def test_dt_is_the_explicit_rate(self, preset_a):
        # dt = cfl / (2 Lip(h) max|v_x| / dx + max|g_s|), capped by dt_max
        c = co.regularize(preset_a, 1e-3)
        grid = pde.Grid1D(64, 4.0)
        rng = np.random.default_rng(1)
        state = pde.State(rng.uniform(0, 1, 64), rng.uniform(0, 1, 64))
        cfg = make_cfg(dt_max=10.0)
        rate = self._explicit_rate(c, state, grid)
        assert pde.cfl_dt(state, grid, c, cfg) == cfg.cfl / rate
        capped = make_cfg(dt_max=0.5 * cfg.cfl / rate)
        assert pde.cfl_dt(state, grid, c, capped) == capped.dt_max

    def test_negative_d_is_an_input_error(self):
        # D = 0.5 - r is backward diffusion above r = 0.5: the bounds sweep
        # names the most negative node instead of letting Newton fail
        c = co.from_expressions("neg", D="0.5 - r", h="r*(1-r)", g="r-s")
        grid = pde.Grid1D(32, 4.0)
        u0 = pde.profile_bump(grid)
        with pytest.raises(InputError, match=r"D\(1, 0\) = -0\.499"):
            pde.run(u0, u0.copy(), grid, c, make_cfg(t_end=0.01))
        # the presets vanish at u = 1 without going negative, at eps = 0 too
        for name in ("example-A", "example-B", "example-C", "example-D"):
            for ceiling in (1.0, 2.0, 64.0):
                pde._coefficient_bounds(co.preset(name), ceiling)

    @pytest.mark.parametrize("band", [(0.0, 1.0), (0.9, 1.0)], ids=["full", "narrow"])
    def test_dt_does_not_depend_on_d(self, band):
        # preset C's h and g with D = 1 - r and with D scaled by 1e6: the
        # same dt to the bit
        c, big_d = (co.from_expressions("c", D=d, h="r*(1-r)*exp(s)", g="r-s")
                    for d in ("1-r", "1000000*(1-r)"))
        grid = pde.Grid1D(64, 4.0)
        rng = np.random.default_rng(2)
        state = pde.State(np.linspace(*band, 64), rng.uniform(0, 1, 64))
        cfg = make_cfg(eps=0.0, dt_max=10.0)
        dt = pde.cfl_dt(state, grid, c, cfg)
        assert dt == cfg.cfl / self._explicit_rate(c, state, grid)
        assert pde.cfl_dt(state, grid, big_d, cfg) == dt

    @given(v=hst.floats(1.0, 1e6, exclude_min=True, exclude_max=True))
    def test_s_ceiling_is_within_an_eighth_octave(self, v):
        # the bounds are swept over at most 2^(1/8) times the state's s range
        ceiling = pde._s_ceiling(v)
        assert v <= ceiling < 2.0 ** 0.125 * v
        assert pde._s_ceiling(ceiling) == ceiling      # one sweep per grid point

    @pytest.mark.parametrize("v", [-1.0, 0.0, 0.5, 1.0, math.inf, math.nan])
    def test_s_ceiling_is_one_at_and_below_one(self, v):
        assert pde._s_ceiling(v) == 1.0

    @pytest.mark.parametrize("field", ["u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, preset_a, field, bad):
        grid = pde.Grid1D(16, 1.0)
        state = pde.State(np.full(16, 0.5), np.full(16, 0.5))
        getattr(state, field)[3] = bad
        with pytest.raises(BlowUpError, match="non-finite"):
            pde.cfl_dt(state, grid, preset_a, make_cfg())

    def test_stiffness_error(self):
        # a huge h v_x underflows dt; a huge D no longer does
        grid = pde.Grid1D(16, 1.0)
        state = pde.State(np.full(16, 0.5), np.linspace(0.0, 1.0, 16))
        stiff = co.from_expressions("stiff", D="1", h="100000000000000000*r", g="0")
        with pytest.raises(StiffnessError):
            pde.cfl_dt(state, grid, stiff, make_cfg())
        huge_d = co.from_expressions("huge-d", D="100000000000000000", h="0", g="0")
        assert pde.cfl_dt(state, grid, huge_d, make_cfg()) == make_cfg().dt_max


class TestStep:
    def test_homogeneous_equilibrium_is_fixed(self, preset_a):
        # u = c0, v = (gamma/beta) c0 is an exact rest state of the scheme
        grid = pde.Grid1D(64, 5.0)
        c0 = 0.37
        state = pde.State(np.full(64, c0), np.full(64, c0))
        out = pde.step(state, grid, preset_a, make_cfg())
        assert np.abs(out.u - c0).max() <= 1e-13
        assert np.abs(out.v - c0).max() <= 1e-13

    def test_mass_telescopes_exactly(self, preset_a):
        grid = pde.Grid1D(128, 10.0)
        rng = np.random.default_rng(3)
        state = pde.State(rng.uniform(0, 1, 128), rng.uniform(0, 1, 128))
        m0 = mass(state, grid)
        out = pde.step(state, grid, preset_a, make_cfg())
        assert abs(mass(out, grid) - m0) <= 1e-13 * max(1.0, abs(m0))

    def test_diffusion_only_against_fine_grid(self):
        # monotone 0/1 step data, h forced to zero, eps = 0.1
        c = co.from_expressions("a-no-chemo", D="(1-r)^2*(s+1)", h="0", g="0")
        cfg = make_cfg(eps=0.1, t_end=0.1)

        def solve(n):
            grid = pde.Grid1D(n, 4.0)
            u0 = np.where(grid.centers < 2.0, 1.0, 0.0)
            v0 = np.full(n, 0.5)
            snaps, _ = pde.run(u0, v0, grid, c, cfg, sample_times=())
            return grid, snaps[-1]

        grid_c, coarse = solve(128)
        _, fine = solve(512)
        restricted = fine.u.reshape(128, 4).mean(axis=1)
        err = float(np.sum(np.abs(coarse.u - restricted))) * grid_c.dx
        assert err <= 1e-3
        # monotone data stays monotone under the degenerate diffusion
        assert np.all(np.diff(coarse.u) <= 1e-12)
        assert coarse.u.min() >= -1e-10 and coarse.u.max() <= 1 + 1e-10

    def test_blow_up_detection(self):
        poisoned = co.CoefficientSet(
            "nan", D=lambda r, s: np.full(np.broadcast_shapes(np.shape(r), np.shape(s)), np.nan),
            h=lambda r, s: np.zeros(np.broadcast_shapes(np.shape(r), np.shape(s))),
            g=lambda r, s: np.zeros(np.broadcast_shapes(np.shape(r), np.shape(s))))
        grid = pde.Grid1D(16, 1.0)
        state = pde.State(np.full(16, 0.5), np.full(16, 0.5))
        with pytest.raises(BlowUpError):
            pde.step(state, grid, poisoned, make_cfg(), dt=1e-5)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("name", ["example-A", "example-B", "example-C", "example-D"])
    @given(data=hnp.arrays(float, 32, elements=hst.floats(0.0, 1.0)),
           chem=hnp.arrays(float, 32, elements=hst.floats(0.0, 3.0)),
           band=hst.none() | hst.tuples(hst.floats(0.0, 0.9), hst.floats(0.0, 0.1)))
    @settings(max_examples=25, deadline=None)
    def test_one_step_respects_invariant_region(self, name, eps, data, chem, band):
        # band = (a, w) squeezes u into [a, a + w], the range the Kirchhoff
        # stage's iterates are projected onto
        c = co.preset(name)
        grid = pde.Grid1D(32, 2.0)
        u = data if band is None else band[0] + band[1] * data
        state = pde.State(u.copy(), chem.copy())
        out = pde.step(state, grid, c, make_cfg(eps=eps))
        assert out.u.min() >= -1e-10
        assert out.u.max() <= 1.0 + 1e-10
        assert out.v.min() >= -1e-10

    @pytest.mark.parametrize("name", ["example-B", "example-C", "example-D"])
    @given(data=hnp.arrays(float, 32, elements=hst.floats(0.0, 1.0)),
           chem=hnp.arrays(float, 32, elements=hst.floats(0.0, 6.0)))
    @settings(max_examples=25, deadline=None)
    def test_cfl_one_keeps_invariant_region_when_d_ignores_s(self, name, data, chem):
        # R = 0, so the face-value bound alone keeps u >= 0 at cfl = 1
        grid = pde.Grid1D(32, 2.0)
        out = pde.step(pde.State(data.copy(), chem.copy()), grid, co.preset(name),
                       make_cfg(eps=0.0, cfl=1.0))
        assert out.u.min() >= -1e-10
        assert out.u.max() <= 1.0 + 1e-10

    def test_s_dependent_d_is_guarded_by_the_invariant_check(self, preset_a):
        # preset A's D depends on s: its remainder flux R drains empty cells
        # at a rate the CFL rule does not bound, so at cfl = 1 some steps on
        # 0/1 data would go negative; each of those raises instead
        grid = pde.Grid1D(32, 2.0)
        cfg = make_cfg(cfl=1.0)
        rng = np.random.default_rng(0)
        raised = 0
        for _ in range(400):
            v = rng.uniform(0.0, 4.0, 32)
            v[rng.integers(32)] = 4.0
            state = pde.State(rng.integers(0, 2, 32).astype(float), v)
            try:
                out = pde.step(state, grid, preset_a, cfg)
            except InvariantViolationError as exc:
                assert "u out of [0, 1]" in str(exc)
                raised += 1
            else:
                assert out.u.min() >= -pde.TOL_BOUND
        assert raised > 0

    def test_polynomial_d_step_stays_small(self):
        # the exact 2-point Kirchhoff rule of preset A's D keeps every
        # temporary of a step at n = 1024 under glibc's 128 KiB mmap
        # threshold, so whether a step page-faults does not depend on what
        # the process freed before it
        c = co.from_expressions("A", D="(1 - r)^2 * (s + 1)", h="r * (1 - r)^2 * (s + 1)",
                                g="r - s")
        grid = pde.Grid1D(1024, 20.0)
        x = grid.centers / grid.length
        state = pde.State(0.5 + 0.3 * np.sin(6 * x), 0.5 + 0.2 * np.cos(6 * x))
        cfg = make_cfg()
        pde.step(state, grid, c, cfg)           # warm any lazy caches
        tracemalloc.start()
        try:
            pde.step(state, grid, c, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestKirchhoffStage:
    def test_linear_diffusion_matches_dense_solve(self):
        # constant D, h = 0, g = 0: one step at 100x the old explicit limit
        # cfl dx^2 / (2 D) is one backward-Euler solve of the Neumann heat
        # equation, and keeps u within its own range
        c = co.from_expressions("heat", D="1", h="0", g="0")
        n = 64
        grid = pde.Grid1D(n, 4.0)
        rng = np.random.default_rng(12)
        state = pde.State(rng.uniform(0, 1, n), np.full(n, 0.5))
        cfg = make_cfg(eps=0.0)
        dt = 100.0 * cfg.cfl * grid.dx ** 2 / 2.0
        out = pde.step(state, grid, c, cfg, dt=dt)
        want = np.linalg.solve(TestImplicitVSolve._dense_matrix(n, dt / grid.dx ** 2), state.u)
        np.testing.assert_allclose(out.u, want, rtol=0, atol=1e-13)
        assert state.u.min() <= out.u.min() and out.u.max() <= state.u.max()

    def test_first_order_in_time(self, preset_c):
        # halving dt_max halves the L2 error against a dt_max = 1e-5 run
        grid = pde.Grid1D(256, 10.0)
        u0 = pde.profile_step(grid)
        v0 = pde.profile_constant(grid, 0.5)

        def final(dt_max):
            snaps, _ = pde.run(u0, v0, grid, preset_c,
                               make_cfg(eps=1e-3, t_end=0.1, dt_max=dt_max))
            return snaps[-1]

        ref = final(1e-5)
        errs = [lp_distance(final(d), ref, grid, "L2")[0] for d in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
        assert all(1.8 < r < 2.2 for r in ratios), ratios

    def test_newton_non_convergence_is_stiffness(self, preset_a, monkeypatch):
        # preset A's K is cubic in u: one iteration cannot meet NEWTON_TOL
        monkeypatch.setattr(pde, "NEWTON_MAX_ITER", 1)
        grid = pde.Grid1D(64, 5.0)
        rng = np.random.default_rng(4)
        state = pde.State(rng.uniform(0, 1, 64), rng.uniform(0, 1, 64))
        with pytest.raises(StiffnessError, match="did not converge"):
            pde.step(state, grid, preset_a, make_cfg())


class TestImplicitVSolve:
    @staticmethod
    def _dense_matrix(n, a):
        # backward-Euler Laplacian with mirror ghosts: rows sum to 1
        m = (1.0 + 2.0 * a) * np.eye(n) - a * np.eye(n, k=1) - a * np.eye(n, k=-1)
        m[0, 0] = m[-1, -1] = 1.0 + a
        return m

    def test_matches_dense_solve(self, preset_a):
        n, dx, dt = 50, 0.2, 0.03
        rng = np.random.default_rng(8)
        u = rng.uniform(0, 1, n)
        v = rng.uniform(0, 2, n)
        got = pde._advance_v(u, v, dt, dx, preset_a)
        rhs = v + dt * np.asarray(preset_a.g(u, v), dtype=float)
        want = np.linalg.solve(self._dense_matrix(n, dt / dx ** 2), rhs)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_constant_v_without_reaction_is_fixed(self):
        c = co.from_expressions("no-reaction", D="1", h="0", g="0")
        u = np.linspace(0.0, 1.0, 40)
        v = np.full(40, 0.7)
        out = pde._advance_v(u, v, 0.5, 0.1, c)
        assert np.abs(out - 0.7).max() <= 1e-14


class TestInvariantChecks:
    def test_step_aborts_on_violation(self, preset_a):
        # a dt far above the CFL bound overshoots the explicit chemotactic update
        grid = pde.Grid1D(64, 5.0)
        rng = np.random.default_rng(3)
        state = pde.State(rng.uniform(0, 1, 64), rng.uniform(0, 1, 64))
        cfg = make_cfg()
        dt = 50.0 * pde.cfl_dt(state, grid, pde.apply_eps(preset_a, cfg), cfg)
        with pytest.raises(InvariantViolationError, match=r"u out of \[0, 1\]"):
            pde.step(state, grid, preset_a, cfg, dt=dt)
        out = pde.step(state, grid, preset_a, make_cfg(abort_on_violation=False), dt=dt)
        assert out.u.min() < 0.0 or out.u.max() > 1.0

    def test_run_records_violations_without_abort(self, preset_a):
        # the injected boundary leak drains mass from cell 0 below u = 0
        grid = pde.Grid1D(64, 5.0)
        u0 = np.zeros(64)
        v0 = np.full(64, 0.5)
        cfg = make_cfg(t_end=0.05, debug_boundary_leak=-0.5)
        with pytest.raises(InvariantViolationError):
            pde.run(u0, v0, grid, preset_a, cfg)
        _, report = pde.run(u0, v0, grid, preset_a,
                            make_cfg(t_end=0.05, debug_boundary_leak=-0.5,
                                     abort_on_violation=False))
        assert report.violations
        assert all(kind == "u<0" and size > pde.TOL_BOUND
                   for _, kind, size in report.violations)
        assert min(report.u_min) < -pde.TOL_BOUND


class TestRun:
    def test_homogeneous_snapshots_unchanged(self, preset_a):
        grid = pde.Grid1D(64, 5.0)
        u0 = np.full(64, 0.25)
        snaps, report = pde.run(u0, u0.copy(), grid, preset_a,
                                make_cfg(t_end=0.2), sample_times=[0.1, 0.2])
        assert [s.t for s in snaps] == [0.1, 0.2]
        for s in snaps:
            np.testing.assert_allclose(s.u, 0.25, atol=1e-12)
        assert report.mass_drift <= 1e-13

    def test_bump_mass_drift(self, preset_a):
        grid = pde.Grid1D(256, 10.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        _, report = pde.run(u0, v0, grid, preset_a, make_cfg(eps=1e-2, t_end=1.0),
                            sample_times=[0.5, 1.0])
        assert report.mass_drift <= 1e-11

    def test_chemical_comparison_bound(self, preset_a):
        # g = r - s with v0 <= 1 keeps v <= max(1, gamma/beta) + 1e-8
        grid = pde.Grid1D(128, 10.0)
        rng = np.random.default_rng(11)
        u0 = rng.uniform(0, 1, 128)
        v0 = rng.uniform(0, 1, 128)
        _, report = pde.run(u0, v0, grid, preset_a, make_cfg(t_end=1.0),
                            sample_times=[0.25, 0.5, 1.0])
        assert max(report.v_max) <= 1.0 + 1e-8

    def test_input_validation(self, preset_a):
        grid = pde.Grid1D(16, 1.0)
        good = np.full(16, 0.5)
        with pytest.raises(InputError):
            pde.run(good * 3.0, good, grid, preset_a, make_cfg())
        with pytest.raises(InputError):
            pde.run(good, -good, grid, preset_a, make_cfg())
        with pytest.raises(InputError):
            pde.run(good[:-1], good, grid, preset_a, make_cfg())
        # NaN compares false with everything, so it must fail the range checks
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError):
                pde.run(np.where(np.arange(16) == 3, bad, good), good, grid, preset_a, make_cfg())
            with pytest.raises(InputError):
                pde.run(good, np.where(np.arange(16) == 3, bad, good), grid, preset_a, make_cfg())

    def test_dt_limits_count_every_step(self, canonical_profiles):
        # the flat hump at eps = 0: with u's diffusion implicit, the
        # chemotactic flux sets dt at every step that is not cut
        prof = canonical_profiles[1024]
        _, report = pde.run(prof.u, prof.v, prof.grid, prof.params.coeffs,
                            make_cfg(eps=0.0, t_end=0.01), sample_times=[0.005])
        limits = report.dt_limits
        assert list(limits) == list(DT_LIMITS)
        assert sum(limits.values()) == report.dt_stats[2]
        assert limits["truncation"] == 2
        assert limits["advection"] == report.dt_stats[2] - 2 > 0
        items = dict(report.flat_items())
        assert [items[f"dt_set_by_{name}"] for name in DT_LIMITS] == list(limits.values())

    def test_flat_hump_relaxes_in_few_steps(self, canonical_profiles):
        # Lip(h) swept up to 2^(13/8) ~ 3.08 rather than 4 (e^s: 21.9 against
        # 54.6), with h at the minmod face value: 203 steps and a sup drift of
        # 1.16e-3 (508 steps and 6.18e-3 with a power-of-two ceiling and h at
        # the cell average)
        prof = canonical_profiles[2048]
        snaps, report = pde.run(prof.u, prof.v, prof.grid, prof.params.coeffs,
                                make_cfg(eps=0.0, t_end=0.5))
        drift = max(np.abs(snaps[-1].u - prof.u).max(), np.abs(snaps[-1].v - prof.v).max())
        assert report.dt_stats[2] <= 250
        assert drift < 2e-3

    def test_limiter_activity_reported(self, canonical_profiles, preset_a):
        # the plateau edges of the flat hump hold by the limiter; a rest
        # state never triggers it
        prof = canonical_profiles[1024]
        _, report = pde.run(prof.u, prof.v, prof.grid, prof.params.coeffs,
                            make_cfg(eps=0.0, t_end=0.01))
        assert report.limiter_cell_steps >= report.dt_stats[2]
        assert 0.0 <= report.limiter_theta_min < 1.0
        items = dict(report.flat_items())
        assert items["limiter_cell_steps"] == report.limiter_cell_steps
        assert items["limiter_theta_min"] == report.limiter_theta_min
        grid = pde.Grid1D(32, 5.0)
        u0 = np.full(32, 0.37)
        _, rest = pde.run(u0, u0.copy(), grid, preset_a, make_cfg(t_end=0.03))
        assert (rest.limiter_cell_steps, rest.limiter_theta_min) == (0, 1.0)

    def test_dt_min_skips_truncated_steps(self, preset_a):
        # a rest state steps at dt_max = 1e-2; the last step is cut to 5e-3
        grid = pde.Grid1D(32, 5.0)
        u0 = np.full(32, 0.37)
        _, report = pde.run(u0, u0.copy(), grid, preset_a, make_cfg(t_end=0.035))
        assert report.dt_limits["dt_max"] == 3 and report.dt_limits["truncation"] == 1
        assert report.dt_stats == (1e-2, 1e-2, 4)
        # every step cut: dt_min falls back to the smallest step
        _, report = pde.run(u0, u0.copy(), grid, preset_a, make_cfg(t_end=0.008),
                            sample_times=[0.005])
        assert report.dt_limits["truncation"] == 2
        assert report.dt_stats[0] == pytest.approx(0.003, rel=1e-12)

    def test_newton_iterations_reported(self, preset_a):
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        _, report = pde.run(u0, v0, grid, preset_a, make_cfg(t_end=0.1))
        n_steps = report.dt_stats[2]
        assert report.newton_iterations >= n_steps
        assert report.newton_iterations_max >= 2      # K is nonlinear in u
        items = dict(report.flat_items())
        assert items["newton_iterations"] == report.newton_iterations
        assert items["newton_iterations_max"] == report.newton_iterations_max
        _, again = pde.run(u0, v0, grid, preset_a, make_cfg(t_end=0.1))
        assert (again.newton_iterations, again.newton_iterations_max) == \
            (report.newton_iterations, report.newton_iterations_max)

    def test_linear_kirchhoff_takes_one_newton_iteration(self):
        # constant D makes K linear in u, so Newton is exact at once
        c = co.from_expressions("const-d", D="1", h="r*(1-r)", g="r-s")
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        _, report = pde.run(u0, v0, grid, c, make_cfg(eps=0.0, t_end=0.1))
        assert report.newton_iterations == report.dt_stats[2]
        assert report.newton_iterations_max == 1

    def test_deterministic(self, preset_a):
        grid = pde.Grid1D(64, 5.0)
        rng = np.random.default_rng(5)
        u0 = rng.uniform(0, 1, 64)
        v0 = rng.uniform(0, 1, 64)
        s1, _ = pde.run(u0, v0, grid, preset_a, make_cfg(t_end=0.2), sample_times=[0.2])
        s2, _ = pde.run(u0, v0, grid, preset_a, make_cfg(t_end=0.2), sample_times=[0.2])
        assert np.array_equal(s1[-1].u, s2[-1].u)
        assert np.array_equal(s1[-1].v, s2[-1].v)

    def test_boundary_leak_flag_breaks_conservation(self, preset_a):
        grid = pde.Grid1D(64, 5.0)
        u0 = pde.profile_bump(grid)
        v0 = pde.profile_constant(grid, 0.5)
        cfg = make_cfg(t_end=0.1, debug_boundary_leak=0.01)
        _, report = pde.run(u0, v0, grid, preset_a, cfg, sample_times=[0.1])
        assert report.mass_drift > 1e-6


class TestConvergence:
    def test_grid_convergence_order(self, preset_a):
        cfg = make_cfg(eps=1e-2, t_end=0.25)
        grids = []
        solutions = []
        for n in (128, 256, 512):
            grid = pde.Grid1D(n, 10.0)
            u0 = pde.profile_bump(grid, base=0.1, amplitude=0.6)
            v0 = 0.5 + 0.4 * np.sin(2 * np.pi * grid.centers / grid.length)
            snaps, _ = pde.run(u0, v0, grid, preset_a, cfg, sample_times=())
            grids.append(grid)
            solutions.append(snaps[-1].u)
        orders = grid_convergence_order(solutions, grids)
        assert all(o >= 0.9 for o in orders), orders

    def test_continuous_dependence_regression(self, preset_b):
        # pinned linear-response constants: |u_delta - u| <= C delta e^(L t)
        # with (C, L) = (1.3, 2.2) fitted once for this setup (measured
        # normalized response peaks at ~2.13 around t = 0.25)
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid, base=0.1, amplitude=0.7)
        v0 = pde.profile_constant(grid, 0.5)
        w = np.sin(2 * np.pi * grid.centers / grid.length)
        delta = 1e-3
        base, _ = pde.run(u0, v0, grid, preset_b, make_cfg(t_end=0.5), sample_times=[0.25, 0.5])
        pert, _ = pde.run(np.clip(u0 + delta * w, 0, 1), v0, grid, preset_b,
                          make_cfg(t_end=0.5), sample_times=[0.25, 0.5])
        for sb, sp in zip(base, pert):
            du, _ = lp_distance(sb, sp, grid, "L2")
            assert du <= 1.3 * delta * math.exp(2.2 * sb.t)
