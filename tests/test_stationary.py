import gc
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from flathump import coefficients as co
from flathump import pde
from flathump import stationary as st
from flathump.errors import (
    ConstructionError,
    CrossingConditionError,
    InputError,
    RangeError,
)


class TestProfileMap:
    def test_saturates_exactly_at_v_sat(self, canonical_params):
        p = canonical_params
        assert st.profile_density(p, p.v_sat) == pytest.approx(1.0, abs=1e-12)
        assert st._profile_map(p.coeffs, p.lam, p.v_sat)(p.v_sat + 1.0) == 1.0

    def test_closed_form_composition(self, canonical_params):
        # for the closing example the map is (1/2) exp(e^s - 1 + lam);
        # cross-checked against the bisection-inversion path
        p = canonical_params
        numeric = st.PhaseParams(co.numeric_only(p.coeffs), p.gb, p.lam,
                                 p.v_sat, p.rho_saddle, p.rho_center)
        for s in (0.0, 1.0, 2.0, p.v_sat - 1e-6):
            expected = 0.5 * math.exp(math.expm1(s) + p.lam)
            assert st.profile_density(p, s) == pytest.approx(expected, rel=1e-12)
            assert st.profile_density(numeric, s) == pytest.approx(expected, rel=1e-9)

    def test_above_saturation_rejected(self, canonical_params):
        with pytest.raises(RangeError):
            st.profile_density(canonical_params, canonical_params.v_sat + 0.1)


class TestFindCrossings:
    def test_crossings_are_fixed_points(self, canonical_params):
        p = canonical_params
        density = st._profile_map(p.coeffs, p.lam, p.v_sat)
        for rho in (p.rho_saddle, p.rho_center):
            assert density(rho) - rho / p.q == pytest.approx(0.0, abs=1e-10)

    def test_ordering(self, canonical_params):
        p = canonical_params
        assert 0 < p.rho_saddle < p.rho_center < p.v_sat < p.q

    def test_offset_at_or_above_potential_top_fails(self, preset_c3):
        with pytest.raises(CrossingConditionError, match="saturation"):
            st.find_crossings(preset_c3, math.log(2.0) + 1.0)

    def test_offset_below_interval_fails_ordering(self, preset_c3, slope_interval):
        _, (lo, hi) = slope_interval
        with pytest.raises(CrossingConditionError) as err:
            st.find_crossings(preset_c3, lo - 0.5)
        assert err.value.clause == "ordering"

    def test_offset_above_interval_loses_crossings(self, preset_c3, slope_interval):
        _, (lo, hi) = slope_interval
        with pytest.raises(CrossingConditionError) as err:
            st.find_crossings(preset_c3, hi + 0.3)
        assert err.value.clause == "two-crossings"

    def test_requires_reaction_rates(self, preset_c):
        plain = co.CoefficientSet("no-gb", preset_c.D, preset_c.h, preset_c.g,
                                  separable=preset_c.separable)
        with pytest.raises(InputError):
            st.find_crossings(plain, -10.0)


class TestPotential:
    def test_rhs_vanishes_at_crossings(self, canonical_params):
        p = canonical_params
        rhs = st._rhs_fn(p)
        assert rhs(p.rho_saddle) == pytest.approx(0.0, abs=1e-9)
        assert rhs(p.rho_center) == pytest.approx(0.0, abs=1e-9)

    def test_anchored_at_center(self, canonical_params):
        assert st.potential(canonical_params, canonical_params.rho_center) == 0.0

    def test_shape_between_crossings(self, canonical_params):
        # decreasing on (rho_saddle, rho_center), increasing beyond, per the
        # crossing signs; checked on a scan
        p = canonical_params
        left = np.linspace(p.rho_saddle, p.rho_center, 256)
        vals = [st.potential(p, v) for v in left]
        assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
        right = np.linspace(p.rho_center, p.q, 256)
        vals = [st.potential(p, v) for v in right]
        assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_energy_margin_identity(self, canonical_params):
        # the margin is the potential gap between the saddle level and the
        # saturation level, computed by two independent quadratures
        p = canonical_params
        holds, margin = st.hump_energy_margin(p)
        assert holds
        assert margin > 0
        gap = st.potential(p, p.rho_saddle) - st.potential(p, p.v_sat)
        assert margin == pytest.approx(gap, abs=1e-8)

    def test_mean_inequality_can_fail_while_gap_stays_positive(self):
        # shallow hump at gamma/beta = 1.2: the crossing pattern holds but
        # the sufficient mean inequality does not; the potential gap is a
        # strictly weaker statement
        c = co.with_reaction(co.preset("example-C"), co.GammaBeta(1.2, 1.0))
        _, (lo, hi) = st.lambda_interval_from_slopes(c, c.linear_reaction)
        p = st.find_crossings(c, lo + 0.5 * (hi - lo))
        holds, margin = st.hump_energy_margin(p)
        assert not holds
        assert margin > 0

    def test_deep_hump_inequality_holds(self, canonical_params):
        holds, _ = st.hump_energy_margin(canonical_params)
        assert holds


class TestOrbit:
    def test_energy_conserved_along_samples(self, canonical_params):
        p = canonical_params
        v0 = st.default_v0(p)
        orbit = st.integrate_orbit(p, v0)
        idx = np.linspace(0, orbit.x.size - 1, 120).astype(int)
        energies = np.array([st.energy(p, orbit.v[i], orbit.w[i]) for i in idx])
        assert np.abs(energies - orbit.energy).max() <= 1e-8

    def test_turning_points_share_the_level(self, canonical_params):
        p = canonical_params
        v0 = st.default_v0(p)
        orbit = st.integrate_orbit(p, v0)
        v_max = orbit.v.max()
        assert st.potential(p, v_max) == pytest.approx(orbit.energy, abs=1e-8)

    def test_period_matches_quadrature_oracle(self, canonical_params):
        p = canonical_params
        v0 = st.default_v0(p)
        orbit = st.integrate_orbit(p, v0)
        oracle = st.orbit_period_oracle(p, v0)
        assert orbit.period == pytest.approx(oracle, rel=1e-6)

    def test_aligned_orbit_period_matches_the_oracle(self, canonical_profiles, canonical_params,
                                                     aligned_v0):
        # near the top of the window: the plateau is taken in closed form, so
        # no integration step crosses the rhs kink at v_sat
        orbit = canonical_profiles[1024].orbit
        oracle = st.orbit_period_oracle(canonical_params, aligned_v0)
        assert orbit.period == pytest.approx(oracle, rel=1e-8)

    def test_aligned_orbit_energy_is_flat(self, canonical_profiles, canonical_params):
        p = canonical_params
        orbit = canonical_profiles[1024].orbit
        idx = np.linspace(0, orbit.x.size - 1, 120).astype(int)
        energies = np.array([st.energy(p, orbit.v[i], orbit.w[i]) for i in idx])
        assert np.abs(energies - orbit.energy).max() <= 1e-12

    def test_orbit_below_saturation_has_no_edge(self, canonical_params):
        p = canonical_params
        v0 = st._v0_at_energy(p, 0.5 * st.energy_window(p).at_sat)
        orbit = st.integrate_orbit(p, v0)
        assert orbit.x1 is None
        assert orbit.v.max() < p.v_sat
        assert orbit.period == pytest.approx(st.orbit_period_oracle(p, v0), rel=1e-6)
        rhs = st._rhs_fn(p)
        assert np.abs(orbit.a - [rhs(v) for v in orbit.v]).max() <= 1e-12

    def test_plateau_above_the_ceiling_barrier_rejected(self, canonical_params):
        # an energy over the ceiling barrier leaves no closed plateau
        p = canonical_params
        window = st.energy_window(p)
        assert window.at_ceiling < window.at_saddle
        v0 = st._v0_at_energy(p, 1.5 * window.at_ceiling)
        with pytest.raises(ConstructionError):
            st._plateau_half(p, v0)

    def test_composed_step_is_three_verlet_stages(self, canonical_params):
        # Yoshida's 4th-order composition written out stage by stage; the
        # stepper must reproduce it bit for bit, on both sides of v_sat
        p = canonical_params
        rhs = st._rhs_fn(p)
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        w0 = 1.0 - 2.0 * w1
        h = 1.5e-3
        for v_start, w_start in ((st.default_v0(p), 0.0), (p.v_sat - 1e-4, 0.02),
                                 (p.v_sat + 1e-4, -0.01)):
            v, w, a = v_start, w_start, rhs(v_start)
            for _ in range(50):
                expected_v, expected_w, expected_a = v, w, a
                for c in (w1, w0, w1):
                    w_half = expected_w + 0.5 * (c * h) * expected_a
                    expected_v = expected_v + (c * h) * w_half
                    expected_a = rhs(expected_v)
                    expected_w = w_half + 0.5 * (c * h) * expected_a
                v, w, a = st._composed_step(rhs, v, w, a, h)
                assert (v, w, a) == (expected_v, expected_w, expected_a)

    def test_keeps_the_force_of_every_sample(self, canonical_profiles, canonical_params):
        # a = v'' is rhs(v) from the integrator on the rise and the closed
        # form beta (v - q) on the plateau
        p = canonical_params
        rhs = st._rhs_fn(p)
        orbit = canonical_profiles[1024].orbit
        plateau = (orbit.x >= orbit.x1) & (orbit.x <= orbit.period - orbit.x1)
        assert 0 < plateau.sum() < orbit.x.size
        rise = np.array([rhs(v) for v in orbit.v[~plateau]])
        assert np.abs(orbit.a[~plateau] - rise).max() <= 1e-12
        top = p.gb.beta * (orbit.v[plateau] - p.q)
        assert np.abs(orbit.a[plateau] - top).max() <= 1e-12
        assert np.array_equal(orbit.a, orbit.a[::-1])

    def test_precondition_violations(self, canonical_params):
        p = canonical_params
        with pytest.raises(InputError):
            st.integrate_orbit(p, p.rho_center * 1.0001)
        with pytest.raises(InputError):
            st.integrate_orbit(p, p.rho_saddle * 0.5)


class TestQuinticHermite:
    def test_reproduces_a_quintic(self):
        poly = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.1, -0.9, 0.4])
        knots = np.sort(np.random.default_rng(5).uniform(-1.0, 2.0, 9))
        x = np.linspace(knots[0], knots[-1], 1001)
        got = st._quintic_hermite(knots, poly(knots), poly.deriv(1)(knots),
                                  poly.deriv(2)(knots), x)
        assert np.abs(got - poly(x)).max() <= 1e-12

    def test_error_falls_at_sixth_order(self):
        x = np.linspace(0.0, 2.0 * math.pi, 4001)
        errors = []
        for n in (8, 16, 32, 64):
            knots = np.linspace(0.0, 2.0 * math.pi, n + 1)
            got = st._quintic_hermite(knots, np.cos(knots), -np.sin(knots), -np.cos(knots), x)
            errors.append(np.abs(got - np.cos(x)).max())
        assert all(a / b >= 32.0 for a, b in zip(errors, errors[1:])), errors


class TestConstruction:
    def test_symmetry_and_boundaries(self, canonical_profiles):
        prof = canonical_profiles[1024]
        assert np.abs(prof.v - prof.v[::-1]).max() <= 1e-8
        assert np.abs(prof.u - prof.u[::-1]).max() <= 1e-8

    def test_plateau_values(self, canonical_profiles, canonical_params):
        p = canonical_params
        for prof in canonical_profiles.values():
            x = prof.grid.centers
            inside = (x >= prof.x1) & (x <= prof.length - prof.x1)
            assert np.all(prof.u[inside] == 1.0)
            assert np.all(prof.v[inside] >= p.v_sat - 1e-9)
            outside = ~inside
            assert np.all(prof.u[outside] > 0.0)
            assert np.all(prof.u[outside] < 1.0)

    def test_edge_in_left_half(self, canonical_profiles):
        prof = canonical_profiles[4096]
        assert 0.0 < prof.x1 < 0.5 * prof.length

    def test_chemical_within_reaction_range(self, canonical_profiles, canonical_params):
        prof = canonical_profiles[4096]
        assert prof.v.min() >= 0.0
        assert prof.v.max() <= canonical_params.q

    def test_potential_relation_constant_off_plateau(self, canonical_profiles, canonical_params):
        p = canonical_params
        prof = canonical_profiles[4096]
        mask = prof.u < 1.0 - 1e-6
        j_vals = np.log(2.0 * prof.u[mask]) - np.expm1(prof.v[mask])
        assert np.abs(j_vals - p.lam).max() <= 1e-7

    def test_residuals_decay_at_first_order_or_better(self, canonical_profiles):
        f = [canonical_profiles[n].residual_flux for n in (1024, 2048, 4096)]
        v = [canonical_profiles[n].residual_v for n in (1024, 2048, 4096)]
        assert f[2] <= 1e-6 and v[2] <= 1e-4
        for seq in (f, v):
            orders = [math.log2(a / b) for a, b in zip(seq, seq[1:])]
            assert all(o >= 1.0 for o in orders), seq

    def test_orbit_must_reach_saturation(self, canonical_params):
        p = canonical_params
        window = st.energy_window(p)
        # an energy below the saturation level gives a closed orbit whose
        # maximum stays under v_sat: no plateau, construction must refuse
        target = 0.5 * window.at_sat
        v0 = brentq(lambda v: st.potential(p, v) - target,
                    p.rho_saddle + 1e-13, p.rho_center - 1e-13, xtol=1e-15)
        with pytest.raises(InputError):
            st.construct_flat_hump(p, v0, 256)

    def test_keeps_its_orbit(self, canonical_profiles, canonical_params, aligned_v0):
        prof = canonical_profiles[1024]
        assert prof.orbit.v0 == aligned_v0
        assert prof.orbit.period == prof.length
        again = st.integrate_orbit(canonical_params, aligned_v0)
        for name in ("x", "v", "w", "a"):
            assert np.array_equal(getattr(prof.orbit, name), getattr(again, name))

    def test_leaves_no_orbit_array_in_cyclic_garbage(self, canonical_params, aligned_v0):
        # the orbit arrays (0.8 MB at the default resolution) must be freed
        # by reference counting, not wait in a reference cycle
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            size = st.construct_flat_hump(canonical_params, aligned_v0, 256).orbit.x.size
            gc.collect()
            held = [obj for cyclic in gc.garbage for obj in (cyclic, *gc.get_referents(cyclic))
                    if isinstance(obj, np.ndarray) and obj.size >= size]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert held == []

    def test_discrete_h1_norm_stabilizes(self, canonical_profiles):
        # the integrability condition holds for the closing example, so the
        # discrete H1 seminorm must settle under refinement
        norms = {}
        for n, prof in canonical_profiles.items():
            du = np.diff(prof.u) / prof.grid.dx
            norms[n] = math.sqrt(float(np.sum(du * du)) * prof.grid.dx)
        r1 = norms[2048] / norms[1024]
        r2 = norms[4096] / norms[2048]
        assert abs(r1 - 1.0) <= 0.05
        assert abs(r2 - 1.0) <= 0.05


class TestV0Selection:
    def test_default_hits_mid_window(self, canonical_params):
        p = canonical_params
        v0 = st.default_v0(p)
        window = st.energy_window(p)
        e_lo, e_hi = window.admissible
        assert st.potential(p, v0) == pytest.approx(e_lo + 0.5 * (e_hi - e_lo), rel=1e-10)

    def test_length_matching(self, canonical_params):
        v0 = st.v0_for_length(canonical_params, 12.0)
        assert st.orbit_period_oracle(canonical_params, v0) == pytest.approx(12.0, abs=1e-8)

    def test_too_short_length_rejected(self, canonical_params):
        with pytest.raises(ConstructionError):
            st.v0_for_length(canonical_params, 1e-3)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, canonical_params, length):
        with pytest.raises(InputError):
            st.v0_for_length(canonical_params, length)

    def test_length_matching_quadrature_count(self, canonical_params, monkeypatch):
        # Brent's method on log(1 - energy fraction): two bracket ends, the
        # iterations and the closing check, where bisection took 50; each
        # period takes one edge quadrature
        edge = st.edge_position
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return edge(*args, **kwargs)

        monkeypatch.setattr(st, "edge_position", counting)
        v0 = st.v0_for_length(canonical_params, 12.0)
        assert len(calls) <= 40
        assert st.orbit_period_oracle(canonical_params, v0) == pytest.approx(12.0, abs=1e-8)

    def test_length_matching_builds_the_length(self, canonical_params):
        v0 = st.v0_for_length(canonical_params, 12.0)
        assert abs(st.construct_flat_hump(canonical_params, v0, 256).length - 12.0) <= 1e-8

    def test_edge_position_matches_the_orbit(self, canonical_params):
        # the turning-point quadrature stopped at v_sat against the first
        # crossing of v_sat on the integrated orbit
        p = canonical_params
        v0 = st.default_v0(p)
        prof = st.construct_flat_hump(p, v0, 256)
        assert st.edge_position(p, v0) == pytest.approx(prof.x1, rel=1e-9)

    def test_edge_alignment(self, canonical_params):
        v0 = st.v0_for_edge_alignment(canonical_params, 1024, 16)
        x1 = st.edge_position(canonical_params, v0)
        period = st.orbit_period_oracle(canonical_params, v0)
        assert x1 * 1024 / period == pytest.approx(16.0, abs=1e-6)

    def test_orbit_alignment_lands_on_the_interface(self, canonical_profiles):
        # the aligned edge measured on the orbit the profile was built from
        prof = canonical_profiles[1024]
        assert abs(prof.x1 * 1024 / prof.length - 16.0) <= 1e-7

    def test_alignment_integrates_no_orbit(self, canonical_params, aligned_v0, monkeypatch):
        # the misfit is the quadrature edge over the closed-form period
        integrate = st.integrate_orbit
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(st, "integrate_orbit", counted)
        v0 = st.v0_for_edge_alignment(canonical_params, 1024, 16)
        assert v0 == aligned_v0
        assert len(calls) == 0

    def test_unreachable_edge_index_rejected(self, canonical_params):
        with pytest.raises(ConstructionError, match="not bracketed"):
            st.v0_for_edge_alignment(canonical_params, 1024, 1000)


class TestDensityBounds:
    def test_degenerate_chemical_transform_collapses(self):
        # with the chemical potential forced to zero the two bounds meet at
        # the mean density (pure inversion round trip)
        d = co.preset("example-D")
        sep = co.SeparableFactors(
            d1=d.separable.d1, d2=d.separable.d2, h1=d.separable.h1,
            h2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            cell_potential=d.separable.cell_potential,
            cell_potential_inv=d.separable.cell_potential_inv,
            chem_potential=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        double = co.CoefficientSet("d-flat-chem", d.D, d.h, d.g, separable=sep,
                                   antiderivative_D=d.antiderivative_D,
                                   antiderivative_D_s=d.antiderivative_D_s,
                                   linear_reaction=d.linear_reaction)
        lo, hi = st.density_bounds_from_mass(double, d.linear_reaction, 3.0, 10.0)
        assert lo == pytest.approx(0.3, abs=1e-12)
        assert hi == pytest.approx(0.3, abs=1e-12)

    def test_bounds_bracket_the_mean(self):
        d = co.preset("example-D")
        lo, hi = st.density_bounds_from_mass(d, d.linear_reaction, 3.0, 10.0)
        assert 0.0 < lo < 0.3 < hi < 1.0

    def test_finite_cell_potential_rejected(self, preset_c):
        with pytest.raises(InputError):
            st.density_bounds_from_mass(preset_c, co.GammaBeta(1.0, 1.0), 3.0, 10.0)

    def test_long_run_solution_enters_the_bracket(self):
        d = co.preset("example-D")
        grid = pde.Grid1D(128, 10.0)
        u0 = pde.profile_bump(grid, base=0.1, amplitude=0.8)
        v0 = pde.profile_constant(grid, 0.3)
        from flathump.diagnostics import mass
        m = mass(pde.State(u0, v0), grid)
        lo, hi = st.density_bounds_from_mass(d, d.linear_reaction, m, grid.length)
        cfg = pde.SolverConfig(eps=1e-3, t_end=5.0, dt_max=1e-2)
        snaps, _ = pde.run(u0, v0, grid, d, cfg, sample_times=())
        final = snaps[-1]
        assert final.u.min() >= lo
        assert final.u.max() <= hi


class TestOffsetWindows:
    def test_tangency_window_width(self, preset_c3):
        # for the convex chemical potential the infimum shift sits at s = 0:
        # width = chem_potential(shift) = e^shift - 1
        gb = preset_c3.linear_reaction
        base, width = st.lambda_window_from_tangency(preset_c3, gb, shift=1e-2)
        assert base == pytest.approx(math.log(2.0) - math.expm1(3.0), abs=1e-12)
        assert width == pytest.approx(math.expm1(1e-2), rel=1e-6)

    def test_window_members_pass_crossings(self, preset_c3):
        gb = preset_c3.linear_reaction
        base, width = st.lambda_window_from_tangency(preset_c3, gb)
        for frac in (0.25, 0.5, 0.75):
            params = st.find_crossings(preset_c3, base + frac * width)
            assert params.v_sat < params.q

    def test_tangency_offset_itself_fails(self, preset_c3):
        # at the base offset the saturation level coincides with the
        # ceiling: the ordering clause must reject it
        gb = preset_c3.linear_reaction
        base, _ = st.lambda_window_from_tangency(preset_c3, gb)
        with pytest.raises(CrossingConditionError):
            st.find_crossings(preset_c3, base)

    def test_slope_matching_root(self, preset_c3, slope_interval):
        # the matching point solves 1/r = (gamma/beta) e^((gamma/beta) r),
        # equivalently r = (beta/gamma) eta with eta e^eta = 1
        r_star, (lo, hi) = slope_interval
        eta = brentq(lambda e: e * math.exp(e) - 1.0, 0.0, 1.0, xtol=1e-15)
        assert abs(eta * math.exp(eta) - 1.0) <= 1e-12
        assert r_star == pytest.approx(eta / 3.0, abs=1e-10)
        assert lo == pytest.approx(math.log(2.0) - math.expm1(3.0), abs=1e-12)
        assert hi == pytest.approx(math.log(2.0 * r_star) - math.expm1(3.0 * r_star), abs=1e-10)

    def test_interval_interior_passes(self, preset_c3, slope_interval):
        _, (lo, hi) = slope_interval
        st.find_crossings(preset_c3, lo + 0.5 * (hi - lo))


class TestDrift:
    def test_homogeneous_double_has_no_drift(self, canonical_params):
        p = canonical_params
        grid = pde.Grid1D(128, 5.0)
        c0 = 0.3
        prof = st.StationaryProfile(
            params=p, grid=grid, u=np.full(128, c0), v=np.full(128, p.q * c0),
            x1=0.0, lam=p.lam, length=5.0, v0=c0)
        cfg = pde.SolverConfig(eps=1e-3, t_end=1.0, dt_max=1e-2)
        assert st.stationarity_drift(prof, cfg, t_check=0.2) <= 1e-12

    def test_profile_mass_is_preserved_during_check(self, canonical_profiles, canonical_params):
        from flathump.diagnostics import mass
        prof = canonical_profiles[1024]
        cfg = pde.SolverConfig(eps=0.0, t_end=0.5, dt_max=1e-2)
        u0 = np.clip(prof.u, 0.0, 1.0)
        snaps, report = pde.run(u0, prof.v, prof.grid, canonical_params.coeffs,
                                cfg, sample_times=())
        assert report.mass_drift <= 1e-11
