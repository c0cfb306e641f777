import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flathump import coefficients as co
from flathump.errors import DivergenceError, InputError, RangeError, StructuralError

# closed form of the Kirchhoff transform for preset A
def kirchhoff_a(r, s):
    return -(s + 1.0) * ((1.0 - r) ** 3 - 1.0) / 3.0


class TestKirchhoff:
    def test_preset_a_closed_form(self, preset_a):
        for r in (0.0, 0.3, 0.77, 1.0):
            for s in (0.0, 1.5, 4.0):
                assert co.kirchhoff(preset_a, r, s) == pytest.approx(kirchhoff_a(r, s), abs=1e-14)

    def test_zero_at_r_zero(self, preset_a, preset_b, preset_c):
        for c in (preset_a, preset_b, preset_c):
            assert co.kirchhoff(c, 0.0, 2.0) == 0.0

    def test_quadrature_oracle_at_one(self, preset_a):
        # adaptive quadrature of D(., 0) against the closed form 1/3
        numeric = co.numeric_only(preset_a)
        assert co.kirchhoff(numeric, 1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert co.kirchhoff(preset_a, 1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_domain_errors(self, preset_a):
        with pytest.raises(InputError):
            co.kirchhoff(preset_a, -0.1, 0.0)
        with pytest.raises(InputError):
            co.kirchhoff(preset_a, 0.5, -1.0)

    def test_vectorized_matches_scalar(self, preset_a):
        numeric = co.numeric_only(preset_a)
        r = np.array([0.1, 0.5, 0.9, 1.0])
        s = np.array([0.0, 0.5, 2.0, 3.0])
        expected = [co.kirchhoff(preset_a, ri, si) for ri, si in zip(r, s)]
        np.testing.assert_allclose(co.kirchhoff_many(numeric, r, s), expected, atol=1e-13)

    @given(r=hst.floats(0.0, 1.0), s=hst.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_r(self, r, s):
        c = co.preset("example-A")
        assert co.kirchhoff(c, 1.0, s) >= co.kirchhoff(c, r, s) - 1e-14


class TestKirchhoffS:
    def test_preset_a_value_and_bound(self, preset_a):
        for r in (0.0, 0.4, 1.0):
            for s in (0.0, 2.0, 5.0):
                expected = -((1.0 - r) ** 3 - 1.0) / 3.0
                assert co.kirchhoff_s(preset_a, r, s) == pytest.approx(expected, abs=1e-13)
        # |d/ds K| <= (K_bound + 1)/3 on [0, K_bound]
        grid = np.linspace(0, 1, 33)
        vals = np.abs(co.kirchhoff_s_many(preset_a, grid, np.full_like(grid, 5.0)))
        assert vals.max() <= (5.0 + 1.0) / 3.0

    def test_preset_b_is_zero(self, preset_b):
        assert co.kirchhoff_s(preset_b, 0.7, 3.0) == 0.0

    def test_finite_difference_oracle(self, preset_a):
        # central difference of the closed-form transform, step 1e-6*max(1,s)
        numeric = co.numeric_only(preset_a)
        r, s = 0.5, 2.0
        step = 1e-6 * max(1.0, s)
        oracle = (co.kirchhoff(preset_a, r, s + step) - co.kirchhoff(preset_a, r, s - step)) / (2 * step)
        assert co.kirchhoff_s(numeric, r, s) == pytest.approx(oracle, abs=1e-9)
        assert co.kirchhoff_s(preset_a, r, s) == pytest.approx(oracle, abs=1e-6)


class TestRegularize:
    def test_shifts_diffusion_only(self, preset_a):
        reg = co.regularize(preset_a, 0.1)
        for s in (0.0, 1.0, 7.0):
            assert float(reg.D(1.0, s)) == pytest.approx(0.1, abs=1e-15)
            assert float(reg.h(0.5, s)) == float(preset_a.h(0.5, s))

    @given(r=hst.floats(0.0, 1.0), s=hst.floats(0.0, 5.0),
           eps=hst.floats(1e-6, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_kirchhoff_gains_eps_r(self, r, s, eps):
        c = co.preset("example-A")
        reg = co.regularize(c, eps)
        shift = co.kirchhoff(reg, r, s) - co.kirchhoff(c, r, s)
        assert shift == pytest.approx(eps * r, abs=1e-14)

    def test_minimum_on_grid_is_eps_at_r_one(self, preset_a):
        reg = co.regularize(preset_a, 1e-3)
        r = np.linspace(0, 1, 101)
        s = np.linspace(0, 3, 41)
        rr, ss = np.meshgrid(r, s, indexing="ij")
        vals = np.asarray(reg.D(rr, ss), dtype=float)
        i = np.unravel_index(np.argmin(vals), vals.shape)
        assert vals[i] == pytest.approx(1e-3, rel=1e-12)
        assert rr[i] == 1.0

    def test_rejects_nonpositive_eps(self, preset_a):
        with pytest.raises(InputError):
            co.regularize(preset_a, 0.0)


class TestConditionCheckers:
    def test_preset_a_passes_with_bounded_m(self, preset_a):
        report = co.check_conditions(preset_a, s_max=5.0, grid_n=64)
        assert report.passed, report.summary_lines()
        assert report.empirical_m <= (5.0 + 1.0) / 3.0

    def test_constant_diffusion_fails_degeneracy(self):
        bad = co.from_expressions("flat-D", D="1", h="r * (1 - r)", g="r - s")
        report = co.check_conditions(bad, s_max=2.0, grid_n=32)
        assert not report["diffusion-degenerate-at-one"].passed
        assert not report.passed

    def test_preset_b_m_is_zero(self, preset_b):
        report = co.check_conditions(preset_b, s_max=3.0, grid_n=64)
        assert report.passed
        assert report.empirical_m == pytest.approx(0.0, abs=1e-12)

    def test_grid_n_validation(self, preset_a):
        with pytest.raises(InputError):
            co.check_conditions(preset_a, s_max=1.0, grid_n=8)


class TestUniquenessChecker:
    def test_preset_b_constants_dominated(self, preset_b):
        report = co.check_uniqueness_conditions(preset_b, s_max=1.0, n_pairs=10_000, seed=7)
        assert report.passed
        assert report.c1 == 2.0
        assert report.c0 <= 8.0 * (1.0 + 1.0) ** 2

    def test_coincident_pairs_need_nothing(self, preset_b):
        # r1 == r2, s1 == s2 makes both sides zero: the required constant is 0
        report = co.check_uniqueness_conditions(preset_b, s_max=1.0, n_pairs=100, seed=1)
        assert report.c0 >= 0.0

    def test_s_dependent_diffusion_rejected(self, preset_a):
        with pytest.raises(InputError):
            co.check_uniqueness_conditions(preset_a, s_max=1.0, n_pairs=100)

    def test_reaction_affinity_flag(self, preset_b):
        report = co.check_uniqueness_conditions(preset_b, s_max=1.0, n_pairs=100, seed=3)
        assert report.reaction_affine


class TestPotentials:
    def test_closing_example_closed_forms(self, preset_c):
        # cell potential log(2r), chemical potential e^s - 1
        numeric = co.numeric_only(preset_c)
        for r in (0.1, 0.5, 0.9, 1.0):
            assert co.cell_potential(preset_c, r) == pytest.approx(math.log(2 * r), abs=1e-13)
            assert co.cell_potential(numeric, r) == pytest.approx(math.log(2 * r), abs=1e-10)
        for s in (0.0, 1.0, 2.5):
            assert co.chem_potential(preset_c, s) == pytest.approx(math.expm1(s), abs=1e-12)
            assert co.chem_potential(numeric, s) == pytest.approx(math.expm1(s), abs=1e-10)

    def test_anchors_are_zero(self, preset_c):
        assert co.cell_potential(preset_c, 0.5) == 0.0
        assert co.chem_potential(preset_c, 0.0) == 0.0

    def test_chem_potential_at_one(self, preset_c):
        assert co.chem_potential(co.numeric_only(preset_c), 1.0) == pytest.approx(
            1.718281828459045, abs=1e-10)

    def test_divergence_at_zero(self, preset_c):
        with pytest.raises(DivergenceError):
            co.cell_potential(preset_c, 0.0)

    def test_monotone_increasing(self, preset_c):
        numeric = co.numeric_only(preset_c)
        rs = np.linspace(0.05, 1.0, 12)
        vals = [co.cell_potential(numeric, r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ss = np.linspace(0.0, 8.0, 10)
        vals = [co.chem_potential(numeric, s) for s in ss]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("name", co.preset_names())
def test_closed_forms_match_numeric_path(name):
    c = co.preset(name)
    numeric = co.numeric_only(c)
    rr, ss = np.meshgrid(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 4.0, 17), indexing="ij")
    np.testing.assert_allclose(co.kirchhoff_many(c, rr, ss), co.kirchhoff_many(numeric, rr, ss),
                               rtol=0, atol=1e-14)
    # the numeric s-derivative is a central difference with step 1e-6
    np.testing.assert_allclose(co.kirchhoff_s_many(c, rr, ss),
                               co.kirchhoff_s_many(numeric, rr, ss), rtol=0, atol=1e-9)
    for r in np.linspace(0.02, 0.98, 9):
        y = co.cell_potential(c, r)
        assert y == pytest.approx(co.cell_potential(numeric, r), abs=1e-12)
        assert co.cell_potential_inv(c, y) == pytest.approx(r, abs=1e-12)
        assert co.cell_potential_inv(numeric, y) == pytest.approx(r, abs=1e-12)
    for s in np.linspace(0.0, 3.0, 9):
        y = co.chem_potential(c, s)
        assert y == pytest.approx(co.chem_potential(numeric, s), abs=1e-12)
        assert co.chem_potential_inv(c, y) == pytest.approx(s, abs=1e-12)
        assert co.chem_potential_inv(numeric, y) == pytest.approx(s, abs=1e-12)
    top = co.cell_potential_at_one(c)
    assert co.cell_potential_at_one(numeric) == pytest.approx(top, abs=1e-10)
    assert math.isinf(top) == (name == "example-D")


PRESET_EXPRESSIONS = {
    "example-A": ("(1 - r)^2 * (s + 1)", "r * (1 - r)^2 * (s + 1)", 2),
    "example-B": ("(1 - r)^2", "r * (1 - r)^2 * (s + 1)", 2),
    "example-C": ("1 - r", "r * (1 - r) * exp(s)", 1),
    "example-D": ("1 - r", "r * (1 - r)^2", 1),
}


@pytest.mark.parametrize("name", co.preset_names())
def test_polynomial_d_takes_the_smallest_exact_rule(name):
    D, h, nodes = PRESET_EXPRESSIONS[name]
    c = co.from_expressions(name, D=D, h=h, g="r - s")
    assert c.kirchhoff_nodes == nodes
    closed = co.preset(name)
    rr, ss = np.meshgrid(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 4.0, 17), indexing="ij")
    for expr_set, closed_set in ((c, closed), (co.regularize(c, 1e-3), co.regularize(closed, 1e-3))):
        assert expr_set.kirchhoff_nodes == nodes
        np.testing.assert_allclose(co.kirchhoff_many(expr_set, rr, ss),
                                   co.kirchhoff_many(closed_set, rr, ss), rtol=0, atol=1e-14)
    assert co.numeric_only(c).kirchhoff_nodes == nodes
    assert co.with_reaction(c, co.GammaBeta(2.0, 1.0)).kirchhoff_nodes == nodes


@pytest.mark.parametrize("D, K, atol", [
    ("exp(r)", np.expm1, 1e-14),
    ("1/(1 + r)", np.log1p, 1e-14),
    ("r^0.5", lambda r: r ** 1.5 / 1.5, 1e-5),      # not smooth at r = 0
])
def test_non_polynomial_d_keeps_24_nodes(D, K, atol):
    c = co.from_expressions("other", D=D, h="0", g="0")
    assert c.kirchhoff_nodes == 24
    r = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(co.kirchhoff_many(c, r, np.zeros_like(r)), K(r), rtol=0, atol=atol)


def test_high_degree_is_capped_at_24_nodes():
    assert co.from_expressions("high", D="r^1000", h="0", g="0").kirchhoff_nodes == 24


class TestInverses:
    def test_trivial_anchor(self, preset_c):
        assert co.cell_potential_inv(preset_c, 0.0) == pytest.approx(0.5, abs=1e-13)
        assert co.cell_potential_inv(co.numeric_only(preset_c), 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_closed_form_inverse(self, preset_c):
        numeric = co.numeric_only(preset_c)
        y = math.log(2.0) - 1e-9
        assert co.cell_potential_inv(numeric, y) == pytest.approx(0.5 * math.exp(y), rel=1e-12)
        assert co.cell_potential_inv(numeric, y) < 1.0

    def test_chem_inverse_of_e_minus_one(self, preset_c):
        assert co.chem_potential_inv(preset_c, math.e - 1.0) == pytest.approx(1.0, abs=1e-13)
        assert co.chem_potential_inv(co.numeric_only(preset_c), math.e - 1.0) == pytest.approx(
            1.0, rel=1e-12)

    def test_range_errors(self, preset_c):
        with pytest.raises(RangeError):
            co.cell_potential_inv(preset_c, math.log(2.0) + 0.1)
        with pytest.raises(RangeError):
            co.chem_potential_inv(preset_c, -0.5)

    @given(r=hst.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_cell_round_trip(self, r):
        c = co.preset("example-C")
        numeric = co.numeric_only(c)
        assert co.cell_potential_inv(numeric, co.cell_potential(numeric, r)) == pytest.approx(
            r, abs=1e-10)

    @given(s=hst.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_chem_round_trip(self, s):
        c = co.preset("example-C")
        numeric = co.numeric_only(c)
        assert co.chem_potential_inv(numeric, co.chem_potential(numeric, s)) == pytest.approx(
            s, abs=1e-10)


class TestDivergenceDetection:
    def test_finite_for_closing_example(self, preset_c):
        assert co.cell_potential_at_one(preset_c) == pytest.approx(math.log(2.0), abs=1e-12)
        assert co.cell_potential_at_one(co.numeric_only(preset_c)) == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_infinite_for_logistic_preset(self):
        d = co.preset("example-D")
        assert co.cell_potential_at_one(d) == math.inf
        assert co.cell_potential_at_one(co.numeric_only(d)) == math.inf

    def test_logistic_potential_is_logit(self):
        d = co.numeric_only(co.preset("example-D"))
        for r in (0.2, 0.5, 0.8):
            assert co.cell_potential(d, r) == pytest.approx(math.log(r / (1 - r)), abs=1e-10)


class TestSeparableStructure:
    def test_presets_pass(self):
        for name in co.preset_names():
            co.check_separable_structure(co.preset(name))

    def test_bad_h1_flagged(self):
        bad = co.from_expressions(
            "bad-h1", D="1 - r", h="(1 + r) * exp(s)", g="r - s",
            D1="1 - r", D2="1", h1="1 + r", h2="exp(s)")
        with pytest.raises(StructuralError, match="h1"):
            co.check_separable_structure(bad)

    def test_missing_factors(self, preset_a):
        plain = co.CoefficientSet("plain", preset_a.D, preset_a.h, preset_a.g)
        with pytest.raises(StructuralError):
            co.cell_potential(plain, 0.5)


class TestExpressionsBackedSet:
    def test_matches_preset_a(self, preset_a):
        custom = co.from_expressions(
            "custom-A", D="(1 - r)^2 * (s + 1)", h="r * (1 - r)^2 * (s + 1)",
            g="r - s")
        r = np.linspace(0, 1, 9)
        s = np.linspace(0, 3, 9)
        rr, ss = np.meshgrid(r, s)
        np.testing.assert_allclose(custom.D(rr, ss), preset_a.D(rr, ss), atol=1e-14)
        np.testing.assert_allclose(custom.h(rr, ss), preset_a.h(rr, ss), atol=1e-14)

    def test_partial_factors_rejected(self):
        with pytest.raises(InputError):
            co.from_expressions("partial", D="1-r", h="r*(1-r)", g="r-s", D1="1-r")
