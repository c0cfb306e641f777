import numpy as np
import pytest

from flathump.errors import InputError
from flathump.expressions import parse_expression


def test_basic_arithmetic():
    f = parse_expression("(1 - r)^2 * (s + 1)")
    assert f(0.5, 1.0) == pytest.approx(0.5)
    r = np.array([0.0, 0.25, 1.0])
    s = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f(r, s), (1 - r) ** 2 * (s + 1))


def test_exp_log_and_double_star():
    f = parse_expression("exp(s) * r ** 2")
    assert f(2.0, 0.0) == pytest.approx(4.0)
    g = parse_expression("log(r + 1)")
    assert g(np.e - 1.0, 0.0) == pytest.approx(1.0)


def test_constant_broadcasts_over_arrays():
    f = parse_expression("1.5")
    out = f(np.zeros(4), 0.0)
    assert out.shape == (4,)
    assert np.all(out == 1.5)


@pytest.mark.parametrize("bad", [
    "import os",
    "__builtins__",
    "r @ s",
    "sin(r)",
    "x + 1",
    "exp(r, s)",
    "lambda: 1",
])
def test_rejects_anything_outside_the_grammar(bad):
    with pytest.raises(InputError):
        parse_expression(bad)


def test_integer_literals_evaluate_as_floats():
    out = parse_expression("2^100")(0.5, 0.5)
    assert isinstance(out, float)
    assert out == 2.0 ** 100


@pytest.mark.parametrize("bad", ["9^9^9", "1/0", "r + 2^(2^11)", "(0-8)^(1/3)", "(0-1)^0.5"])
def test_failing_constant_rejected(bad):
    with pytest.raises(InputError):
        parse_expression(bad)


@pytest.mark.parametrize("text, degree", [
    ("1.5", 0), ("s", 0), ("r", 1), ("r + s", 1), ("s - r", 1), ("r * r * s", 2),
    ("-r^3", 3), ("r / (s + 1)", 1), ("r^0", 0), ("exp(s)", 0), ("log(s + 1)", 0),
    ("s^2.5", 0), ("2^s", 0),
    ("(1 - r)^2 * (s + 1)", 2), ("r*exp(s)", 1), ("(r+s)^3/2", 3), ("r^1000", 1000),
    ("r^-1", None), ("exp(r)", None), ("log(r + 1)", None), ("1/(1 + r)", None),
    ("r^0.5", None), ("r^s", None), ("2^r", None),
])
def test_r_degree(text, degree):
    assert parse_expression(text).r_degree == degree
