import ast
import math
from pathlib import Path

import numpy as np
import pytest

from netsde import expressions
from netsde.errors import ConfigurationError, ExpressionEvaluationError, ExpressionParseError
from netsde.expressions import parse_expression


def test_arithmetic_and_precedence():
    e = parse_expression("1 + 2*3 - 4/2", variables=())
    assert e.constant_value() == 5.0


def test_power_binds_tighter_than_unary_minus():
    e = parse_expression("-2^2", variables=())
    assert e.constant_value() == -4.0


def test_power_right_associative():
    e = parse_expression("2^3^2", variables=())
    assert e.constant_value() == 512.0


def test_variables_and_functions():
    e = parse_expression("sin(t) + x^2", variables=("t", "x"))
    assert e(t=0.0, x=3.0) == 9.0
    assert abs(e(t=math.pi / 2, x=0.0) - 1.0) < 1e-15


def test_vectorized_evaluation():
    e = parse_expression("exp(-x) * u", variables=("x", "u"))
    x = np.linspace(0.0, 1.0, 5)
    u = np.ones(5)
    np.testing.assert_allclose(e(x=x, u=u), np.exp(-x))


def test_pi_constant_and_abs_tanh():
    e = parse_expression("abs(tanh(-pi))", variables=())
    assert abs(e.constant_value() - math.tanh(math.pi)) < 1e-15


def test_constant_detection():
    assert parse_expression("3*(1+1)", variables=("t", "x")).is_constant
    assert not parse_expression("3*x", variables=("t", "x")).is_constant


def test_double_caret_reports_position():
    with pytest.raises(ExpressionParseError) as err:
        parse_expression("u^^3", variables=("u",))
    assert err.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ExpressionParseError):
        parse_expression("y + 1", variables=("t", "x"))


def test_unknown_function():
    with pytest.raises(ExpressionParseError):
        parse_expression("sinh(x)", variables=("x",))


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionParseError):
        parse_expression("(1 + 2", variables=())


def test_trailing_garbage():
    with pytest.raises(ExpressionParseError):
        parse_expression("1 + 2 )", variables=())


def test_scientific_literals():
    assert parse_expression("1e-3 + 2.5E+1", variables=()).constant_value() == 25.001


def test_nested_calls_and_unary():
    e = parse_expression("cos(-x) - cos(x)", variables=("x",))
    np.testing.assert_allclose(e(x=np.array([0.3, 1.2])), 0.0, atol=1e-15)


X = np.array([-1.5, 0.0, 0.5, 2.0])


# each expected value is the same float operations in the same order
@pytest.mark.parametrize("text, expected", [
    (" 1+x", 1.0 + X),
    ("1 +\n 2", 3.0),
    ("\t2*x ", 2.0 * X),
    ("2^-x^2", 2.0 ** -(X ** 2.0)),
    ("-2^2", -4.0),
    ("2^3^2", 512.0),
    ("1.e5", 1e5),
    (".5", 0.5),
    ("--x", X),
    ("+x", X),
    ("2.5E+1", 25.0),
])
def test_accepted_forms(text, expected):
    value = parse_expression(text, ("x",))(x=X)
    np.testing.assert_array_equal(np.broadcast_to(value, X.shape), expected)


@pytest.mark.parametrize("text", [
    "x**2", "1_0", "0x1f", "1j", "True", "x.real", "x[0]", "abs(x, 1)", "abs(x=1)",
    "x if x else 1", "not x", "x < 1", "(1, 2)", "2(3)", "sin(x)(2)", "lambda: 1", "",
])
def test_rejected_forms(text):
    with pytest.raises(ExpressionParseError) as err:
        parse_expression(text, ("x",))
    assert 0 <= err.value.position <= max(len(text) - 1, 0)


def test_positions_are_offsets_into_the_text():
    # leading whitespace is dropped and each ^ becomes ** before Python parses
    for text, position in (("  y", 2), ("x^2 + y", 6), ("\n2^x^2 ^^", 8), ("x ** 2", 3)):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(text, ("x",))
        assert err.value.position == position, text


def test_variables_keep_their_order():
    assert parse_expression("u + t", ("x", "u", "t")).variables == ("x", "u", "t")


@pytest.mark.parametrize("text", ["10^400", "1/0", "0^-1", "(-8)^0.5"])
def test_constant_without_a_real_value(text):
    with pytest.raises(ExpressionEvaluationError, match="expression") as err:
        parse_expression(text, ()).constant_value()
    assert isinstance(err.value, ConfigurationError)


def test_constant_value_of_a_non_constant_expression_names_its_variables():
    with pytest.raises(ExpressionEvaluationError, match=r"uses \['t', 'x'\]") as err:
        parse_expression("x*t + 1", ("t", "x", "u")).constant_value()
    assert isinstance(err.value, ConfigurationError)


def test_text_is_never_evaluated_by_python():
    tree = ast.parse(Path(expressions.__file__).read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"eval", "exec", "compile", "__import__"}
