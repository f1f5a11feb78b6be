import numpy as np
import pytest

from trophodge.expressions import ExpressionError, parse_expression, to_source


def test_fubini_study_value_at_zero():
    expr = parse_expression("2*exp(2*x)/(1+exp(2*x))^2")
    assert expr.eval(0.0) == pytest.approx(0.5, abs=1e-15)


def test_power_derivative():
    expr = parse_expression("x^2")
    assert expr.diff().eval(3.0) == pytest.approx(6.0)


def test_unary_plus_is_a_syntax_error_with_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2*+x")
    assert err.value.offset == 2


def test_unknown_identifier_reports_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2*sin(x)")
    assert "sin" in str(err.value)
    assert err.value.offset == 2


@pytest.mark.parametrize(
    "source,x,value",
    [
        ("1+2*3", 0.0, 7.0),
        ("(1+2)*3", 0.0, 9.0),
        ("-x^2", 2.0, -4.0),
        ("2^-1", 0.0, 0.5),
        ("x^2^3", 2.0, 256.0),
        ("x^1024", 1.0, 1.0),
        ("exp(0)", 5.0, 1.0),
        ("1e2+0.5", 0.0, 100.5),
    ],
)
def test_precedence_and_literals(source, x, value):
    assert parse_expression(source).eval(x) == pytest.approx(value, rel=1e-15)


def test_vectorized_evaluation():
    expr = parse_expression("x^3-x")
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(expr.eval(xs), xs**3 - xs)


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x^1.5")


@pytest.mark.parametrize("source", ["x^2^2^2^2^2^2", "x^2^-1", "x^0^-1", "x^1025", "x^" + "9" * 5000],
                         ids=["tower", "half", "zero-to-negative", "1025", "5000-digits"])
def test_exponent_must_be_a_bounded_integer(source):
    with pytest.raises(ExpressionError):
        parse_expression(source)


def test_nesting_and_size_bounds():
    from trophodge.expressions import MAX_DEPTH, MAX_NODES

    balanced = ["x"]  # balanced[k] is a full binary sum with 2^(k+1) - 1 nodes
    while 2 ** len(balanced) <= MAX_NODES + 1:
        balanced.append(f"({balanced[-1]}+{balanced[-1]})")
    parse_expression("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
    parse_expression("*".join(["x"] * MAX_DEPTH))  # a left-deep tree MAX_DEPTH levels deep
    parse_expression(balanced[-2])
    for source in ["(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), "-" * (MAX_DEPTH + 1) + "x",
                   "*".join(["x"] * (MAX_DEPTH + 1)), balanced[-1]]:
        with pytest.raises(ExpressionError):
            parse_expression(source)


def test_round_trip_through_printer():
    sources = [
        "2*exp(2*x)/(1+exp(2*x))^2",
        "-x^3+4*x-1/(x-2)",
        "exp(-(x^2))",
        "1.5*x^4-2.25",
        "x^-1^-3",
    ]
    xs = np.linspace(-3, 3, 100)
    for source in sources:
        tree = parse_expression(source)
        again = parse_expression(to_source(tree))
        assert np.all(np.abs(tree.eval(xs) - again.eval(xs)) <= 1e-14)


def test_symbolic_derivative_matches_finite_differences():
    tree = parse_expression("exp(2*x)/(1+exp(2*x))")
    d = tree.diff()
    xs = np.linspace(-2.0, 0.0, 11)
    h = 1e-6
    numeric = (tree.eval(xs + h) - tree.eval(xs - h)) / (2 * h)
    assert np.allclose(d.eval(xs), numeric, atol=1e-9)


from hypothesis import given, strategies as st


@st.composite
def expression_sources(draw, depth=0):
    if depth >= 3:
        return draw(st.sampled_from(["x", "1", "2.5", "0.25"]))
    kind = draw(st.sampled_from(["atom", "binary", "unary", "pow", "exp"]))
    if kind == "atom":
        return draw(st.sampled_from(["x", "1", "2.5", "0.25"]))
    if kind == "binary":
        op = draw(st.sampled_from("+-*"))
        left = draw(expression_sources(depth + 1))
        right = draw(expression_sources(depth + 1))
        return f"({left}{op}{right})"
    if kind == "unary":
        return f"-({draw(expression_sources(depth + 1))})"
    if kind == "pow":
        base = draw(expression_sources(depth + 1))
        n = draw(st.integers(0, 3))
        return f"({base})^{n}"
    return f"exp(-(({draw(expression_sources(depth + 1))})^2))"


@given(expression_sources())
def test_round_trip_property(source):
    tree = parse_expression(source)
    again = parse_expression(to_source(tree))
    xs = np.linspace(-1.5, 1.5, 23)
    va, vb = np.asarray(tree.eval(xs)), np.asarray(again.eval(xs))
    mask = np.isfinite(va)
    assert np.all(np.abs(va[mask] - vb[mask]) <= 1e-14 * np.maximum(1.0, np.abs(va[mask])))
