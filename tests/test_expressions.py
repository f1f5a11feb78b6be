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
    # the parser shares repeated subtrees; the walk of the shared tree keeps the reference's bits
    assert_walk_matches_reference(tree)


# -- the walk against a recursive reference ---------------------------------

import dataclasses
import operator

from hypothesis import assume, settings

from trophodge.checks import DECAY
from trophodge.expressions import (MAX_DEPTH, MAX_NODES, Add, Div, Exp, Expression, Mul, Neg, Num, Opaque, Pow, Sub, Var,
                                   _walk)

# opaque nodes with known derivatives: sin' = cos, cos' = -sin
SIN = Opaque(np.sin, derivative=lambda: COS)
COS = Opaque(np.cos, derivative=lambda: Neg(SIN))


def reference(node, x):
    """Per-node recursive evaluation: literals as arrays of x's shape for array x, Python floats otherwise."""
    if isinstance(node, Opaque):
        return node.fn(reference(node.arg, x))
    if isinstance(node, Num):
        return np.full_like(np.asarray(x, dtype=float), node.value) if np.ndim(x) else node.value
    if isinstance(node, Var):
        return np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if isinstance(node, Neg):
        return -reference(node.arg, x)
    if isinstance(node, Exp):
        return np.exp(reference(node.arg, x))
    if isinstance(node, Pow):
        return reference(node.base, x) ** node.exponent
    op = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}[type(node)]
    return op(reference(node.left, x), reference(node.right, x))


def outcome(evaluate, node, x):
    """The result's type, shape and bits, or the type of the exception raised.

    Every NaN counts as one value: which NaN operand an operation passes
    on depends on numpy's loop (vector, tail or broadcast lanes), and the
    per-node evaluator itself gives the third derivative of 1/(x/0) a
    NaN of the other sign in the last of 9 lanes.
    """
    try:
        with np.errstate(all="ignore"):
            value = evaluate(node, x)
    except ArithmeticError as exc:
        return type(exc)
    bits = np.asarray(value, dtype=float)
    return type(value), np.shape(value), np.where(np.isnan(bits), np.nan, bits).tobytes()


POINTS = [0.0, -1.25, 0.7, 3, np.float64(-0.3), np.linspace(-2.0, 2.0, 9), np.array([[0.0, 1.5], [-0.5, 2.0]]),
          np.array([0.0])]


def assert_walk_matches_reference(tree):
    """The walk and a call of the tree each match the reference at every point."""
    for x in POINTS:
        expected = outcome(reference, tree, x)
        assert outcome(_walk, tree, x) == expected, ("walk", tree, x)
        assert outcome(lambda node, x: node(x), tree, x) == expected, ("call", tree, x)


def _size_and_depth(node):
    children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    children = [c for c in children if isinstance(c, Expression)]
    sizes = [_size_and_depth(c) for c in children]
    return 1 + sum(s for s, _ in sizes), 1 + max((d for _, d in sizes), default=0)


LITERALS = st.sampled_from([0.0, -0.0, 1.0, 2.5, 0.25, -1.5, 1e200]).map(Num)
PARSED = st.sampled_from([parse_expression(DECAY), parse_expression(DECAY).diff()])  # with shared subtrees
trees = st.recursive(
    st.just(Var()) | LITERALS | st.just(SIN) | PARSED,
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Exp, sub), st.builds(Pow, sub, st.integers(-3, 3)),
        *(st.builds(cls, sub, sub) for cls in (Add, Sub, Mul, Div)),
    ),
    max_leaves=8,
)


@settings(deadline=None)
@given(trees)
def test_walk_equals_reference_bitwise_with_three_derivatives(tree):
    size, depth = _size_and_depth(tree)
    assume(size <= MAX_NODES and depth <= MAX_DEPTH)
    for _ in range(4):
        assert_walk_matches_reference(tree)
        tree = tree.diff()


def test_neg_and_sub_get_their_own_steps():
    x = Var()
    # 1/(-x) and 1/(0-x) differ only in the sign of zero; an evaluator that
    # merged Neg with Sub, or 0.0 with -0.0, would read inf - inf at x = 0
    tree = Sub(Div(Num(1.0), Neg(x)), Div(Num(1.0), Sub(Num(0.0), x)))
    assert_walk_matches_reference(tree)
    signed_zero = Add(Div(Num(1.0), Num(-0.0)), Div(Num(1.0), Num(0.0)))
    assert_walk_matches_reference(signed_zero)
    with np.errstate(all="ignore"):
        assert np.isneginf(tree(np.array([0.0]))[0])
        assert np.isnan(signed_zero(np.zeros(2))).all()
    ops = Add(Add(Exp(x), Neg(x)), Add(Mul(x, Num(2.0)), Div(x, Num(2.0))))
    assert_walk_matches_reference(ops)
    parsed = parse_expression("1/(-x)-1/(0-x)")  # the parser's sharing keeps them apart too
    with np.errstate(all="ignore"):
        assert np.isneginf(parsed(np.array([0.0]))[0])


def test_repeated_subtree_is_one_step():
    tree = parse_expression("exp(2*x)/(1+exp(2*x))")
    assert_walk_matches_reference(tree)
    assert type(tree.left) is Exp and tree.left is tree.right.right
    # equal children under different operations stay different nodes
    x = 0.75
    assert parse_expression("(x+2)-(x*2)+(x/2)-exp(x)*-x")(x) == (x + 2) - (x * 2) + (x / 2) - np.exp(x) * -x


def test_constant_root_returns_a_fresh_array_of_the_input_shape():
    for source in ["1/0", "3", "(2.5)^3*exp(0.25)"]:
        tree = parse_expression(source)
        assert_walk_matches_reference(tree)
        grid = np.zeros((2, 3))
        with np.errstate(divide="ignore"):
            value = tree(grid)
        assert isinstance(value, np.ndarray) and value.shape == (2, 3)
    one = parse_expression("3")(np.zeros(1))
    one[0] = 7.0
    assert parse_expression("3")(np.zeros(1))[0] == 3.0


def test_first_call_keeps_few_arrays_alive():
    # the walk drops each value after its last read; keeping them all would hold 80 arrays here
    import tracemalloc

    x = Var()
    tree = x
    for _ in range(40):
        tree = Add(Mul(tree, Num(1.5)), x)
    grid = np.linspace(-1.0, 1.0, 2**18)
    tracemalloc.start()
    try:
        tree(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * grid.nbytes


def test_walk_of_many_roots_keeps_few_arrays_alive():
    # 1000 roots read one shared node: it is computed once and kept only until the last of them,
    # and each root's value is dropped once the caller has reduced it
    import tracemalloc

    from trophodge.expressions import polynomial

    calls = []
    shared = Opaque(lambda v: calls.append(1) or np.exp(v))
    roots = [Mul(polynomial([float(k), 1.0]), shared) for k in range(1000)]
    grid = np.linspace(-1.0, 1.0, 2**16)
    tracemalloc.start()
    try:
        sums = list(map(np.sum, _walk(roots, grid)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * grid.nbytes
    assert calls == [1]
    assert sums[:3] == [np.sum((grid + k) * np.exp(grid)) for k in range(3)]


def test_walk_of_many_roots_equals_one_walk_per_root_bitwise():
    trees = [parse_expression(s) for s in ["2*exp(2*x)/(1+exp(2*x))^2", "3", "x^2-0.5*x"]]
    trees += [trees[0].diff(), trees[0].diff().diff(), trees[0]]  # sharing subtrees, and a root repeated
    for x in POINTS:
        with np.errstate(all="ignore"):
            together = list(_walk(trees, x))
        assert [outcome(lambda node, x: value, None, x) for value in together] \
            == [outcome(_walk, tree, x) for tree in trees]


def test_parse_and_diff_are_built_once():
    from trophodge.superform import EdgeFunction

    tree = parse_expression("2*exp(2*x)/(1+exp(2*x))^2")
    assert parse_expression("2*exp(2*x)/(1+exp(2*x))^2") is tree
    assert tree.diff() is tree.diff()
    fn = EdgeFunction.from_expression("2*exp(2*x)/(1+exp(2*x))^2")
    assert fn.node is tree
    assert fn.derivative().node is fn.derivative().node is tree.diff()
