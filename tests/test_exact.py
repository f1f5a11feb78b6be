"""The sparse elimination in trophodge.exact against dense elimination.

The reference below is a plain dense Gauss-Jordan elimination over
``Fraction`` rows.  Reduced row-echelon form is unique, so the sparse
routine must give the same pivots, rows, ranks, nullspace vectors and
integer scalings entry for entry.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from trophodge.exact import integerize, nullspace, rank, rref


def dense_rref(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def dense_nullspace(matrix, n_cols=None):
    m = list(matrix)
    if not m:
        return [[Fraction(int(i == j)) for i in range(n_cols)] for j in range(n_cols or 0)]
    n_cols = len(m[0])
    reduced, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def dense_integerize(vector):
    vec = [Fraction(x) for x in vector]
    scale = 1
    for x in vec:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vec]
    g = 0
    for value in ints:
        g = gcd(g, abs(value))
    if g > 1:
        ints = [value // g for value in ints]
    if next((value for value in ints if value != 0), 0) < 0:
        ints = [-value for value in ints]
    return ints


entries = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrices(draw):
    """Small rational matrices, with zero and duplicate rows; possibly no
    rows (then n_cols gives the width) or rows of width 0."""
    n_cols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols), max_size=6))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n_cols)
    return rows, n_cols


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_sparse_elimination_matches_dense_reference(case):
    rows, n_cols = case
    reduced, pivots = rref(rows)
    expected, expected_pivots = dense_rref(rows)
    assert pivots == expected_pivots
    densified = [[row.get(c, Fraction(0)) for c in range(n_cols)] for row in reduced]
    assert densified == expected[:len(pivots)]
    assert all(x == 0 for row in expected[len(pivots):] for x in row)
    assert all(x != 0 for row in reduced for x in row.values())
    assert rank(rows) == len(expected_pivots)
    basis = nullspace(rows, n_cols=n_cols)
    assert basis == dense_nullspace(rows, n_cols=n_cols)
    assert all(type(x) is Fraction for v in basis for x in v)
    assert [integerize(v) for v in basis] == [dense_integerize(v) for v in basis]


@given(st.lists(entries, max_size=6))
def test_integerize_matches_dense_reference(vector):
    assert integerize(vector) == dense_integerize(vector)
