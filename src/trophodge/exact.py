"""Exact rational Gaussian elimination for rank and nullspace.

Dimension statements are the whole point of the harmonic computations,
so ranks and kernels are computed over the rationals: no floating-point
rank threshold is ever involved.  The matrices are sparse with +-1
entries, so elimination runs row by row over nonzeros: each row becomes
a {column: Fraction} dict, is reduced against the pivot rows so far,
and if anything is left, takes its lowest column as a new pivot, is
normalised there, and that column is cleared from the earlier pivot
rows.  The pivot rows then have distinct leading 1s, zeros in each
other's pivot columns and span the row space: the reduced row-echelon
form, which is unique, so pivots and nullspace are those of any exact
method.  Nullspace vectors follow the free columns in the given order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rref", "rank", "nullspace", "integerize"]

SparseRow = dict[int, Fraction]


def _subtract(target: SparseRow, f: Fraction, source: SparseRow) -> None:
    """target -= f * source, dropping the entries that cancel."""
    for c, x in source.items():
        value = target.get(c, 0) - f * x
        if value:
            target[c] = value
        else:
            del target[c]


def rref(matrix) -> tuple[list[SparseRow], list[int]]:
    """Nonzero rows of the reduced row-echelon form, as {column: value}
    dicts in pivot order, and the pivot column indices."""
    pivot_rows: dict[int, SparseRow] = {}  # pivot column -> its row
    for dense in matrix:
        row = {c: Fraction(x) for c, x in enumerate(dense) if x}
        # pivot rows are zero in each other's pivot columns, so clearing
        # one pivot column leaves the row's other pivot entries alone
        for p in [c for c in row if c in pivot_rows]:
            _subtract(row, row[p], pivot_rows[p])
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            if p in other:
                _subtract(other, other[p], row)
        pivot_rows[p] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix, n_cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the rational kernel, one vector per free column.

    Columns are taken in the given order, so a deterministic column
    ordering (sorted edge ids) yields a deterministic basis.  n_cols is
    the width of a matrix without rows.
    """
    m = list(matrix)
    n_cols = len(m[0]) if m else n_cols or 0
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {fc: [Fraction(0)] * n_cols for fc in range(n_cols) if fc not in pivot_set}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for pc, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def integerize(vector) -> list[int]:
    """Scale a rational vector to coprime integers with positive leading entry."""
    vec = [Fraction(x) for x in vector]
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [value // g for value in ints]
    if next((value for value in ints if value), 0) < 0:
        ints = [-value for value in ints]
    return ints
