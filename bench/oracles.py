"""Correctness checks of the library's outputs, computed apart from it.

Each check takes plain values (numbers, dicts, report text) and returns
a list of problems; an empty list means the output passed.  Nothing here
imports the library, so a fault in the library cannot also hide in the
check.  ``selftest.py`` feeds every check one corrupted output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

VERIFY_CHECK_IDS = frozenset({
    "stokes-closed", "stokes-bilinear", "integration-by-parts",
    "hodge-dimension-agreement", "hodge-scalar-dimensions", "hodge-star-duality", "hodge-kernel-span",
    "star-involution", "star-isometry", "star-laplacian-commutation",
    "theta-constant", "theta-cubic", "theta-fubini-study",
})

# P1 elements on a uniform mesh overestimate an eigenvalue by
# lambda^2 h^2 / 12 to leading order; 1/10 leaves room for the next term.
EIGEN_ERROR_CONSTANT = 0.1
# Resolution of an eigenvalue that should be exactly 0 (the constants).
EIGEN_ZERO_FLOOR = 1e-6
# Halving h must not raise an eigenvalue by more than this, relative.
MONOTONE_SLACK = 1e-9
ORDER_RANGE = (1.8, 2.2)
_PRIME = (1 << 61) - 1


def verify_report(text: str) -> list[str]:
    """A verify report lists all 13 check ids, each with status pass."""
    try:
        checks = json.loads(text)["checks"]
        status = {c["id"]: c["status"] for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if set(status) != VERIFY_CHECK_IDS or len(checks) != len(VERIFY_CHECK_IDS):
        problems.append(f"check ids {sorted(status)} differ from the 13 expected")
    problems += [f"{cid}: {s}" for cid, s in sorted(status.items()) if s != "pass"]
    return problems


def same_output(first, again) -> list[str]:
    """Two passes over the same input give identical output."""
    return [] if first == again else ["output differs from the first pass"]


def _rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over GF(p).  For integer rows, rank over Q is at least this."""
    rows = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], _PRIME - 2, _PRIME)
        top = [x * inv % _PRIME for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % _PRIME for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def flow_basis(edges, genus: int, vectors: list[dict]) -> list[str]:
    """A basis of integer Kirchhoff flows of the right size.

    ``edges`` is the benchmark's own (id, tail, head, finite) table;
    ``vectors`` maps edge ids to coefficients, absent ids meaning 0.
    """
    problems = []
    if len(vectors) != genus:
        problems.append(f"dimension {len(vectors)} != genus {genus}")
    finite = [eid for eid, _, _, fin in edges if fin]
    for k, vec in enumerate(vectors):
        if set(vec) - set(finite):
            problems.append(f"vector {k} has entries off the finite edges")
            continue
        if any(Fraction(c).denominator != 1 for c in vec.values()):
            problems.append(f"vector {k} is not integral")
            continue
        net = {}
        for eid, tail, head, _ in edges:
            c = int(Fraction(vec.get(eid, 0)))
            net[head] = net.get(head, 0) + c
            net[tail] = net.get(tail, 0) - c
        bad = sorted(v for v, total in net.items() if total)
        if bad:
            problems.append(f"vector {k} breaks Kirchhoff's law at {bad[:3]}")
    if not problems and vectors:
        rows = [[int(Fraction(vec.get(eid, 0))) for eid in finite] for vec in vectors]
        if _rank_mod_prime(rows) != len(vectors):
            problems.append("basis vectors are dependent")
    return problems


def cech_constants(genus: int, dims: tuple) -> list[str]:
    """Cech H^0, H^1 of the constants are (1, genus) on a connected graph."""
    return [] if tuple(dims) == (1, genus) else [f"constants H^0, H^1 = {tuple(dims)}, expected (1, {genus})"]


def cech_omega1(genus: int, c0: int, c1: int, dims: tuple) -> list[str]:
    """H^0 of closed (1,0) forms is the genus; H^0 - H^1 = dim C^0 - dim C^1."""
    problems = []
    if dims[0] != genus:
        problems.append(f"omega1 H^0 = {dims[0]}, expected {genus}")
    if dims[0] - dims[1] != c0 - c1:
        problems.append(f"omega1 Euler characteristic {dims[0] - dims[1]} != {c0} - {c1}")
    return problems


def kernel_dimension(expected: int, got) -> list[str]:
    return [] if got == expected else [f"kernel dimension {got}, expected {expected}"]


def eigenvalues(known: list[float], got: list[float], h: float, count: int) -> list[str]:
    """``count`` eigenvalues, each in [lambda - floor, lambda + C lambda^2 h^2 + floor]."""
    problems = []
    if len(got) != count:
        problems.append(f"{len(got)} eigenvalues, {count} asked for")
    for i, (lam, value) in enumerate(zip(known[:count], got)):
        lo = lam - EIGEN_ZERO_FLOOR
        hi = lam + EIGEN_ERROR_CONSTANT * lam * lam * h * h + EIGEN_ZERO_FLOOR
        if not lo <= value <= hi:
            problems.append(f"eigenvalue {i} = {value!r} outside [{lo!r}, {hi!r}] at h = {h!r}")
    return problems


def monotone(coarse: list[float], fine: list[float]) -> list[str]:
    """Conforming P1 spaces are nested when h halves, so no eigenvalue rises."""
    problems = [] if len(coarse) == len(fine) else [f"{len(coarse)} eigenvalues before refining, {len(fine)} after"]
    return problems + [
        f"eigenvalue {i} rose from {a!r} to {b!r} when h was refined"
        for i, (a, b) in enumerate(zip(coarse, fine))
        if b > a + MONOTONE_SLACK * max(1.0, abs(a))
    ]


def convergence_order(exact: float, ladder: list[tuple[float, float]]) -> list[str]:
    """Observed order log(e(h)/e(h')) / log(h/h') of each step lies near 2."""
    problems = []
    for (h1, v1), (h2, v2) in zip(ladder, ladder[1:]):
        e1, e2 = v1 - exact, v2 - exact
        if e1 <= 0 or e2 <= 0:
            problems.append(f"error {e1!r}, {e2!r} not positive at h = {h1!r}, {h2!r}")
            continue
        order = math.log(e1 / e2) / math.log(h1 / h2)
        if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            problems.append(f"observed order {order:.3f} between h = {h1!r} and {h2!r}")
    return problems


def degenerate_pair(a: float, b: float) -> list[str]:
    """lambda_1 = lambda_2 on a cycle, up to rounding."""
    return [] if abs(a - b) <= 1e-9 * max(1.0, abs(a)) else [f"pair {a!r}, {b!r} not degenerate"]
