"""Curve documents for the benchmark, generated without the library.

Every generator returns a ``Case``: the curve-spec document the library
parses, plus the values the benchmark derives on its own to check the
library's outputs: the genus E - V + 1, the dimensions of the Cech
complex of the closed-(1,0) sheaf from vertex degrees, the oriented edge
table the Kirchhoff check uses, and the known eigenvalues where they
exist.  The seed only reaches the documents through ``random.Random``,
so one seed always gives the same documents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

INF = "inf"
# Weight of the Fubini-Study form in the canonical chart of a leg.
FUBINI_STUDY = "2*exp(2*x)/(1+exp(2*x))^2"


@dataclass
class Case:
    name: str
    doc: dict
    genus: int
    cech_c0: int  # sum over vertices of degree >= 2 of (degree - 1)
    cech_c1: int  # number of edges
    edges: list  # (id, tail, head, finite) after the library's normalisation
    eigenvalues: list = field(default_factory=list)  # known (0,0) spectrum, ascending
    verify_seed: int = 0
    expected_failure: bool = False  # verify fails on it today because of a known fault


def _edge(eid, tail, head, length):
    return {"id": eid, "tail": tail, "head": head, "length": length}


def case(name, vertices, edges, kahler=None, eigenvalues=(), verify_seed=0) -> Case:
    doc = {"vertices": list(vertices), "edges": list(edges)}
    if kahler:
        doc["kahler"] = kahler
    degree = {v: 0 for v in vertices}
    for e in edges:
        degree[e["tail"]] += 1
        degree[e["head"]] += 1
    table = []
    n_vertices = len(vertices)
    for e in edges:
        finite = e["length"] != INF
        if not finite and degree[e["tail"]] == 1 and degree[e["head"]] == 1:
            # a line [-inf, inf]: two legs meeting at a new degree-two vertex
            mid = e["id"] + ":mid"
            table += [(e["id"] + ":left", e["tail"], mid, False), (e["id"] + ":right", e["head"], mid, False)]
            degree[mid] = 2
            n_vertices += 1
        else:
            table.append((e["id"], e["tail"], e["head"], finite))
    c0 = sum(d - 1 for d in degree.values() if d >= 2)
    genus = len(table) - n_vertices + 1
    return Case(name, doc, genus, c0, len(table), table, list(eigenvalues), verify_seed)


# -- the gallery ---------------------------------------------------------

def triangle(lengths=(1, 1, 1), name="triangle") -> Case:
    a, b, c = lengths
    edges = [_edge("ab", "A", "B", a), _edge("bc", "B", "C", b), _edge("ca", "C", "A", c)]
    return case(name, "ABC", edges, eigenvalues=cycle_eigenvalues(a + b + c, 6))


def theta_graph() -> Case:
    return case("theta_graph", ("U", "V"), [_edge(f"e{i}", "U", "V", 1) for i in (1, 2, 3)])


def k4() -> Case:
    names = "PQRS"
    edges = [_edge((a + b).lower(), a, b, 1) for i, a in enumerate(names) for b in names[i + 1:]]
    return case("k4", names, edges)


def projective_line() -> Case:
    return case("projective_line", ("L", "R"), [_edge("axis", "L", "R", INF)],
                eigenvalues=fubini_study_eigenvalues(2))


def star(k: int, kahler=None, name=None) -> Case:
    vertices = ["O"] + [f"L{i}" for i in range(1, k + 1)]
    edges = [_edge(f"leg{i}", f"L{i}", "O", INF) for i in range(1, k + 1)]
    return case(name or f"star{k}", vertices, edges, kahler,
                eigenvalues=() if kahler else fubini_study_eigenvalues(k))


def triangle_with_legs(lengths=(1, 1, 1), kahler=None, name="triangle_with_legs") -> Case:
    a, b, c = lengths
    edges = [
        _edge("ab", "A", "B", a), _edge("bc", "B", "C", b), _edge("ca", "C", "A", c),
        _edge("legA", "LA", "A", INF), _edge("legB", "LB", "B", INF),
    ]
    return case(name, ("A", "B", "C", "LA", "LB"), edges, kahler)


def gallery() -> list[Case]:
    return [triangle(), theta_graph(), k4(), projective_line(), star(3), triangle_with_legs()]


# -- known spectra -------------------------------------------------------

def cycle_eigenvalues(perimeter: float, count: int) -> list[float]:
    """Laplacian spectrum of a cycle with weight 1: 0, then (2 pi j / L)^2 twice each."""
    out = [0.0]
    j = 1
    while len(out) < count:
        lam = (2 * math.pi * j / perimeter) ** 2
        out += [lam, lam]
        j += 1
    return out[:count]


def fubini_study_eigenvalues(legs: int, count: int = 8) -> list[float]:
    """Start of the (0,0) spectrum of a star with Fubini-Study legs.

    Each leg is a half of the projective line in the coordinate
    x = log|z|, on which the Laplacian's radial eigenfunctions are the
    Legendre functions P_l with eigenvalue 2 l (l + 1).  At the centre an
    even P_l has zero slope, so continuity leaves one copy on the star; an
    odd P_l vanishes there, so Kirchhoff's law leaves legs - 1 copies.
    That gives 0, 4 (legs - 1 times), 12, 24 (legs - 1 times), ...
    """
    out = []
    l = 0
    while len(out) < count:
        out += [2.0 * l * (l + 1)] * (1 if l % 2 == 0 else legs - 1)
        l += 1
    return out[:count]


# -- the seeded expr-weight family ---------------------------------------

def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _fs_scaled(rng: random.Random) -> dict:
    return {"kind": "expr", "formula": f"{_draw(rng, 0.5, 2.0)}*{FUBINI_STUDY}"}


def expr_family(seed: int) -> list[Case]:
    """Documents with expr Kahler weights on finite edges and on legs.

    Finite edges get exponential or polynomial weights; legs get a scaled
    Fubini-Study weight.  Legs with another decay rate are left out: at a
    rate of 1.5 ``verify`` finds no kernel gap (see CHANGES.md).
    """
    rng = random.Random(f"expr-family/{seed}")
    out = []
    for copy in (1, 2):
        theta = theta_graph()
        kahler = {f"e{i}": {"kind": "expr", "formula": f"{_draw(rng, 0.5, 2.0)}*exp({_draw(rng, -1.0, 1.0)}*x)"}
                  for i in (1, 2, 3)}
        out.append(case(f"theta_expr{copy}", theta.doc["vertices"], theta.doc["edges"], kahler,
                        verify_seed=rng.randrange(10**6)))
        kahler = {eid: {"kind": "expr", "formula": f"{_draw(rng, 0.5, 2.0)}+{_draw(rng, 0.0, 1.0)}*x^2"}
                  for eid in ("ab", "bc", "ca")}
        kahler.update({eid: _fs_scaled(rng) for eid in ("legA", "legB")})
        out.append(triangle_with_legs(kahler=kahler, name=f"triangle_with_legs_expr{copy}"))
        out[-1].verify_seed = rng.randrange(10**6)
        out.append(star(3, {f"leg{i}": _fs_scaled(rng) for i in (1, 2, 3)}, name=f"star3_expr{copy}"))
        out[-1].verify_seed = rng.randrange(10**6)
    return out


def failing_documents() -> list[Case]:
    """Two documents whose Kahler weights pass validation but make verify fail.

    They do not depend on the seed, so the share of failed operations is
    the same in every run.
    """
    steep = triangle_with_legs(kahler={"legB": {"kind": "expr", "formula": "3*exp(3*x)"}},
                               name="triangle_with_legs_steep_legB")
    narrow = star(4, {"leg1": {"kind": "expr", "formula": "4*exp(4*x)/(1+exp(4*x))^2"}},
                  name="star4_narrow_leg1")
    for case in (steep, narrow):
        case.expected_failure = True
    return [steep, narrow]


# -- families for exact algebra and the mesh ladder ----------------------

def _lengths(rng: random.Random, count: int, choices) -> list:
    """A seeded permutation of a fixed multiset of lengths, so the total
    length (and with it the mesh size) does not depend on the seed."""
    pool = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(pool)
    return pool


def grid(n: int, legs: int, seed: int, length_choices=(1, 2, 3)) -> Case:
    """The n x n lattice with seeded orientations and lengths, plus legs.

    Legs hang from seeded distinct lattice vertices.
    """
    rng = random.Random(f"grid/{n}/{legs}/{seed}")
    vertices = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                pairs.append((f"h{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}"))
            if j + 1 < n:
                pairs.append((f"w{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}"))
    lengths = _lengths(rng, len(pairs), length_choices)
    edges = []
    for (eid, a, b), length in zip(pairs, lengths):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(_edge(eid, a, b, length))
    for k, v in enumerate(rng.sample(vertices, legs)):
        vertices.append(f"leaf{k}")
        edges.append(_edge(f"leg{k}", f"leaf{k}", v, INF))
    name = f"grid{n}" + (f"+{legs}legs" if legs else "")
    return case(name, vertices, edges)


def cycle(n: int, legs: int, seed: int, length_choices=(1, 2, 3)) -> Case:
    """A cycle of n edges with seeded orientations and lengths, plus legs."""
    rng = random.Random(f"cycle/{n}/{legs}/{seed}")
    vertices = [f"c{i}" for i in range(n)]
    lengths = _lengths(rng, n, length_choices)
    edges = []
    for i, length in enumerate(lengths):
        a, b = f"c{i}", f"c{(i + 1) % n}"
        if rng.random() < 0.5:
            a, b = b, a
        edges.append(_edge(f"e{i}", a, b, length))
    for k, v in enumerate(rng.sample(vertices, legs)):
        vertices.append(f"leaf{k}")
        edges.append(_edge(f"leg{k}", f"leaf{k}", v, INF))
    name = f"cycle{n}" + (f"+{legs}legs" if legs else "")
    return case(name, vertices, edges)


def split_perimeter(seed: int, perimeter_steps: int = 96, step: float = 1 / 32) -> tuple:
    """Three seeded edge lengths, multiples of ``step``, with a fixed sum.

    With every length a multiple of the coarsest mesh step, each mesh of
    the ladder is uniform, so the P1 error is the textbook lambda^2 h^2/12.
    """
    rng = random.Random(f"perimeter/{seed}")
    a = rng.randint(24, 40)
    b = rng.randint(24, 40)
    return (a * step, b * step, (perimeter_steps - a - b) * step)
