"""Compact connected tropical curves as metric graphs.

A curve is a finite connected metric graph whose edges carry a positive
length or ``+inf``.  Every edge has a canonical chart: a finite edge of
length ``l`` is the interval ``[-l, 0]`` with the head vertex at ``0``;
an infinite edge is ``[-inf, 0]`` with its degree-one vertex at ``-inf``
(always the tail).  An input edge isometric to ``[-inf, +inf]`` is split
at coordinate 0 into two infinite edges joined by a fresh degree-two
vertex, so the canonical charts cover every case downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "Edge",
    "TropicalCurve",
    "ValidationReport",
    "ConditionCheck",
    "CurveError",
    "parse_curve",
    "parse_document",
    "serialize",
    "validate",
    "genus",
    "incidence_matrix",
    "IncidenceMatrix",
    "reverse_edge",
]

INF = math.inf


class CurveError(ValueError):
    """Malformed curve document or reference."""


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: float  # positive real or +inf

    @property
    def infinite(self) -> bool:
        return math.isinf(self.length)

    @property
    def chart(self) -> tuple[float, float]:
        return (-self.length, 0.0)


@dataclass(frozen=True)
class TropicalCurve:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    normalizations: tuple[dict, ...] = ()
    kahler_spec: dict | None = None
    _edge_index: dict = field(init=False, repr=False, compare=False, default=None)
    _ends: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_edge_index", {e.id: e for e in self.edges})
        if len(self._edge_index) != len(self.edges):
            raise CurveError("duplicate edge ids")
        if len(set(self.vertices)) != len(self.vertices):
            raise CurveError("duplicate vertex ids")
        known = set(self.vertices)
        for e in self.edges:
            for v in (e.tail, e.head):
                if v not in known:
                    raise CurveError(f"edge {e.id!r} references unknown vertex {v!r}")
        ends: dict[str, list] = {v: [] for v in self.vertices}
        for e in self.sorted_edges():
            ends[e.head].append((e, "head"))
            ends[e.tail].append((e, "tail"))
        object.__setattr__(self, "_ends", ends)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_index[edge_id]
        except KeyError:
            raise CurveError(f"unknown edge {edge_id!r}") from None

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: e.id)

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def degree(self, vertex: str) -> int:
        return len(self._ends.get(vertex, ()))

    def edge_ends_at(self, vertex: str) -> list[tuple[Edge, str]]:
        """Edge-ends incident to ``vertex`` as (edge, 'head'|'tail') pairs.

        A self-loop contributes two ends.  Order is deterministic:
        sorted edge id, then head before tail.
        """
        return list(self._ends.get(vertex, ()))

    def finite_edges(self) -> list[Edge]:
        return [e for e in self.sorted_edges() if not e.infinite]

    def infinite_edges(self) -> list[Edge]:
        return [e for e in self.sorted_edges() if e.infinite]

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        neighbors: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            neighbors[e.tail].add(e.head)
            neighbors[e.head].add(e.tail)
        while frontier:
            v = frontier.pop()
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    conditions: tuple[ConditionCheck, ...]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"condition": c.condition, "passed": c.passed, "detail": c.detail}
                for c in self.conditions
            ],
        }


def _parse_length(raw, edge_id: str) -> float:
    if raw == "inf":
        return INF
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise CurveError(f"edge {edge_id!r}: length must be a positive number or \"inf\"")
    length = float(raw)
    if not length > 0 or math.isnan(length):
        raise CurveError(f"edge {edge_id!r}: nonpositive length {raw!r}")
    return length


def parse_document(text: str, strict: bool = True) -> tuple[TropicalCurve, dict | None]:
    """Parse a curve-spec JSON document; returns (curve, kahler spec or None).

    Syntax errors report their position (via json), unknown vertex
    references and nonpositive lengths raise CurveError.  With
    ``strict`` (the default) a document that violates the defining
    conditions after normalization, e.g. a finite edge ending at a
    degree-one vertex, is rejected too; pass ``strict=False`` to obtain
    the curve for diagnostic validation.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise CurveError("curve document must be a JSON object")
    vertices = doc.get("vertices")
    edges_raw = doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise CurveError('"vertices" must be an array of strings')
    if not isinstance(edges_raw, list):
        raise CurveError('"edges" must be an array')

    edges = []
    for item in edges_raw:
        if not isinstance(item, dict):
            raise CurveError("each edge must be an object")
        try:
            eid, tail, head = item["id"], item["tail"], item["head"]
        except KeyError as exc:
            raise CurveError(f"edge is missing key {exc}") from None
        length = _parse_length(item.get("length"), eid)
        for v in (tail, head):
            if v not in vertices:
                raise CurveError(f"edge {eid!r} references unknown vertex {v!r}")
        edges.append(Edge(eid, tail, head, length))

    vertices, edges, normalizations = _normalize_biinfinite(list(vertices), edges)
    kahler = doc.get("kahler")
    curve = TropicalCurve(tuple(vertices), tuple(edges), tuple(normalizations), kahler)
    if strict:
        report = validate(curve)
        if not report.passed:
            failures = "; ".join(c.detail for c in report.conditions if not c.passed)
            raise CurveError(f"not a compact connected tropical curve: {failures}")
    return curve, kahler


def parse_curve(text: str, strict: bool = True) -> TropicalCurve:
    return parse_document(text, strict)[0]


def _normalize_biinfinite(vertices: list[str], edges: list[Edge]):
    """Split every infinite edge whose two endpoints both have degree one.

    Such an edge is isometric to ``[-inf, +inf]``; it becomes two infinite
    edges meeting at a fresh degree-two vertex placed at coordinate 0.
    Kirchhoff's law at the fresh vertex then encodes smooth continuation
    across the seam.
    """
    degree: dict[str, int] = {v: 0 for v in vertices}
    for e in edges:
        degree[e.tail] += 1
        degree[e.head] += 1

    out = []
    normalizations = []
    for e in edges:
        if e.infinite and degree[e.tail] == 1 and degree[e.head] == 1:
            mid = f"{e.id}:mid"
            left = Edge(f"{e.id}:left", e.tail, mid, INF)
            right = Edge(f"{e.id}:right", e.head, mid, INF)
            vertices.append(mid)
            out.extend([left, right])
            normalizations.append(
                {"edge": e.id, "vertex": mid, "left": left.id, "right": right.id}
            )
        else:
            out.append(e)
    return vertices, out, normalizations


def serialize(curve: TropicalCurve) -> str:
    """Emit the curve-spec JSON with sorted keys (inverse of parse on canonical curves)."""
    doc = {
        "vertices": curve.sorted_vertices(),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "length": "inf" if e.infinite else e.length,
            }
            for e in curve.sorted_edges()
        ],
    }
    if curve.kahler_spec is not None:
        doc["kahler"] = curve.kahler_spec
    return json.dumps(doc, sort_keys=True, indent=2)


def validate(curve: TropicalCurve) -> ValidationReport:
    """Check the six defining conditions of a compact connected tropical curve."""
    checks = []
    degree = {v: curve.degree(v) for v in curve.vertices}

    ok = bool(curve.vertices) and bool(curve.edges)
    checks.append(
        ConditionCheck(
            "1",
            ok,
            f"vertex and edge sets nonempty and finite (|V|={len(curve.vertices)}, |E|={len(curve.edges)})",
        )
    )

    bad = [e.id for e in curve.edges if not (e.length > 0)]
    checks.append(
        ConditionCheck(
            "2",
            not bad,
            "every length is a positive real or +inf" if not bad else f"nonpositive lengths on {bad}",
        )
    )

    bad3 = []
    for e in curve.edges:
        touches_leaf = degree[e.tail] == 1 or degree[e.head] == 1
        if e.infinite != touches_leaf:
            bad3.append(e.id)
    checks.append(
        ConditionCheck(
            "3",
            not bad3,
            "length is +inf exactly on edges incident to a degree-one vertex"
            if not bad3
            else f"violated by edges {bad3}",
        )
    )

    checks.append(
        ConditionCheck(
            "4",
            True,
            "finite edges carry the canonical chart [-l(e), 0] with the head at 0",
        )
    )

    bad5 = [
        e.id
        for e in curve.infinite_edges()
        if not (degree[e.tail] == 1 and degree[e.head] >= 2)
    ]
    # An edge meeting two degree-one vertices is condition 6 territory, not 5.
    bad5 = [
        eid
        for eid in bad5
        if not (degree[curve.edge(eid).tail] == 1 and degree[curve.edge(eid).head] == 1)
    ]
    checks.append(
        ConditionCheck(
            "5",
            not bad5,
            "every infinite edge has its degree-one vertex at the tail (chart [-inf, 0])"
            if not bad5
            else f"violated by edges {bad5}",
        )
    )

    bad6 = [
        e.id for e in curve.edges if degree[e.tail] == 1 and degree[e.head] == 1
    ]
    detail6 = "no edge joins two degree-one vertices"
    if curve.normalizations:
        detail6 += f" (inputs isometric to [-inf,+inf] were split: {[n['edge'] for n in curve.normalizations]})"
    checks.append(
        ConditionCheck("6", not bad6, detail6 if not bad6 else f"violated by edges {bad6}")
    )

    connected = curve.is_connected()
    checks.append(
        ConditionCheck(
            "connected",
            connected,
            "graph is connected" if connected else "graph is not connected",
        )
    )

    loops = [e.id for e in curve.edges if e.tail == e.head]
    if loops:
        checks.append(
            ConditionCheck(
                "loops",
                True,
                f"self-loops permitted and present: {sorted(loops)}",
            )
        )

    return ValidationReport(all(c.passed for c in checks), tuple(checks))


def genus(curve: TropicalCurve) -> int:
    """First Betti number |E| - |V| + 1 of the (connected) underlying graph."""
    return len(curve.edges) - len(curve.vertices) + 1


@dataclass(frozen=True)
class IncidenceMatrix:
    """Signed vertex/edge incidence restricted to vertices of degree >= 2.

    Entry (v, e) sums +1 per edge-end with head v and -1 per end with
    tail v, so a self-loop contributes 0.  Rows and columns follow sorted
    vertex and edge ids; the rows are exactly the Kirchhoff constraints
    for edge-constant (1,0) coefficients in canonical charts.
    """

    matrix: tuple[tuple[int, ...], ...]
    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]

    def column(self, edge_id: str) -> tuple[int, ...]:
        j = self.edge_ids.index(edge_id)
        return tuple(row[j] for row in self.matrix)


def incidence_matrix(curve: TropicalCurve) -> IncidenceMatrix:
    rows = [v for v in curve.sorted_vertices() if curve.degree(v) >= 2]
    cols = [e.id for e in curve.sorted_edges()]
    col_of = {eid: j for j, eid in enumerate(cols)}
    matrix = []
    for v in rows:
        row = [0] * len(cols)
        for e, side in curve.edge_ends_at(v):
            row[col_of[e.id]] += 1 if side == "head" else -1
        matrix.append(tuple(row))
    return IncidenceMatrix(tuple(matrix), tuple(rows), tuple(cols))


def reverse_edge(curve: TropicalCurve, edge_id: str) -> TropicalCurve:
    """Flip the orientation of one finite edge (tail and head swap).

    Infinite edges keep their canonical orientation (tail at -inf), so
    reversing one is an error.
    """
    e = curve.edge(edge_id)
    if e.infinite:
        raise CurveError(f"cannot reverse infinite edge {edge_id!r}")
    flipped = Edge(e.id, e.head, e.tail, e.length)
    edges = tuple(flipped if f.id == edge_id else f for f in curve.edges)
    return TropicalCurve(curve.vertices, edges, curve.normalizations, curve.kahler_spec)
