import json
import math

import pytest
from hypothesis import given, strategies as st

from trophodge import curves
from trophodge.curve import (
    CurveError,
    Edge,
    TropicalCurve,
    genus,
    incidence_matrix,
    parse_curve,
    parse_document,
    reverse_edge,
    serialize,
    validate,
)

TRIANGLE_DOC = json.dumps(
    {
        "vertices": ["A", "B", "C"],
        "edges": [
            {"id": "ab", "tail": "A", "head": "B", "length": 1},
            {"id": "bc", "tail": "B", "head": "C", "length": 1},
            {"id": "ca", "tail": "C", "head": "A", "length": 1},
        ],
    }
)


def test_parse_triangle():
    curve = parse_curve(TRIANGLE_DOC)
    assert len(curve.vertices) == 3
    assert len(curve.edges) == 3
    assert validate(curve).passed


def test_parse_projective_line_normalizes():
    doc = json.dumps(
        {
            "vertices": ["minus", "plus"],
            "edges": [{"id": "axis", "tail": "minus", "head": "plus", "length": "inf"}],
        }
    )
    curve = parse_curve(doc)
    assert len(curve.vertices) == 3
    assert len(curve.edges) == 2
    assert all(e.infinite for e in curve.edges)
    assert curve.normalizations and curve.normalizations[0]["edge"] == "axis"
    assert validate(curve).passed
    assert genus(curve) == 0


def test_finite_edge_at_degree_one_vertex_is_a_parse_error():
    doc = json.dumps(
        {
            "vertices": ["A", "B"],
            "edges": [{"id": "e", "tail": "A", "head": "B", "length": 2}],
        }
    )
    with pytest.raises(CurveError, match="not a compact connected tropical curve"):
        parse_curve(doc)
    # the lenient path still yields the diagnostic report
    report = validate(parse_curve(doc, strict=False))
    assert not report.passed
    failed = {c.condition for c in report.conditions if not c.passed}
    assert "3" in failed


def test_unknown_vertex_reference():
    doc = json.dumps({"vertices": ["A"], "edges": [{"id": "e", "tail": "A", "head": "Z", "length": 1}]})
    with pytest.raises(CurveError, match="unknown vertex"):
        parse_curve(doc)


def test_nonpositive_length():
    doc = json.dumps({"vertices": ["A", "B"], "edges": [{"id": "e", "tail": "A", "head": "B", "length": 0}]})
    with pytest.raises(CurveError, match="nonpositive"):
        parse_curve(doc)


def test_syntax_error_reports_position():
    with pytest.raises(json.JSONDecodeError) as err:
        parse_curve("{\"vertices\": [}")
    assert err.value.pos == 14


def test_disconnected_graph_fails():
    two = TropicalCurve(
        ("A", "B", "C", "D", "E", "F"),
        tuple(
            Edge(eid, t, h, 1.0)
            for eid, t, h in [
                ("1", "A", "B"), ("2", "B", "C"), ("3", "C", "A"),
                ("4", "D", "E"), ("5", "E", "F"), ("6", "F", "D"),
            ]
        ),
    )
    report = validate(two)
    assert not report.passed
    assert any(c.condition == "connected" and not c.passed for c in report.conditions)


def test_star_with_three_infinite_legs_passes():
    assert validate(curves.star(3)).passed


@pytest.mark.parametrize(
    "factory,expected",
    [(curves.triangle, 1), (curves.theta_graph, 2), (curves.k4, 3), (curves.projective_line, 0), (curves.star, 0)],
)
def test_genus_values(factory, expected):
    assert genus(factory()) == expected


def test_incidence_theta_graph():
    inc = incidence_matrix(curves.theta_graph())
    assert inc.vertex_ids == ("U", "V")
    assert inc.edge_ids == ("e1", "e2", "e3")
    assert inc.matrix == ((-1, -1, -1), (1, 1, 1))


def test_incidence_single_column_signs():
    # one finite edge inside a path of two vertices of degree >= 2
    curve = TropicalCurve(
        ("A", "B", "LA", "LB"),
        (
            Edge("e", "A", "B", 1.0),
            Edge("la", "LA", "A", math.inf),
            Edge("lb", "LB", "B", math.inf),
        ),
    )
    inc = incidence_matrix(curve)
    assert inc.column("e") == (-1, 1)  # rows sorted: A then B


def test_incidence_self_loop_cancels():
    rose = TropicalCurve(("O",), (Edge("loop", "O", "O", 1.0),))
    inc = incidence_matrix(rose)
    assert inc.column("loop") == (0,)
    assert validate(rose).passed
    assert genus(rose) == 1


def test_self_loops_are_flagged():
    rose = TropicalCurve(("O",), (Edge("loop", "O", "O", 1.0),))
    report = validate(rose)
    assert any(c.condition == "loops" for c in report.conditions)


def test_serialize_round_trip():
    curve = parse_curve(TRIANGLE_DOC)
    again = parse_curve(serialize(curve))
    assert again.vertices == tuple(sorted(curve.vertices))
    assert [(e.id, e.tail, e.head, e.length) for e in again.sorted_edges()] == [
        (e.id, e.tail, e.head, e.length) for e in curve.sorted_edges()
    ]
    assert serialize(again) == serialize(curve)


def test_serialize_keeps_kahler_key():
    doc = json.dumps(
        {
            "vertices": ["A", "B", "C"],
            "edges": [
                {"id": "ab", "tail": "A", "head": "B", "length": 1},
                {"id": "bc", "tail": "B", "head": "C", "length": 1},
                {"id": "ca", "tail": "C", "head": "A", "length": 1},
            ],
            "kahler": {"ab": {"kind": "constant", "value": 2.0}},
        }
    )
    curve, kahler = parse_document(doc)
    assert kahler == {"ab": {"kind": "constant", "value": 2.0}}
    assert json.loads(serialize(curve))["kahler"] == kahler


def test_reverse_edge_preserves_genus_and_rejects_infinite():
    tri = curves.triangle()
    flipped = reverse_edge(tri, "ab")
    assert genus(flipped) == genus(tri)
    assert flipped.edge("ab").tail == "B"
    with pytest.raises(CurveError):
        reverse_edge(curves.star(3), "leg1")


@st.composite
def cycle_with_chords(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [Edge(f"c{i}", vertices[i], vertices[(i + 1) % n], 1.0) for i in range(n)]
    for j, (a, b) in enumerate(chords):
        edges.append(Edge(f"x{j}", vertices[a], vertices[b], 1.0))
    return TropicalCurve(vertices, tuple(edges))


@given(cycle_with_chords(), st.data())
def test_genus_is_orientation_invariant(curve, data):
    edge_id = data.draw(st.sampled_from([e.id for e in curve.edges]))
    assert genus(reverse_edge(curve, edge_id)) == genus(curve)
    assert genus(curve) == len(curve.edges) - len(curve.vertices) + 1


@given(cycle_with_chords())
def test_edge_ends_match_a_scan_of_the_edges(curve):
    for v in curve.vertices:
        scanned = []
        for e in sorted(curve.edges, key=lambda e: e.id):
            if e.head == v:
                scanned.append((e, "head"))
            if e.tail == v:
                scanned.append((e, "tail"))
        assert curve.edge_ends_at(v) == scanned
        assert curve.degree(v) == len(scanned)
