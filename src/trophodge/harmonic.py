"""Exact harmonic superform bases and the Cech dimension oracle.

The harmonic (1,0) space of a curve consists of the edge-constant
Kirchhoff flows that vanish on infinite edges: on an infinite edge a
d''-closed coefficient is constant, regularity at infinity forces it to
vanish near -inf, and square-integrability rules out any other constant.
So the basis is the rational nullspace of the incidence matrix
restricted to finite-edge columns, kept as integer flows; Superforms are
built from them only when HarmonicBasis.forms is read.  The (0,0) space
is the constants, and the Hodge star carries both to the complementary
bidegrees: the (0,1) basis is the starred (1,0) basis, with the same
flows, and the (1,1) space is spanned by the Kahler form itself.

cech_cohomology assembles the finite Cech complex of the vertex-star
cover.  For the locally constant sheaf a star section is one real and
an edge overlap is one real.  For the sheaf of closed (1,0) forms a
star section at a junction of the curve is a tuple of constants over
its edge-germs subject to Kirchhoff's law, a star at a
degree-one vertex admits only zero (regularity at infinity), and an
edge overlap is again one real.  A graph star cover has no triple
overlaps, so the complex stops at C^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import TropicalCurve, incidence_matrix
from .exact import integerize, nullspace, rank
from .metric import KahlerForm
from .superform import Bidegree, Superform

__all__ = ["HarmonicBasis", "harmonic_basis", "betti", "cech_cohomology"]


@dataclass(frozen=True)
class HarmonicBasis:
    """Exact per-edge constants of a harmonic basis; forms builds its Superforms on each read."""

    bidegree: Bidegree
    exact_coefficients: tuple[dict, ...] | None  # {edge id: Fraction} per element, 0 where absent
    provenance: str
    curve: TropicalCurve
    g: KahlerForm | None = None  # (1,1) only, whose one element is the Kahler form

    @property
    def dimension(self) -> int:
        return 1 if self.exact_coefficients is None else len(self.exact_coefficients)

    @property
    def forms(self) -> tuple[Superform, ...]:
        if self.exact_coefficients is None:
            return (self.g.as_superform(),)
        return tuple(Superform.on_curve(self.curve, self.bidegree, c) for c in self.exact_coefficients)

    def as_dict(self) -> dict:
        if self.exact_coefficients is None:
            elements = [{"kahler-form": "1"}]
        else:
            elements = [
                {eid: str(c) for eid, c in sorted(coeffs.items())}
                for coeffs in self.exact_coefficients
            ]
        return {
            "bidegree": list(self.bidegree.as_tuple()),
            "dimension": self.dimension,
            "provenance": self.provenance,
            "elements": elements,
        }


def _flow_basis(curve: TropicalCurve) -> list[dict]:
    """Integer Kirchhoff flows spanning the cycle space of the finite part."""
    inc = incidence_matrix(curve)
    finite_ids = [e.id for e in curve.finite_edges()]
    finite_cols = [inc.edge_ids.index(eid) for eid in finite_ids]
    restricted = [[row[j] for j in finite_cols] for row in inc.matrix]
    kernel = nullspace(restricted, n_cols=len(finite_ids))
    return [{eid: Fraction(c) for eid, c in zip(finite_ids, integerize(vec))} for vec in kernel]


def harmonic_basis(curve: TropicalCurve, g: KahlerForm | None, bidegree) -> HarmonicBasis:
    """Exact basis of the harmonic space of one bidegree.

    g is only consulted for bidegree (1,1), whose single basis element
    is the Kahler form.
    """
    bd = Bidegree.of(bidegree)
    if bd.as_tuple() == (0, 0):
        coeffs = {e.id: Fraction(1) for e in curve.sorted_edges()}
        return HarmonicBasis(bd, (coeffs,), "constants", curve)
    if bd.as_tuple() in ((1, 0), (0, 1)):
        # (0,1) is the star of the (1,0) basis: f d'x -> f d''x, coefficients unchanged
        provenance = "incidence-nullspace" if bd.as_tuple() == (1, 0) else "star-dual"
        return HarmonicBasis(bd, tuple(_flow_basis(curve)), provenance, curve)
    if g is None:
        raise ValueError("the (1,1) harmonic basis is the Kahler form; pass g")
    return HarmonicBasis(bd, None, "star-dual", curve, g)


def betti(curve: TropicalCurve, q: int) -> int:
    """Topological Betti numbers of the underlying graph, from its components."""
    if q == 0:
        return _component_count(curve)
    if q == 1:
        return len(curve.edges) - len(curve.vertices) + _component_count(curve)
    raise ValueError("a graph has cohomology only in degrees 0 and 1")


def _component_count(curve: TropicalCurve) -> int:
    parent = {v: v for v in curve.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in curve.edges:
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
    return len({find(v) for v in curve.vertices})


def cech_cohomology(curve: TropicalCurve, sheaf: str) -> tuple[int, int]:
    """(dim H^0, dim H^1) of the star-cover Cech complex of a sheaf.

    sheaf is "constants" for locally constant functions or "omega1" for
    d''-closed (1,0) forms.
    """
    if sheaf == "constants":
        return _cech_constants(curve)
    if sheaf == "omega1":
        return _cech_omega1(curve)
    raise ValueError(f"unknown sheaf {sheaf!r}")


def _cech_constants(curve: TropicalCurve) -> tuple[int, int]:
    vertices = curve.sorted_vertices()
    v_index = {v: j for j, v in enumerate(vertices)}
    edges = curve.sorted_edges()
    delta = []
    for e in edges:
        row = [0] * len(vertices)
        row[v_index[e.head]] += 1
        row[v_index[e.tail]] -= 1
        delta.append(row)
    r = rank(delta)
    h0 = len(vertices) - r
    h1 = len(edges) - r
    return h0, h1


def _cech_omega1(curve: TropicalCurve) -> tuple[int, int]:
    # C^0 coordinates: a basis of each star's Kirchhoff tuples.  At a
    # junction with ends (t_1, ..., t_d) the basis is t_i - t_d for
    # i < d; degree-one stars contribute nothing.
    ends_at = dict(curve.junctions())
    columns = []  # (vertex, local basis index)
    for v, ends in ends_at.items():
        for i in range(len(ends) - 1):
            columns.append((v, i))

    edges = curve.sorted_edges()
    edge_row = {e.id: j for j, e in enumerate(edges)}
    delta = [[0] * len(columns) for _ in edges]

    for col, (v, i) in enumerate(columns):
        ends = ends_at[v]
        d = len(ends)
        # star section with vertex-local end values: +1 on end i, -1 on end d-1
        for end_index, value in ((i, 1), (d - 1, -1)):
            e = ends[end_index][0]
            # restriction to the edge overlap, written in the canonical
            # chart: +value from a head end, -value from a tail end; the
            # Cech sign is + for the head star and - for the tail star,
            # so both contributions enter the edge row as +value, and
            # the side of the end does not matter.
            delta[edge_row[e.id]][col] += value

    dim_c0 = len(columns)
    dim_c1 = len(edges)
    r = rank(delta)
    return dim_c0 - r, dim_c1 - r
