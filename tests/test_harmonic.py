from fractions import Fraction

import numpy as np
import pytest

from trophodge import curves
from trophodge.curve import Edge, TropicalCurve, genus, incidence_matrix, reverse_edge
from trophodge.exact import integerize, nullspace, rank, rref
from trophodge.harmonic import betti, cech_cohomology, harmonic_basis
from trophodge.metric import KahlerForm, codifferential, hodge_star
from trophodge.superform import d_second, is_regular


# -- exact linear algebra ------------------------------------------------


def test_rref_and_rank():
    m = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_nullspace_brute_force_agreement():
    m = [[1, 1, 1], [-1, -1, -1]]
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in m)


def test_integerize():
    assert integerize([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert integerize([Fraction(-2), Fraction(4)]) == [1, -2]
    assert integerize([Fraction(0), Fraction(0)]) == [0, 0]


# -- harmonic bases ------------------------------------------------------


def test_triangle_unit_cycle_flow():
    tri = curves.triangle()
    basis = harmonic_basis(tri, None, (1, 0))
    assert basis.dimension == 1
    assert basis.provenance == "incidence-nullspace"
    assert basis.exact_coefficients[0] == {"ab": 1, "bc": 1, "ca": 1}
    assert is_regular(basis.forms[0], tri).passed


def test_star_has_no_harmonic_one_forms():
    basis = harmonic_basis(curves.star(3), None, (1, 0))
    assert basis.dimension == 0


def test_theta_graph_dimension_two():
    theta = curves.theta_graph()
    basis = harmonic_basis(theta, None, (1, 0))
    assert basis.dimension == 2
    # brute-force oracle: rational nullspace of the incidence matrix
    inc = incidence_matrix(theta)
    assert len(nullspace([list(r) for r in inc.matrix])) == 2
    for form in basis.forms:
        assert is_regular(form, theta).passed


def test_constants_and_weight_bases():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    b00 = harmonic_basis(tri, g, (0, 0))
    assert b00.dimension == 1 and b00.provenance == "constants"
    b11 = harmonic_basis(tri, g, (1, 1))
    assert b11.dimension == 1 and b11.provenance == "star-dual"
    xs = np.linspace(-1, 0, 5)
    assert np.allclose(b11.forms[0].coefficients["ab"](xs), 1.0)
    with pytest.raises(ValueError):
        harmonic_basis(tri, None, (1, 1))


def test_infinite_edges_forced_to_zero():
    legs = curves.triangle_with_legs()
    basis = harmonic_basis(legs, None, (1, 0))
    assert basis.dimension == 1
    coeffs = basis.exact_coefficients[0]
    assert coeffs.get("legA", 0) == 0 and coeffs.get("legB", 0) == 0
    assert is_regular(basis.forms[0], legs).passed


def test_basis_elements_are_harmonic():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    xs = np.linspace(-1, 0, 7)
    for form in harmonic_basis(theta, g, (1, 0)).forms:
        d = d_second(form)
        cd = codifferential(form, g)
        for e in ("e1", "e2", "e3"):
            assert np.allclose(d.coefficients[e](xs), 0.0)
            assert np.allclose(cd.coefficients[e](xs), 0.0)


def test_star_maps_bases_bijectively():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    b10 = harmonic_basis(theta, g, (1, 0))
    b01 = harmonic_basis(theta, g, (0, 1))
    assert b01.dimension == b10.dimension
    xs = np.linspace(-1, 0, 5)
    for f10, f01 in zip(b10.forms, b01.forms):
        starred = hodge_star(f10, g)
        for e in ("e1", "e2", "e3"):
            assert np.allclose(starred.coefficients[e](xs), f01.coefficients[e](xs))


def test_dimensions_invariant_under_reorientation_and_relabeling():
    theta = curves.theta_graph()
    assert harmonic_basis(reverse_edge(theta, "e2"), None, (1, 0)).dimension == 2
    relabeled = TropicalCurve(
        ("zz", "aa"),
        tuple(Edge(e.id, "zz" if e.tail == "U" else "aa", "aa" if e.head == "V" else "zz", e.length) for e in theta.edges),
    )
    assert harmonic_basis(relabeled, None, (1, 0)).dimension == 2


# -- Betti numbers and Cech ----------------------------------------------


@pytest.mark.parametrize(
    "factory,b1",
    [(curves.triangle, 1), (curves.theta_graph, 2), (curves.k4, 3), (curves.projective_line, 0)],
)
def test_betti_numbers(factory, b1):
    curve = factory()
    assert betti(curve, 0) == 1
    assert betti(curve, 1) == b1


def test_betti_counts_components_of_two_disjoint_triangles():
    edges = [("1", "A", "B"), ("2", "B", "C"), ("3", "C", "A"), ("4", "D", "E"), ("5", "E", "F"), ("6", "F", "D")]
    two = TropicalCurve(tuple("ABCDEF"), tuple(Edge(eid, t, h, 1.0) for eid, t, h in edges))
    assert (betti(two, 0), betti(two, 1)) == (2, 2)


@pytest.mark.parametrize(
    "factory,expected",
    [
        (curves.triangle, (1, 1)),
        (curves.theta_graph, (2, 1)),
        (curves.k4, (3, 1)),
        (curves.projective_line, (0, 1)),
        (curves.star, (0, 1)),
        (curves.triangle_with_legs, (1, 1)),
    ],
)
def test_cech_omega1_dimensions(factory, expected):
    assert cech_cohomology(factory(), "omega1") == expected


@pytest.mark.parametrize(
    "factory,expected",
    [
        (curves.triangle, (1, 1)),
        (curves.theta_graph, (1, 2)),
        (curves.projective_line, (1, 0)),
        (curves.star, (1, 0)),
    ],
)
def test_cech_constants_dimensions(factory, expected):
    assert cech_cohomology(factory(), "constants") == expected


def test_cech_on_rose_with_loops():
    rose = TropicalCurve(("O",), (Edge("l1", "O", "O", 1.0), Edge("l2", "O", "O", 1.0)))
    assert genus(rose) == 2
    assert cech_cohomology(rose, "constants") == (1, 2)
    assert cech_cohomology(rose, "omega1") == (2, 1)


def test_unknown_sheaf_rejected():
    with pytest.raises(ValueError):
        cech_cohomology(curves.triangle(), "bogus")


def test_four_computations_of_genus_agree():
    for factory in (curves.triangle, curves.theta_graph, curves.k4, curves.projective_line,
                    curves.star, curves.triangle_with_legs):
        curve = factory()
        n = genus(curve)
        assert betti(curve, 1) == n
        assert harmonic_basis(curve, None, (1, 0)).dimension == n
        assert cech_cohomology(curve, "omega1")[0] == n
