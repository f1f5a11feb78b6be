import math

import numpy as np
import pytest

from trophodge import curves
from trophodge.metric import (
    FUBINI_STUDY_SOURCE,
    KahlerError,
    KahlerForm,
    codifferential,
    hodge_star,
    inner_product,
    integrate,
    laplacian,
    validate_kahler,
)
from trophodge.superform import Superform, d_second, wedge

TRI = curves.triangle()
TP1 = curves.projective_line()
G1 = KahlerForm.constant(TRI, 1.0)
GFS = KahlerForm.fubini_study(TP1)


def grid(lo=-1.0, hi=0.0, n=9):
    return np.linspace(lo, hi, n)


def coeff(form, edge, xs):
    return np.asarray(form.coefficients[edge](xs), dtype=float)


# -- Kahler validation ------------------------------------------------


def test_constant_weight_on_triangle_passes_with_mass_three():
    report = validate_kahler(TRI, G1)
    assert report.passed
    assert report.total_mass == pytest.approx(3.0, abs=1e-12)


def test_fubini_study_weight_on_infinite_edge():
    report = validate_kahler(TP1, GFS)
    assert report.passed
    # each edge holds half of the total unit mass
    assert report.edge_mass["left"] == pytest.approx(0.5, abs=1e-10)
    assert report.second_moments["left"] == pytest.approx(math.pi**2 / 24.0, abs=1e-9)


def test_constant_weight_on_infinite_edge_diverges():
    bad = KahlerForm.constant(TP1, 1.0)
    report = validate_kahler(TP1, bad)
    assert not report.passed
    assert any("mass" == name and not ok for _, name, ok, _ in report.entries)
    with pytest.raises(KahlerError):
        KahlerForm.validated(TP1, {"left": {"kind": "constant", "value": 1.0},
                                   "right": {"kind": "constant", "value": 1.0}})


def test_nonpositive_weight_detected():
    shifted = KahlerForm.from_spec(TRI, {"ab": {"kind": "expr", "formula": "x+0.25"}})
    report = validate_kahler(TRI, shifted)
    assert not report.passed
    assert any(name == "positivity" and not ok for _, name, ok, _ in report.entries)


def test_kahler_key_of_a_split_edge_names_its_halves():
    # the projective line is the bi-infinite edge "axis" split at its midpoint
    with pytest.raises(KahlerError, match="'left' and 'right'"):
        KahlerForm.from_spec(TP1, {"axis": {"kind": "fubini-study"}})
    with pytest.raises(KahlerError, match="names no edge"):
        KahlerForm.from_spec(TRI, {"abx": {"kind": "constant", "value": 2.0}})


# -- tropical integration ---------------------------------------------


def test_integrate_constant_on_finite_edge():
    curve = curves.triangle(2.0)
    form = Superform.on_curve(curve, (1, 1), {"ab": 1})
    assert integrate(curve, form) == pytest.approx(2.0, abs=1e-12)


def test_integrate_fubini_study_over_projective_line():
    form = Superform.on_curve(TP1, (1, 1), {"left": FUBINI_STUDY_SOURCE, "right": FUBINI_STUDY_SOURCE})
    assert integrate(TP1, form) == pytest.approx(1.0, abs=1e-9)


def test_integrate_zero_form():
    form = Superform.on_curve(TRI, (1, 1), {})
    assert integrate(TRI, form) == 0.0


@pytest.mark.parametrize("walk_cells", [512, 2])
def test_integrate_many_forms_equals_one_at_a_time_bitwise(monkeypatch, walk_cells):
    from trophodge import quadrature
    from trophodge.quadrature import DivergenceError

    # 512: a walk reads a few of the forms' coefficients, 2: one at a time
    monkeypatch.setattr(quadrature, "WALK_CELLS", walk_cells)
    curve = curves.triangle_with_legs()
    forms = [Superform.on_curve(curve, (1, 1), coeffs) for coeffs in (
        {"ab": "x^2", "legA": "exp(x)"},
        {"bc": "exp(x)", "legB": "1"},  # a constant diverges on the leg; its value on bc is dropped
        {"bc": "exp(x)", "legB": "x*exp(2*x)", "legA": "exp(0.8*x)"},  # exp(0.8 x) refines to level 9
        {},
        {"ca": FUBINI_STUDY_SOURCE, "legA": FUBINI_STUDY_SOURCE},
    )]
    values = integrate(curve, iter(forms))
    assert [v for i, v in enumerate(values) if i != 1] == [integrate(curve, f) for i, f in enumerate(forms) if i != 1]
    with pytest.raises(DivergenceError) as alone:
        integrate(curve, forms[1])
    assert isinstance(values[1], DivergenceError) and str(values[1]) == str(alone.value)


def test_integrate_family_is_its_rows_with_a_divergent_row_apart():
    # rows 0 and 2 are forms of the test above; row 1 is constant on legB, which diverges
    from trophodge.quadrature import DivergenceError
    from trophodge.superform import EdgeFunction

    curve = curves.triangle_with_legs()
    column = lambda *v: np.array(v, dtype=float)[:, None]
    fs = EdgeFunction.from_expression(FUBINI_STUDY_SOURCE)
    family = Superform.on_curve(curve, (1, 1), {
        "ab": EdgeFunction.polynomial([0.0, 0.0, column(1.0, 1.0, 0.0)]),  # x^2, x^2, 0
        "legA": fs.scale(column(0.0, 0.0, 1.0)),
        "legB": EdgeFunction.constant(column(0.0, 1.0, 0.0)),
        "ca": fs.scale(column(0.0, 0.0, 1.0)),
    })
    assert family.rows == 3
    values = integrate(curve, family)
    rows = [{"ab": "x^2", "legB": "0"}, {"ab": "x^2", "legB": "1"},
            {"ca": FUBINI_STUDY_SOURCE, "legA": FUBINI_STUDY_SOURCE}]
    singles = [Superform.on_curve(curve, (1, 1), coeffs) for coeffs in rows]
    assert [values[0], values[2]] == [integrate(curve, singles[0]), integrate(curve, singles[2])]
    with pytest.raises(DivergenceError) as alone:
        integrate(curve, singles[1])
    assert isinstance(values[1], DivergenceError) and str(values[1]) == str(alone.value)
    # among other forms: the rows of each form in turn
    assert [str(v) if isinstance(v, DivergenceError) else v for v in integrate(curve, [singles[2], family])] \
        == [values[2]] + [str(v) if isinstance(v, DivergenceError) else v for v in values]


def test_integrate_rejects_wrong_bidegree():
    with pytest.raises(ValueError, match="bidegree"):
        integrate(TRI, Superform.on_curve(TRI, (1, 0), {"ab": 1}))


# -- Hodge star ---------------------------------------------------------


def test_star_of_one_is_the_weight():
    g2 = KahlerForm.constant(TRI, 2.0)
    one = Superform.on_curve(TRI, (0, 0), {"ab": 1, "bc": 1, "ca": 1})
    starred = hodge_star(one, g2)
    assert starred.bidegree.as_tuple() == (1, 1)
    assert np.allclose(coeff(starred, "ab", grid()), 2.0)


def test_star_on_one_forms():
    phi = Superform.on_curve(TRI, (1, 0), {"ab": "x", "bc": "x", "ca": "x"})
    starred = hodge_star(phi, G1)
    assert starred.bidegree.as_tuple() == (0, 1)
    assert np.allclose(coeff(starred, "ab", grid()), grid())


@pytest.mark.parametrize("bidegree", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_star_involution_sign_is_exact(bidegree):
    g2 = KahlerForm.from_spec(TRI, {"ab": {"kind": "expr", "formula": "2+x^2"}})
    form = Superform.on_curve(TRI, bidegree, {"ab": "1+x^3", "bc": "exp(x)", "ca": "x"})
    twice = hodge_star(hodge_star(form, g2), g2)
    sign = (-1.0) ** sum(bidegree)
    xs = grid()
    for edge in ("ab", "bc", "ca"):
        assert np.all(coeff(twice, edge, xs) == sign * coeff(form, edge, xs))


# -- scalar products ----------------------------------------------------


def test_inner_product_of_d_prime_x_is_total_length():
    phi = Superform.on_curve(TRI, (1, 0), {"ab": 1, "bc": 1, "ca": 1})
    g5 = KahlerForm.from_spec(TRI, {"ab": {"kind": "constant", "value": 5.0}})
    assert inner_product(phi, phi, g5) == pytest.approx(3.0, abs=1e-11)


def test_inner_product_weights_by_bidegree():
    g2 = KahlerForm.constant(TRI, 2.0)
    one = Superform.on_curve(TRI, (0, 0), {"ab": 1, "bc": 1, "ca": 1})
    # (1,1) with itself has weight 1/g, (0,0) has weight g
    assert inner_product(one, one, g2) == pytest.approx(6.0, abs=1e-11)
    gg = hodge_star(one, g2)
    assert inner_product(gg, gg, g2) == pytest.approx(6.0, abs=1e-11)


def test_inner_product_of_weight_equals_total_mass():
    report = validate_kahler(TP1, GFS)
    gg = GFS.as_superform()
    assert inner_product(gg, gg, GFS) == pytest.approx(report.total_mass, abs=1e-9)


def test_inner_product_symmetric_positive():
    a = Superform.on_curve(TRI, (0, 1), {"ab": "x", "bc": "1", "ca": "x^2"})
    b = Superform.on_curve(TRI, (0, 1), {"ab": "1-x", "bc": "x", "ca": "2"})
    assert inner_product(a, b, G1) == pytest.approx(inner_product(b, a, G1), abs=1e-12)
    assert inner_product(a, a, G1) > 0


def test_star_isometry_on_polynomials():
    a = Superform.on_curve(TRI, (1, 0), {"ab": "x^2", "bc": "1+x", "ca": "x"})
    b = Superform.on_curve(TRI, (1, 0), {"ab": "1", "bc": "x", "ca": "x^3"})
    g2 = KahlerForm.from_spec(TRI, {"bc": {"kind": "expr", "formula": "1+x^2"}})
    lhs = inner_product(a, b, g2)
    rhs = inner_product(hodge_star(a, g2), hodge_star(b, g2), g2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# -- codifferential and Laplacian ---------------------------------------


def test_codifferential_of_linear_zero_one_form():
    form = Superform.on_curve(TRI, (0, 1), {"ab": "x", "bc": "x", "ca": "x"})
    out = codifferential(form, G1)
    assert out.bidegree.as_tuple() == (0, 0)
    assert np.allclose(coeff(out, "ab", grid()), -1.0)


def test_codifferential_of_weight_multiple_vanishes():
    one = Superform.on_curve(TRI, (0, 0), {"ab": 3, "bc": 3, "ca": 3})
    cg = hodge_star(one, G1)  # 3 * g as a (1,1) form
    out = codifferential(cg, G1)
    assert np.allclose(coeff(out, "ab", grid()), 0.0)


def test_codifferential_on_q_zero_is_flagged_zero():
    f = Superform.on_curve(TRI, (0, 0), {"ab": "x"})
    out = codifferential(f, G1)
    assert out.vanishes_dimensionally
    assert out.bidegree.as_tuple() == (0, 0)
    assert np.allclose(coeff(out, "ab", grid()), 0.0)


def test_laplacian_of_constant_vanishes():
    const = Superform.on_curve(TRI, (0, 0), {"ab": 4, "bc": 4, "ca": 4})
    assert np.allclose(coeff(laplacian(const, G1), "ab", grid()), 0.0)


def test_laplacian_coordinate_formula_on_functions():
    g3 = KahlerForm.constant(TRI, 3.0)
    f = Superform.on_curve(TRI, (0, 0), {"ab": "x^3", "bc": "x^3", "ca": "x^3"})
    out = laplacian(f, g3)
    assert np.allclose(coeff(out, "ab", grid()), -6.0 * grid() / 3.0)


def test_laplacian_coordinate_formula_on_one_forms():
    # with weight g = 1+x^2: Delta(f d'x) = (-f''/g + f'g'/g^2) d'x
    g = KahlerForm.from_spec(TRI, {e: {"kind": "expr", "formula": "1+x^2"} for e in ("ab", "bc", "ca")})
    f = Superform.on_curve(TRI, (1, 0), {"ab": "x^3", "bc": "x^3", "ca": "x^3"})
    out = laplacian(f, g)
    xs = grid()
    expected = -6.0 * xs / (1 + xs**2) + (3 * xs**2) * (2 * xs) / (1 + xs**2) ** 2
    assert np.allclose(coeff(out, "ab", xs), expected, atol=1e-12)


def test_laplacian_top_degree_matches_composition_oracle():
    # Delta(f d'x^d''x) = -(f/g)'' computed symbolically as the oracle
    form = Superform.on_curve(TP1, (1, 1), {"left": "exp(2*x)/(1+exp(2*x))", "right": "exp(2*x)/(1+exp(2*x))"})
    out = laplacian(form, GFS)
    xs = grid(-3.0, 0.0, 13)
    # f/g = (1+e^(2x))/2, second derivative 2 e^(2x)
    assert np.allclose(coeff(out, "left", xs), -2.0 * np.exp(2 * xs), rtol=1e-10)


def test_laplacian_top_degree_shares_the_weight_and_its_derivatives():
    # -(f/g)'' reads f, f', f'', g, g' and g'', built from parse-cached trees in which the
    # repeated exp(2*x) is one node, so the whole Laplacian holds one exp node per source
    from trophodge.checks import DECAY
    from trophodge.expressions import Exp, Expression, _fields

    form = Superform.on_curve(TP1, (1, 1), {"left": DECAY, "right": DECAY})
    seen, stack = {}, [laplacian(form, GFS).coefficients["left"].node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(c for c in _fields(node) if isinstance(c, Expression))
    assert sum(type(node) is Exp for node in seen.values()) == 2


def test_star_commutes_with_laplacian():
    g = KahlerForm.from_spec(TRI, {e: {"kind": "expr", "formula": "1+x^2"} for e in ("ab", "bc", "ca")})
    form = Superform.on_curve(TRI, (1, 0), {"ab": "x^3", "bc": "exp(x)", "ca": "1+x"})
    xs = grid()
    left = laplacian(hodge_star(form, g), g)
    right = hodge_star(laplacian(form, g), g)
    for edge in ("ab", "bc", "ca"):
        assert np.allclose(coeff(left, edge, xs), coeff(right, edge, xs), atol=1e-10)


def test_harmonicity_criterion():
    # d''-closed and codifferential-closed implies Laplacian-closed
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    flow = Superform.on_curve(theta, (1, 0), {"e1": 1, "e2": -1, "e3": 0})
    assert np.allclose(coeff(d_second(flow), "e1", grid()), 0.0)
    assert np.allclose(coeff(codifferential(flow, g), "e1", grid()), 0.0)
    assert np.allclose(coeff(laplacian(flow, g), "e1", grid()), 0.0)


def test_stokes_for_regular_forms():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    # end values at x=0 (heads): 1 - 2 + 1 = 0; at x=-1 (tails): 1 + 0 - 1 = 0
    phi = Superform.on_curve(theta, (1, 0), {"e1": "1", "e2": "2*x^2-2", "e3": "1+2*x"})
    from trophodge.superform import is_regular

    assert is_regular(phi, theta).passed
    assert integrate(theta, d_second(phi)) == pytest.approx(0.0, abs=1e-10)


def test_wedge_pairing_against_star_matches_coordinate_weights():
    # (f, h) for (0,0) is the g-weighted product
    g = KahlerForm.from_spec(TRI, {e: {"kind": "expr", "formula": "exp(x)"} for e in ("ab", "bc", "ca")})
    a = Superform.on_curve(TRI, (0, 0), {"ab": "x", "bc": "1", "ca": "x^2"})
    b = Superform.on_curve(TRI, (0, 0), {"ab": "1", "bc": "x", "ca": "1"})
    direct = sum(
        np.trapezoid(
            coeff(a, e, grid(-1, 0, 20001)) * coeff(b, e, grid(-1, 0, 20001)) * np.exp(grid(-1, 0, 20001)),
            grid(-1, 0, 20001),
        )
        for e in ("ab", "bc", "ca")
    )
    assert inner_product(a, b, g) == pytest.approx(float(direct), abs=1e-7)
