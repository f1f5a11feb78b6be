import dataclasses
import json
import math

import numpy as np
import pytest

from trophodge import checks, curves, discrete, harmonic
from trophodge.checks import (
    CheckReport,
    band_window,
    check_hodge_theorem,
    check_integration_by_parts,
    check_star_identities,
    check_stokes,
    check_theta_correspondence,
    energy_test_pair,
    regular_test_forms,
    run_verification,
)
from trophodge.curve import Edge, TropicalCurve
from trophodge.metric import KahlerForm, integrate
from trophodge.superform import Superform, d_second, is_regular, wedge


def _grid(n: int, legs: int) -> TropicalCurve:
    """The n x n lattice with mixed orientations and lengths, plus legs at its first vertices."""
    vertices = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for eid, (a, b) in ((f"h{i}_{j}", (i + 1, j)), (f"w{i}_{j}", (i, j + 1))):
                if a < n and b < n:
                    ends = [f"v{i}_{j}", f"v{a}_{b}"][::(-1) ** (i + j)]
                    edges.append(Edge(eid, *ends, (1.0, 2.0, 3.0)[len(edges) % 3]))
    for k in range(legs):
        vertices.append(f"leaf{k}")
        edges.append(Edge(f"leg{k}", f"leaf{k}", vertices[k], math.inf))
    return TropicalCurve(tuple(vertices), tuple(edges))


def _looped() -> TropicalCurve:
    """A triangle with a self-loop at A and a leg at B."""
    return TropicalCurve(
        ("A", "B", "C", "L"),
        (
            Edge("ab", "A", "B", 1.0),
            Edge("bc", "B", "C", 2.0),
            Edge("ca", "C", "A", 1.5),
            Edge("loop", "A", "A", 0.5),
            Edge("leg", "L", "B", math.inf),
        ),
    )


def test_regular_test_forms_pass_regularity():
    factories = (curves.triangle, curves.projective_line, curves.triangle_with_legs, curves.theta_graph,
                 curves.k4, lambda: curves.star(4), _looped, lambda: _grid(3, 2), curves.single_edge)
    for factory in factories:
        curve = factory()
        for bidegree in ((0, 0), (1, 0)):
            for form in regular_test_forms(curve, bidegree, 4, seed=2):
                report = is_regular(form, curve, tol=1e-12)
                assert report.passed
                vertex_entries = report.continuity if bidegree == (0, 0) else report.kirchhoff
                assert len(vertex_entries) == len(curve.junctions())


def test_test_forms_need_no_linear_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("test forms are built in closed form")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for curve in (_grid(6, 2), _looped()):
        for bidegree in ((0, 0), (1, 0)):
            assert len(regular_test_forms(curve, bidegree, 2, seed=4)) == 2
        psi, phi = energy_test_pair(curve, 4)
        assert set(psi.coefficients) == set(phi.coefficients) == {e.id for e in curve.edges}


def test_regular_test_forms_are_seeded():
    tri = curves.triangle()
    a = regular_test_forms(tri, (1, 0), 3, seed=9)
    b = regular_test_forms(tri, (1, 0), 3, seed=9)
    xs = np.linspace(-1, 0, 7)
    for fa, fb in zip(a, b):
        for e in ("ab", "bc", "ca"):
            assert np.all(np.asarray(fa.coefficients[e](xs)) == np.asarray(fb.coefficients[e](xs)))


def test_band_window_support():
    ln2 = math.log(2)
    dom = (-math.inf, 0.0)
    w = band_window((-8 * ln2, -6 * ln2), (-4 * ln2, -2 * ln2), dom)
    assert w(-10 * ln2) == 0.0
    assert w(-5 * ln2) == pytest.approx(1.0)
    assert w(-1 * ln2) == 0.0
    assert w.tail_bound == -8 * ln2


def test_check_stokes_passes_and_rejects_non_regular():
    tri = curves.triangle()
    forms = regular_test_forms(tri, (1, 0), 5, seed=1)
    report = check_stokes(tri, forms, seed=1)
    assert report.passed
    bad = Superform.on_curve(tri, (1, 0), {"ab": 1})  # unbalanced constant flow
    with pytest.raises(ValueError, match="non-regular"):
        check_stokes(tri, [bad])


def test_check_stokes_residual_is_quadrature_level_on_tails():
    tp1 = curves.projective_line()
    forms = regular_test_forms(tp1, (1, 0), 20, seed=3)
    report = check_stokes(tp1, forms, seed=3)
    assert report.passed
    assert max(c.residual for c in report.checks) <= 1e-7


def test_check_integration_by_parts_closed_form_pair():
    # psi = x and phi = x d'x on the middle edge of a two-leg path; the
    # two integrals are +1/2 and -1/2 in closed form
    from trophodge.superform import EdgeFunction

    path = TropicalCurve(
        ("A", "B", "U", "V"),
        (
            Edge("mid", "A", "B", 1.0),
            Edge("legU", "U", "A", math.inf),
            Edge("legV", "V", "B", math.inf),
        ),
    )
    decay = "exp(2*x)/(1+exp(2*x))"
    psi = Superform.on_curve(
        path,
        (0, 0),
        {"mid": "x", "legU": "-1", "legV": "0"},
    )
    phi = Superform.on_curve(
        path,
        (1, 0),
        {"mid": "x", "legU": f"-2*{decay}", "legV": "0"},
    )
    lhs = integrate(path, wedge(d_second(psi), phi))
    rhs = integrate(path, wedge(psi, d_second(phi)))
    # -int psi' phi = +1/2 on mid; -int psi phi' = -1/2 + 1 on mid + legU
    assert lhs == pytest.approx(0.5, abs=1e-9)
    assert rhs == pytest.approx(-0.5, abs=1e-9)
    report = check_integration_by_parts(path, [(psi, phi)])
    assert report.passed
    assert report.checks[0].residual <= 1e-9


def test_energy_pairs_satisfy_integration_by_parts():
    for factory in (curves.triangle, curves.star, curves.triangle_with_legs):
        curve = factory()
        worst = 0.0
        for seed in range(5):
            psi, phi = energy_test_pair(curve, seed)
            report = check_integration_by_parts(curve, [(psi, phi)])
            worst = max(worst, report.checks[0].residual)
        assert worst <= 1e-7


@pytest.mark.parametrize("curve", [curves.triangle_with_legs(16.0), curves.triangle_with_legs(30.0),
                                   curves.triangle(32.0), curves.triangle(64.0)], ids=["legs16", "legs30", "tri32", "tri64"])
def test_long_finite_edges_keep_stokes_and_parts_convergent(curve):
    # a bubble x (x + l)(r0 + r1 x) grows as l^3, and its integrals never settled to the
    # absolute tolerance: every seed here raised DivergenceError before the bubble was scaled to the edge
    for seed in range(3):
        report = check_stokes(curve, regular_test_forms(curve, (1, 0), 20, seed), seed)
        report.extend(check_integration_by_parts(curve, [energy_test_pair(curve, seed + 1000 + k) for k in range(20)]))
        assert report.passed, (seed, [c.as_dict() for c in report.checks])


def test_jumping_psi_turns_integration_by_parts_red():
    # psi gains c (1 + x/l) on one edge: c at its head, 0 at its tail, so psi
    # jumps at one vertex and the pairing picks up the boundary term c phi(0)
    from trophodge.superform import EdgeFunction

    tri = curves.triangle()
    pairs = [energy_test_pair(tri, seed) for seed in range(3)]
    assert check_integration_by_parts(tri, pairs).passed
    edge = tri.edges[0]
    jump = EdgeFunction.polynomial([0.5, 0.5 / edge.length], domain=edge.chart)
    psi, phi = pairs[0]
    jumping = Superform(psi.bidegree, {**psi.coefficients, edge.id: psi.coefficients[edge.id] + jump})
    report = check_integration_by_parts(tri, pairs + [(jumping, phi)])
    assert report.checks[0].status == "fail"


def test_wrong_sign_of_dbar_on_one_forms_turns_stokes_bilinear_red(monkeypatch):
    d = checks.d_second

    def flipping(form):
        out = d(form)
        return out.map_coefficients(lambda fn: fn.scale(-1.0)) if form.bidegree.as_tuple() == (1, 0) else out

    legs = curves.triangle_with_legs()
    forms = regular_test_forms(legs, (1, 0), 4, seed=5)
    assert check_stokes(legs, forms, seed=5).passed
    monkeypatch.setattr(checks, "d_second", flipping)
    statuses = {c.check_id: c.status for c in check_stokes(legs, forms, seed=5).checks}
    assert statuses["stokes-bilinear"] == "fail"


def test_check_hodge_theorem_on_theta():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    report = check_hodge_theorem(theta, g, h_list=(1 / 16, 1 / 32))
    assert report.passed
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["hodge-dimension-agreement"].residual == 0.0
    assert by_id["hodge-kernel-span"].residual <= 1e-6


def _hodge_statuses(curve):
    report = check_hodge_theorem(curve, KahlerForm.from_spec(curve, None), h_list=(1 / 16,))
    return {c.check_id: c.status for c in report.checks}


def test_dropped_kirchhoff_rows_turn_dimension_agreement_red(monkeypatch):
    # On edgewise-constant forms, the kernel's home, the Kirchhoff rows of a
    # connected curve sum to zero, so any one row follows from the others;
    # dropping two frees one more flow.
    assemble = discrete.assemble

    def dropping(mesh, curve, g, bidegree):
        system = assemble(mesh, curve, g, bidegree)
        return dataclasses.replace(system, constraints=system.constraints[2:])

    monkeypatch.setattr(checks, "assemble", dropping)
    statuses = _hodge_statuses(curves.theta_graph())
    assert statuses["hodge-dimension-agreement"] == "fail"


def test_split_vertex_dof_turns_scalar_dimensions_red(monkeypatch):
    # the centre's value on leg1 gets a DOF of its own, so leg1 comes loose
    layout = discrete._dof_layout

    def splitting(mesh, bidegree):
        dof_map = layout(mesh, bidegree)
        if bidegree.as_tuple() != (0, 0):
            return dof_map
        ids = dof_map.edge_dofs["leg1"].copy()
        ids[-1] = dof_map.n_dofs
        return dataclasses.replace(dof_map, n_dofs=dof_map.n_dofs + 1,
                                   edge_dofs={**dof_map.edge_dofs, "leg1": ids})

    monkeypatch.setattr(discrete, "_dof_layout", splitting)
    statuses = _hodge_statuses(curves.star(3))
    assert statuses["hodge-scalar-dimensions"] == "fail"


def test_perturbed_kernel_vector_turns_kernel_span_red(monkeypatch):
    kernel = discrete.kernel

    def perturbing(system):
        result = kernel(system)
        u = result.vectors[:, 0] + 1e-4 * np.random.default_rng(0).standard_normal(result.vectors.shape[0])
        vectors = result.vectors.copy()
        vectors[:, 0] = u / np.sqrt(u @ (system.mass @ u))  # still M-normalized, but turned
        return dataclasses.replace(result, vectors=vectors)

    monkeypatch.setattr(checks, "kernel", perturbing)
    statuses = _hodge_statuses(curves.triangle())
    assert statuses["hodge-dimension-agreement"] == "pass"
    assert statuses["hodge-kernel-span"] == "fail"


def test_mis_scaled_kernel_vector_turns_kernel_span_red(monkeypatch):
    # a vector off the M-unit sphere would read as cosine 1 after clipping
    kernel = discrete.kernel

    def scaling(system):
        result = kernel(system)
        vectors = result.vectors.copy()
        vectors[:, 0] *= 1 + 1e-4
        return dataclasses.replace(result, vectors=vectors)

    monkeypatch.setattr(checks, "kernel", scaling)
    statuses = _hodge_statuses(curves.triangle())
    assert statuses["hodge-kernel-span"] == "fail"


def test_dropped_nullspace_vector_turns_dimension_agreement_red(monkeypatch):
    nullspace = harmonic.nullspace
    monkeypatch.setattr(harmonic, "nullspace", lambda *args, **kwargs: nullspace(*args, **kwargs)[:-1])
    statuses = _hodge_statuses(curves.theta_graph())
    assert statuses["hodge-dimension-agreement"] == "fail"


def test_overcounted_rank_turns_scalar_dimensions_red(monkeypatch):
    rank = harmonic.rank
    monkeypatch.setattr(harmonic, "rank", lambda matrix: rank(matrix) + 1)
    statuses = _hodge_statuses(curves.triangle())
    assert statuses["hodge-scalar-dimensions"] == "fail"


def test_duplicated_flow_turns_star_duality_red(monkeypatch):
    flow_basis = harmonic._flow_basis
    monkeypatch.setattr(harmonic, "_flow_basis", lambda curve: flow_basis(curve)[:1] + flow_basis(curve))
    statuses = _hodge_statuses(curves.theta_graph())
    assert statuses["hodge-star-duality"] == "fail"


def test_overcounted_cech_omega1_turns_star_duality_red(monkeypatch):
    # H^1 of the closed-(1,0) sheaf is the (1,1) side of the star pairing
    cech_omega1 = harmonic._cech_omega1
    monkeypatch.setattr(harmonic, "_cech_omega1", lambda curve: (cech_omega1(curve)[0], cech_omega1(curve)[1] + 1))
    statuses = _hodge_statuses(curves.triangle())
    assert statuses["hodge-star-duality"] == "fail"


@pytest.mark.parametrize("factory", [curves.triangle, curves.triangle_with_legs])
def test_hodge_suite_builds_no_superform_and_one_flow_basis(monkeypatch, factory):
    curve = factory()
    g = KahlerForm.from_spec(curve, None)
    flow_basis = harmonic._flow_basis
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("the hodge suite built a Superform")

    monkeypatch.setattr(Superform, "on_curve", refuse)
    monkeypatch.setattr(harmonic, "_flow_basis", lambda c: calls.append(c) or flow_basis(c))
    assert check_hodge_theorem(curve, g).passed
    assert len(calls) == 1


def test_check_star_identities_with_fubini_study_tails():
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    report = check_star_identities(legs, g)
    assert report.passed
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["star-involution"].residual == 0.0
    assert by_id["star-laplacian-commutation"].residual <= 1e-7
    assert any("(1,1) Laplacian" in note for note in report.notes)


def test_check_theta_correspondence():
    report = check_theta_correspondence()
    assert report.passed


def test_run_verification_report_is_deterministic():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    a = run_verification(tri, g, seed=0, h_list=(1 / 8, 1 / 16), form_count=4)
    b = run_verification(tri, g, seed=0, h_list=(1 / 8, 1 / 16), form_count=4)
    assert a.passed and b.passed
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)
    # timings are zeroed in the serialized report unless asked for
    assert all(c["seconds"] == 0.0 for c in a.as_dict()["checks"])


def test_report_serialization_shape():
    report = CheckReport(seed=7)
    report.add("demo", "identity holds", 1e-12, 1e-8, 0.25)
    doc = report.as_dict(include_timings=True)
    assert doc["seed"] == 7
    entry = doc["checks"][0]
    assert set(entry) == {"id", "anchor", "status", "residual", "tol", "seconds"}
    assert entry["status"] == "pass"
    assert entry["seconds"] == 0.25


def test_verification_check_ids_are_unique():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    report = run_verification(tri, g, seed=0, h_list=(1 / 8,), form_count=2)
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids))
    assert report.passed


def _star_statuses(monkeypatch, curve, star=None, laplacian=None):
    from trophodge import metric

    g = KahlerForm.from_spec(curve, None)
    if star is not None:  # inner_product and laplacian read metric's star, the suite its own import
        monkeypatch.setattr(metric, "hodge_star", star)
        monkeypatch.setattr(checks, "hodge_star", star)
    if laplacian is not None:
        monkeypatch.setattr(checks, "laplacian", laplacian)
    return {c.check_id: c.status for c in check_star_identities(curve, g).checks}


def test_unsigned_01_star_turns_star_involution_red(monkeypatch):
    from trophodge.metric import hodge_star

    def unsigned(form, g):
        out = hodge_star(form, g)
        return out.map_coefficients(lambda fn: -fn) if form.bidegree.as_tuple() == (0, 1) else out

    assert _star_statuses(monkeypatch, curves.triangle())["star-involution"] == "pass"
    assert _star_statuses(monkeypatch, curves.triangle(), star=unsigned)["star-involution"] == "fail"


def test_11_star_multiplying_by_g_turns_star_isometry_red(monkeypatch):
    from trophodge.metric import hodge_star

    def multiplying(form, g):
        if form.bidegree.as_tuple() != (1, 1):
            return hodge_star(form, g)
        coeffs = {eid: fn * g.weights[eid] for eid, fn in form.coefficients.items()}
        return Superform(dataclasses.replace(form.bidegree, p=0, q=0), coeffs)

    legs = curves.triangle_with_legs()
    assert _star_statuses(monkeypatch, legs)["star-isometry"] == "pass"
    assert _star_statuses(monkeypatch, legs, star=multiplying)["star-isometry"] == "fail"


def test_doubled_g2_term_in_11_laplacian_turns_star_commutation_red(monkeypatch):
    # -(f/g)'' holds the term f g''/g^2 once; the mutant holds it twice.
    # g'' vanishes for constant weights, so the curve needs Fubini-Study legs.
    from trophodge.metric import laplacian

    def doubled(form, g):
        out = laplacian(form, g)
        if form.bidegree.as_tuple() != (1, 1):
            return out
        coeffs = {}
        for eid, fn in out.coefficients.items():
            w = g.weights[eid]
            coeffs[eid] = fn + (form.coefficients[eid] * w.derivative().derivative()).divide(w * w)
        return Superform(out.bidegree, coeffs)

    legs = curves.triangle_with_legs()
    assert _star_statuses(monkeypatch, legs)["star-laplacian-commutation"] == "pass"
    assert _star_statuses(monkeypatch, legs, laplacian=doubled)["star-laplacian-commutation"] == "fail"


def test_dbar_dropping_one_edge_turns_stokes_closed_red(monkeypatch):
    from trophodge.superform import EdgeFunction

    d = checks.d_second

    def dropping(form):
        out = d(form)
        first = next(iter(out.coefficients))
        return Superform(out.bidegree, {**out.coefficients, first: EdgeFunction.zero(out.coefficients[first].domain)})

    tri = curves.triangle()
    forms = regular_test_forms(tri, (1, 0), 4, seed=3)
    assert check_stokes(tri, forms, seed=3).passed
    monkeypatch.setattr(checks, "d_second", dropping)
    statuses = {c.check_id: c.status for c in check_stokes(tri, forms, seed=3).checks}
    assert statuses["stokes-closed"] == "fail"


def test_annulus_integral_scaled_by_2pi_turns_theta_checks_red(monkeypatch):
    from trophodge import theta

    annulus_integral = theta.annulus_integral
    assert check_theta_correspondence().passed
    monkeypatch.setattr(theta, "annulus_integral", lambda form, domain: 2 * math.pi * annulus_integral(form, domain))
    report = check_theta_correspondence()
    statuses = {c.check_id: c.status for c in report.checks}
    assert set(statuses) == {"theta-constant", "theta-cubic", "theta-fubini-study"}
    assert set(statuses.values()) == {"fail"}


def test_nan_laplacian_turns_star_commutation_red(monkeypatch):
    # max(worst, nan) keeps worst, so a residual reduced by max would read a NaN difference as 0
    from trophodge.metric import laplacian

    def nan_scaled(form, g):
        return laplacian(form, g).map_coefficients(lambda fn: fn.scale(math.nan))

    tri = curves.triangle()
    assert _star_statuses(monkeypatch, tri)["star-laplacian-commutation"] == "pass"
    g = KahlerForm.from_spec(tri, None)
    monkeypatch.setattr(checks, "laplacian", nan_scaled)
    residual = {c.check_id: c for c in check_star_identities(tri, g).checks}["star-laplacian-commutation"]
    assert residual.status == "fail" and math.isnan(residual.residual)
