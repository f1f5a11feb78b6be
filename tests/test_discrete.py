import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from trophodge import curves
from trophodge.checks import _TAIL_WINDOW_BOUND, _smoothstep_window, band_window
from trophodge.curve import Edge, TropicalCurve
from trophodge.discrete import (
    AmbiguousKernelError,
    StarNeighborhood,
    TailNeighborhood,
    _constraint_nullspace,
    _element_mass_weighted,
    _element_weights,
    assemble,
    build_mesh,
    kernel,
    solve_dbar_local,
    spectrum,
    vector_to_superform,
)
from trophodge.exact import nullspace
from trophodge.metric import KahlerForm
from trophodge.quadrature import QuadratureRule, integrate_finite, integrate_lower_tail
from trophodge.superform import Bidegree, EdgeFunction, Superform, is_regular

RULE = QuadratureRule()
LN2 = math.log(2.0)


def fubini_study(x):
    x = np.asarray(x, dtype=float)
    return 2 * np.exp(2 * x) / (1 + np.exp(2 * x)) ** 2


# -- meshing -------------------------------------------------------------


def test_uniform_mesh_on_finite_edges():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 0.5, 1e-6)
    assert len(mesh.nodes["ab"]) == 3  # two panels of width 1/2
    assert mesh.nodes["ab"][0] == -1.0 and mesh.nodes["ab"][-1] == 0.0


def test_truncation_of_fubini_study_tail():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    mesh = build_mesh(tp1, g, 0.25, 1e-6)
    rec = mesh.truncation("left")
    # smallest doubling candidate obeying both tail bounds: the mass
    # alone would allow L ~ 7 (1/(1+e^(2L)) <= 1e-6 from L ~ 6.91) but
    # the second moment needs L = 16; both oracles are closed-form
    assert rec.cutoff == 16.0
    assert rec.tail_mass == pytest.approx(1.0 / (1.0 + math.exp(32.0)), rel=1e-6)
    assert rec.tail_mass <= 1e-6 and rec.tail_second_moment <= 1e-6
    # at L=8 the mass bound already holds, so only the moment forces 16
    assert 1.0 / (1.0 + math.exp(16.0)) <= 1e-6


def test_degenerate_truncation_warns():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    with pytest.warns(UserWarning, match="degenerates"):
        mesh = build_mesh(tp1, g, 0.25, 5.0)
    assert len(mesh.nodes["left"]) == 1


def test_mesh_rejects_bad_parameters():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    with pytest.raises(ValueError):
        build_mesh(tri, g, -0.1, 1e-6)


# -- assembly ------------------------------------------------------------


def test_hand_assembled_stiffness_on_single_edge():
    edge = curves.single_edge(1.0)
    g = KahlerForm.constant(edge, 1.0)
    mesh = build_mesh(edge, g, 0.5, 1e-6)
    system = assemble(mesh, edge, g, (0, 0))
    K = system.stiffness.toarray()
    # P1 stiffness with h = 1/2: interior row (-2, 4, -2)
    expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    perm = system.dof_map.edge_dofs["e"]
    K_perm = K[np.ix_(perm, perm)]
    assert np.allclose(K_perm, expected)
    assert np.allclose(K.sum(axis=1), 0.0)
    M = system.mass.toarray()
    assert np.allclose(M, M.T)
    assert np.all(np.linalg.eigvalsh(M) > 0)
    M_perm = M[np.ix_(perm, perm)]
    expected_mass = np.array(
        [[1 / 6, 1 / 12, 0.0], [1 / 12, 1 / 3, 1 / 12], [0.0, 1 / 12, 1 / 6]]
    )
    assert np.allclose(M_perm, expected_mass, atol=1e-14)


def test_triangle_one_form_constraints():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 0.5, 1e-6)
    system = assemble(mesh, tri, g, (1, 0))
    B = system.constraints
    assert B.shape[0] == 3  # one Kirchhoff row per vertex
    assert np.all(np.abs(B).sum(axis=1) == 2)  # each row touches two end nodes
    # rows have full rank
    assert np.linalg.matrix_rank(B) == 3


def test_assemble_rejects_star_dual_bidegrees():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 0.5, 1e-6)
    with pytest.raises(ValueError, match="star duality"):
        assemble(mesh, tri, g, (0, 1))


def test_stiffness_and_mass_are_exactly_symmetric():
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    mesh = build_mesh(legs, g, 0.25, 1e-4)
    for bidegree in ((0, 0), (1, 0)):
        system = assemble(mesh, legs, g, bidegree)
        K = system.stiffness
        M = system.mass
        assert (K != K.T).nnz == 0
        assert (M != M.T).nnz == 0


@st.composite
def multigraphs(draw):
    """Connected multigraphs with self-loops, parallel edges and legs.

    A spanning tree keeps the graph connected; extra edges may be
    self-loops or parallel to others.  The first leg may carry a weight
    with so little tail mass that truncation collapses it to its head.
    """
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges = []
    for k, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        edges.append(Edge(f"e{k}", vertices[a], vertices[b], draw(st.sampled_from([0.5, 1.0, 1.5]))))
    heads = draw(st.lists(st.integers(0, n - 1), min_size=0 if edges else 1, max_size=3))
    for k, v in enumerate(heads):
        vertices.append(f"L{k}")
        edges.append(Edge(f"leg{k}", f"L{k}", vertices[v], math.inf))
    curve = TropicalCurve(tuple(vertices), tuple(edges))
    spec = {}
    if heads and draw(st.booleans()):
        spec["leg0"] = {"kind": "expr", "formula": "0.000000001*exp(2*x)"}
    return curve, KahlerForm.from_spec(curve, spec)


def _scatter_reference(system, g):
    """Stiffness and mass built one element at a time, in the order
    a-a, b-b, a-b, b-a, skipping DOFs eliminated by truncation."""
    rows, cols, vals_k, vals_m = [], [], [], []
    for e in system.mesh.curve.sorted_edges():
        coords = system.mesh.nodes[e.id]
        if len(coords) < 2:
            continue
        dofs = system.dof_map.edge_dofs[e.id]
        lengths = np.diff(coords)
        if system.bidegree.as_tuple() == (0, 0):
            k_scale = 1.0 / lengths
            m00, m01, m11 = _element_mass_weighted(g.weights[e.id], coords)
        else:
            inv_weight = EdgeFunction.constant(1.0, g.weights[e.id].domain).divide(g.weights[e.id])
            k_scale = _element_weights(inv_weight, coords) / lengths**2
            m00 = m11 = lengths / 3.0
            m01 = lengths / 6.0
        for i in range(len(lengths)):
            a, b = dofs[i], dofs[i + 1]
            entries = ((a, a, k_scale[i], m00[i]), (b, b, k_scale[i], m11[i]),
                       (a, b, -k_scale[i], m01[i]), (b, a, -k_scale[i], m01[i]))
            for r, c, k, m in entries:
                if r >= 0 and c >= 0:
                    rows.append(r)
                    cols.append(c)
                    vals_k.append(k)
                    vals_m.append(m)
    n = system.dof_map.n_dofs
    K = scipy.sparse.csr_matrix((vals_k, (rows, cols)), shape=(n, n))
    M = scipy.sparse.csr_matrix((vals_m, (rows, cols)), shape=(n, n))
    return K, M


def _same_csr(a, b):
    return all(np.array_equal(getattr(a, part), getattr(b, part)) for part in ("indptr", "indices", "data"))


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.sampled_from([1 / 2, 1 / 3]))
def test_kirchhoff_elimination_closed_form(case, h):
    curve, g = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the collapsed leg warns
        mesh = build_mesh(curve, g, h, 1e-4)
    for bidegree in ((0, 0), (1, 0)):
        system = assemble(mesh, curve, g, bidegree)
        K, M = _scatter_reference(system, g)
        assert _same_csr(system.stiffness, K) and _same_csr(system.mass, M)

    B = system.constraints
    n, m = system.dof_map.n_dofs, B.shape[0]
    # rows have disjoint, nonempty supports with entries +-1
    assert set(np.unique(B)) <= {-1.0, 0.0, 1.0}
    assert np.abs(B).sum(axis=0).max(initial=0.0) <= 1
    assert np.all(np.abs(B).sum(axis=1) >= 1)

    Z = _constraint_nullspace(B)
    assert Z.shape == (n, n - m)
    assert not np.any(B @ Z.toarray())
    # the basis exact rational elimination gives, one vector per free column
    oracle = nullspace(B.astype(int).tolist(), n)
    expected = np.array([[float(x) for x in v] for v in oracle]).T.reshape(n, len(oracle))
    assert np.array_equal(Z.toarray(), expected)


def test_overlapping_kirchhoff_rows_are_rejected(monkeypatch):
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 0.5, 1e-6)
    system = assemble(mesh, tri, g, (1, 0))

    B = system.constraints.copy()
    B[1, np.flatnonzero(B[0])[0]] = 1.0  # row 1 now shares a DOF with row 0
    with pytest.raises(RuntimeError, match="two Kirchhoff"):
        kernel(dataclasses.replace(system, constraints=B))

    # every vertex sees every edge end: each DOF lands in all three rows
    ends_at = TropicalCurve.edge_ends_at
    monkeypatch.setattr(TropicalCurve, "edge_ends_at",
                        lambda self, v: [end for u in self.sorted_vertices() for end in ends_at(self, u)])
    with pytest.raises(RuntimeError, match="two Kirchhoff"):
        assemble(mesh, tri, g, (1, 0))


# -- kernels and spectra ---------------------------------------------------


@pytest.mark.parametrize(
    "factory,expected",
    [
        (curves.projective_line, 0),
        (lambda: curves.star(3), 0),
        (curves.triangle, 1),
        (curves.theta_graph, 2),
        (curves.k4, 3),
        (curves.triangle_with_legs, 1),
    ],
)
def test_kernel_dimensions_match_genus(factory, expected):
    curve = factory()
    g = KahlerForm.from_spec(curve, None)
    mesh = build_mesh(curve, g, 1 / 32, 1e-4)
    assert kernel(assemble(mesh, curve, g, (1, 0))).kernel_dimension == expected
    assert kernel(assemble(mesh, curve, g, (0, 0))).kernel_dimension == 1


def test_kernel_vectors_satisfy_constraints_and_mass_normalization():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    mesh = build_mesh(theta, g, 1 / 16, 1e-4)
    system = assemble(mesh, theta, g, (1, 0))
    result = kernel(system)
    assert result.kernel_dimension == 2
    U = result.vectors
    assert np.max(np.abs(system.constraints @ U)) <= 1e-12
    gram = U.T @ (system.mass @ U)
    assert np.allclose(gram, np.eye(2), atol=1e-8)


def test_kernel_interpolates_to_kirchhoff_flows():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 1 / 16, 1e-4)
    system = assemble(mesh, tri, g, (1, 0))
    result = kernel(system)
    form = vector_to_superform(system, result.vectors[:, 0])
    assert is_regular(form, tri, tol=1e-8).passed
    xs = np.linspace(-1, 0, 9)
    vals = np.asarray(form.coefficients["ab"](xs))
    assert np.allclose(vals, vals[0], atol=1e-9)  # edgewise constant


def test_spectrum_triangle_circle_eigenvalues():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    target = (2 * math.pi / 3) ** 2
    lams = {}
    for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
        mesh = build_mesh(tri, g, h, 1e-4)
        system = assemble(mesh, tri, g, (0, 0))
        lams[h] = spectrum(system, 3).eigenvalues[1]
    assert lams[1 / 128] == pytest.approx(target, rel=0.01)
    d1 = abs(lams[1 / 16] - lams[1 / 32])
    d2 = abs(lams[1 / 32] - lams[1 / 64])
    d3 = abs(lams[1 / 64] - lams[1 / 128])
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)
    assert d2 / d3 == pytest.approx(4.0, rel=0.2)


def test_spectrum_neumann_interval_oracle():
    edge = curves.single_edge(1.0)
    g = KahlerForm.constant(edge, 1.0)
    mesh = build_mesh(edge, g, 1 / 64, 1e-4)
    system = assemble(mesh, edge, g, (0, 0))
    lams = spectrum(system, 3).eigenvalues
    assert lams[0] == pytest.approx(0.0, abs=1e-9)
    assert lams[1] == pytest.approx(math.pi**2, rel=1e-3)
    assert lams[2] == pytest.approx(4 * math.pi**2, rel=1e-3)


def test_spectrum_k_zero_and_overflow():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    mesh = build_mesh(tri, g, 0.5, 1e-4)
    system = assemble(mesh, tri, g, (0, 0))
    empty = spectrum(system, 0)
    assert empty.eigenvalues.size == 0
    with pytest.raises(ValueError):
        spectrum(system, 10**6)


def test_eigensolver_residual_contract():
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    mesh = build_mesh(theta, g, 1 / 32, 1e-4)
    system = assemble(mesh, theta, g, (0, 0))
    result = spectrum(system, 5)
    K, M = system.stiffness, system.mass
    norm_k = np.max(np.abs(K.toarray()).sum(axis=1))
    for lam, u in zip(result.eigenvalues, result.vectors.T):
        assert np.linalg.norm(K @ u - lam * (M @ u)) <= 1e-10 * norm_k


def test_ambiguous_kernel_is_reported():
    # two nearly-equal smallest eigenvalues with no thousandfold gap:
    # a single Neumann edge probed with an extreme gap requirement
    edge = curves.single_edge(1.0)
    g = KahlerForm.constant(edge, 1.0)
    mesh = build_mesh(edge, g, 1 / 4, 1e-4)
    system = assemble(mesh, edge, g, (0, 0))
    with pytest.raises(AmbiguousKernelError):
        kernel(system, gap_ratio_min=1e30)


# -- the local right inverse of d'' ----------------------------------------


def test_dbar_tail_p0_step_example():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)

    def step(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= -1.0, 1.0, 0.0)

    omega = Superform(Bidegree(0, 1), {"left": EdgeFunction(step, None, None, (-math.inf, 0.0))})
    psi = solve_dbar_local(omega, g, RULE, TailNeighborhood("left", 0.0))
    xs = np.array([-3.0, -1.0, -0.5, -0.25])
    assert np.allclose(psi.coefficients["left"](xs), [-1.0, -1.0, -0.5, -0.25], atol=1e-10)
    # pointwise estimate |psi(x)| <= sqrt(a - x) * ||omega||
    norm = math.sqrt(integrate_finite(lambda x: step(x) ** 2, -1.0, 0.0, RULE))
    bounds = np.sqrt(-xs) * norm
    assert np.all(np.abs(np.asarray(psi.coefficients["left"](xs))) <= bounds * (1 + 1e-8))


def test_dbar_tail_p1_fubini_study_example():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    omega = Superform(
        Bidegree(1, 1),
        {"left": EdgeFunction.from_expression("2*exp(2*x)/(1+exp(2*x))^2", domain=(-math.inf, 0.0))},
    )
    psi = solve_dbar_local(omega, g, RULE, TailNeighborhood("left", 0.0))
    xs = -np.linspace(0.05, 10.0, 41)
    expected = -np.exp(2 * xs) / (1 + np.exp(2 * xs))
    assert np.allclose(psi.coefficients["left"](xs), expected, atol=1e-9)


def test_dbar_zero_input():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    omega = Superform(Bidegree(1, 1), {"left": EdgeFunction.zero((-math.inf, 0.0))})
    psi = solve_dbar_local(omega, g, RULE, TailNeighborhood("left", 0.0))
    assert np.allclose(psi.coefficients["left"](-np.linspace(0.1, 5, 7)), 0.0)


def test_dbar_pointwise_estimates_on_quadrature_grid():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    dom = (-math.inf, 0.0)
    omega_fn = EdgeFunction.polynomial([0.7, -0.4], domain=dom) * _smoothstep_window(_TAIL_WINDOW_BOUND, dom)
    xs = -np.linspace(0.01, 24.0, 97)
    # p = 0: |psi(x)| <= sqrt(a-x) ||omega||, norm in the (0,1) product
    omega0 = Superform(Bidegree(0, 1), {"left": omega_fn})
    psi0 = solve_dbar_local(omega0, g, RULE, TailNeighborhood("left", 0.0))
    norm0 = math.sqrt(integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2, 0.0, RULE))
    vals0 = np.abs(np.asarray(psi0.coefficients["left"](xs)))
    assert np.all(vals0 <= np.sqrt(-xs) * norm0 * (1 + 1e-8))
    # p = 1: |psi(x)| <= sqrt(int_(-inf)^x g) ||omega||, norm weighted by 1/g
    omega1 = Superform(Bidegree(1, 1), {"left": omega_fn})
    psi1 = solve_dbar_local(omega1, g, RULE, TailNeighborhood("left", 0.0))
    gfn = g.weights["left"]
    norm1 = math.sqrt(
        integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2 / np.asarray(gfn(x)), 0.0, RULE)
    )
    bounds = np.array([math.sqrt(integrate_lower_tail(gfn, float(x), RULE)) for x in xs]) * norm1
    vals1 = np.abs(np.asarray(psi1.coefficients["left"](xs)))
    assert np.all(vals1 <= bounds * (1 + 1e-8))
    # operator norm bound ||T_U omega|| <= C ||omega|| with C^2 = int (a-t) g dt
    psi_norm = math.sqrt(
        integrate_lower_tail(lambda x: np.asarray(psi1.coefficients["left"](x)) ** 2, 0.0, RULE)
    )
    C = math.sqrt(integrate_lower_tail(lambda x: -np.asarray(x) * np.asarray(gfn(x)), 0.0, RULE))
    assert psi_norm <= C * norm1 * (1 + 1e-8)


def test_dbar_weak_identity_against_test_functions():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    dom = (-math.inf, 0.0)
    rng = np.random.default_rng(11)
    band = band_window((-8 * LN2, -6 * LN2), (-4 * LN2, -2 * LN2), dom)
    worst = {0: 0.0, 1: 0.0}
    for _ in range(20):
        c0, c1 = rng.uniform(-1, 1, 2)
        d0, d1 = rng.uniform(-1, 1, 2)
        omega_fn = EdgeFunction.polynomial([c0, c1], domain=dom) * _smoothstep_window(-10 * LN2, dom)
        phi_fn = EdgeFunction.polynomial([d0, d1], domain=dom) * band
        dphi = phi_fn.derivative()
        for p in (0, 1):
            omega = Superform(Bidegree(p, 1), {"left": omega_fn})
            psi = solve_dbar_local(omega, g, RULE, TailNeighborhood("left", 0.0))
            pairing_sign = -1.0 if p == 0 else 1.0
            lhs = integrate_lower_tail(
                lambda x: pairing_sign * np.asarray(omega_fn(x)) * np.asarray(phi_fn(x)), 0.0, RULE
            )
            rhs = integrate_lower_tail(
                lambda x: np.asarray(psi.coefficients["left"](x)) * np.asarray(dphi(x)), 0.0, RULE
            )
            worst[p] = max(worst[p], abs(lhs - rhs))
    assert worst[0] <= 1e-8
    assert worst[1] <= 1e-8


def test_dbar_uniqueness():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    dom = (-math.inf, 0.0)
    omega_fn = EdgeFunction.polynomial([0.3, -0.2], domain=dom) * _smoothstep_window(-10 * LN2, dom)
    xs = -np.linspace(0.05, 12.0, 23)
    # p = 1: any antiderivative construction must agree exactly
    psi1 = solve_dbar_local(
        Superform(Bidegree(1, 1), {"left": omega_fn}), g, RULE, TailNeighborhood("left", 0.0)
    )
    alt = np.array(
        [
            -(integrate_lower_tail(omega_fn, -6.0, RULE) + integrate_finite(omega_fn, -6.0, float(x), RULE))
            if x > -6
            else -integrate_lower_tail(omega_fn, float(x), RULE)
            for x in xs
        ]
    )
    assert np.max(np.abs(alt - np.asarray(psi1.coefficients["left"](xs)))) <= 1e-8
    # p = 0: answers agree after removing the mean (free additive constant)
    psi0 = solve_dbar_local(
        Superform(Bidegree(0, 1), {"left": omega_fn}), g, RULE, TailNeighborhood("left", 0.0)
    )
    shifted = np.array([-integrate_finite(omega_fn, float(x), 0.0, RULE) + 0.37 for x in xs])
    ours = np.asarray(psi0.coefficients["left"](xs))
    assert np.max(np.abs((shifted - shifted.mean()) - (ours - ours.mean()))) <= 1e-8


def test_dbar_vertex_star_mixed_ends():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    omega = Superform.on_curve(tri, (1, 1), {"ab": "1+x", "bc": "x^2", "ca": "2"})
    psi = solve_dbar_local(omega, g, RULE, StarNeighborhood("A", 0.5))
    # Kirchhoff holds exactly at the vertex: head end of ca plus tail end of ab
    head_val = float(psi.coefficients["ca"](0.0))
    tail_val = -float(psi.coefficients["ab"](-1.0))
    assert head_val + tail_val == 0.0
    # d'' psi = omega on both legs (finite differences on the values)
    for eid, x0 in (("ab", -0.9), ("ca", -0.2)):
        h = 1e-6
        fn = psi.coefficients[eid]
        derivative = (float(fn(x0 + h)) - float(fn(x0 - h))) / (2 * h)
        assert -derivative == pytest.approx(float(omega.coefficients[eid](x0)), abs=1e-7)


def test_dbar_vertex_star_continuity_for_functions():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    omega = Superform.on_curve(tri, (0, 1), {"ab": "1", "bc": "x", "ca": "-2"})
    psi = solve_dbar_local(omega, g, RULE, StarNeighborhood("B", 0.25))
    # both end values vanish at the vertex, so continuity holds exactly
    assert float(psi.coefficients["ab"](0.0)) == 0.0  # head end at B
    assert float(psi.coefficients["bc"](-1.0)) == 0.0  # tail end at B


def test_dbar_rejects_wrong_bidegree_and_bad_reach():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    with pytest.raises(ValueError, match="bidegree"):
        solve_dbar_local(Superform.on_curve(tri, (1, 0), {"ab": 1}), g, RULE, StarNeighborhood("A", 0.5))
    omega = Superform.on_curve(tri, (1, 1), {"ab": 1})
    with pytest.raises(ValueError, match="reach"):
        solve_dbar_local(omega, g, RULE, StarNeighborhood("A", 2.0))


def test_kernel_spans_match_exact_bases_at_fine_mesh():
    from trophodge.checks import _principal_angle
    from trophodge.harmonic import harmonic_basis

    for factory in (curves.triangle, curves.theta_graph, curves.k4):
        curve = factory()
        g = KahlerForm.constant(curve, 1.0)
        mesh = build_mesh(curve, g, 1 / 64, 1e-4)
        for bidegree in ((1, 0), (0, 0)):
            system = assemble(mesh, curve, g, bidegree)
            spectral = kernel(system)
            exact = harmonic_basis(curve, g, bidegree)
            angle = _principal_angle(system, spectral, list(exact.forms))
            assert angle <= 1e-6


def test_stiffness_positive_semidefinite_mass_positive_definite():
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    mesh = build_mesh(legs, g, 1 / 8, 1e-4)
    for bidegree in ((0, 0), (1, 0)):
        system = assemble(mesh, legs, g, bidegree)
        K = system.stiffness.toarray()
        M = system.mass.toarray()
        k_eigs = np.linalg.eigvalsh(K)
        assert k_eigs.min() >= -1e-10 * abs(k_eigs.max())
        assert np.linalg.eigvalsh(M).min() > 0.0
