import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from trophodge import curves, discrete
from trophodge.checks import _TAIL_WINDOW_BOUND, _smoothstep_window, band_window
from trophodge.curve import Edge, TropicalCurve
from trophodge.discrete import (
    AmbiguousKernelError,
    BudgetError,
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
from trophodge.quadrature import integrate_finite, integrate_lower_tail
from trophodge.superform import Bidegree, EdgeFunction, Superform, d_second, is_regular

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
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, {"legA": {"kind": "expr", "formula": "0.000000001*exp(2*x)"}})
    with pytest.warns(UserWarning, match="degenerates"):
        mesh = build_mesh(legs, g, 0.25, 1e-4)
    assert len(mesh.nodes["legA"]) == 1
    assert len(mesh.nodes["legB"]) > 1


def test_truncation_that_leaves_no_element_is_rejected():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning before the error
        with pytest.raises(ValueError, match=r"trunc_eps=5\.0 collapses every leg \(left, right\)"):
            build_mesh(tp1, g, 0.25, 5.0)


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
    B = system.constraints.toarray()
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


def _mesh_unless_all_collapsed(curve, g, h):
    """build_mesh at trunc_eps 1e-4, or None when truncation collapses
    every edge, which build_mesh must reject."""
    if all(e.infinite and discrete._tail_cutoff(e.id, g.weights[e.id], 1e-4).cutoff == 0.0 for e in curve.edges):
        with pytest.raises(ValueError, match="no element remains"):
            build_mesh(curve, g, h, 1e-4)
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a collapsed leg warns
        return build_mesh(curve, g, h, 1e-4)


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
    mesh = _mesh_unless_all_collapsed(curve, g, h)
    if mesh is None:
        return
    for bidegree in ((0, 0), (1, 0)):
        system = assemble(mesh, curve, g, bidegree)
        K, M = _scatter_reference(system, g)
        assert _same_csr(system.stiffness, K) and _same_csr(system.mass, M)

    B = system.constraints.toarray()
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

    B = system.constraints.toarray()
    B[1, np.flatnonzero(B[0])[0]] = 1.0  # row 1 now shares a DOF with row 0
    with pytest.raises(RuntimeError, match="two Kirchhoff"):
        kernel(dataclasses.replace(system, constraints=B))

    # every vertex sees every edge end: each DOF lands in all three rows
    ends_at = TropicalCurve.edge_ends_at
    monkeypatch.setattr(TropicalCurve, "edge_ends_at",
                        lambda self, v: [end for u in self.sorted_vertices() for end in ends_at(self, u)])
    with pytest.raises(RuntimeError, match="two Kirchhoff"):
        assemble(mesh, tri, g, (1, 0))


def _dof_layout_per_node(mesh, bidegree):
    """The DOF numbering one node at a time, the reference for _dof_layout."""
    edge_dofs, vertex_dofs, counter = {}, {}, 0
    for e in mesh.curve.sorted_edges():
        coords = mesh.nodes[e.id]
        ids = np.empty(len(coords), dtype=int)
        for i in range(len(coords)):
            if bidegree.as_tuple() == (1, 0):
                if e.infinite and i == 0:
                    ids[i] = -1
                    continue
                ids[i] = counter
                counter += 1
                continue
            is_head = i == len(coords) - 1
            is_tail = i == 0 and not e.infinite and len(coords) > 1
            if is_head or is_tail:
                v = e.head if is_head else e.tail
                if v not in vertex_dofs:
                    vertex_dofs[v] = counter
                    counter += 1
                ids[i] = vertex_dofs[v]
            else:
                ids[i] = counter
                counter += 1
        edge_dofs[e.id] = ids
    return counter, edge_dofs, vertex_dofs


def test_dof_layout_matches_the_per_node_numbering():
    loop_with_leg = TropicalCurve(("v0", "L"), (Edge("e0", "v0", "v0", 0.5), Edge("leg", "L", "v0", math.inf)))
    collapsed = 0
    for curve in [getattr(curves, name)() for name in curves.__all__] + [loop_with_leg]:
        g = KahlerForm.from_spec(curve, None)
        for h in (1.0, 1 / 8):
            for trunc_eps in (1e-4, 0.6):  # 0.6 collapses Fubini-Study legs to their heads
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        mesh = build_mesh(curve, g, h, trunc_eps)
                except ValueError:  # every edge collapsed
                    continue
                collapsed += sum(len(nodes) == 1 for nodes in mesh.nodes.values())
                for bidegree in (Bidegree(0, 0), Bidegree(1, 0)):
                    dof_map = discrete._dof_layout(mesh, bidegree)
                    n_dofs, edge_dofs, vertex_dofs = _dof_layout_per_node(mesh, bidegree)
                    assert dof_map.n_dofs == n_dofs and dof_map.vertex_dofs == vertex_dofs
                    assert dof_map.edge_dofs.keys() == edge_dofs.keys()
                    for eid, ids in edge_dofs.items():
                        assert dof_map.edge_dofs[eid].dtype == ids.dtype
                        assert np.array_equal(dof_map.edge_dofs[eid], ids), (eid, bidegree)
    assert collapsed > 0


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


def test_ambiguous_kernel_is_reported(monkeypatch):
    # two nearly-equal smallest eigenvalues with no thousandfold gap:
    # a single Neumann edge probed with an extreme gap requirement
    edge = curves.single_edge(1.0)
    g = KahlerForm.constant(edge, 1.0)
    mesh = build_mesh(edge, g, 1 / 4, 1e-4)
    system = assemble(mesh, edge, g, (0, 0))
    monkeypatch.setattr(discrete, "GAP_RATIO_MIN", 1e30)
    with pytest.raises(AmbiguousKernelError):
        kernel(system)


def _check_against_dense(curve, g, h):
    """spectrum and kernel agree with a dense eigensolve of the reduced pencil."""
    mesh = _mesh_unless_all_collapsed(curve, g, h)
    if mesh is None:
        return
    for bidegree in ((0, 0), (1, 0)):
        system = assemble(mesh, curve, g, bidegree)
        _, A, B = discrete._reduced_pencil(system)
        n = A.shape[0]
        if n == 0:
            continue
        A, B = A.toarray(), B.toarray()
        plain = scipy.linalg.eigh(A, B, eigvals_only=True)
        mu = scipy.linalg.eigh(A, A + B, eigvals_only=True)
        # (A, B) gives lambda to about eps max(lambda) and (A, A + B), as
        # mu = lambda / (1 + lambda), to about eps (1 + lambda)^2: take the better
        dense = np.where((1.0 + plain) ** 2 < plain[-1], mu / (1.0 - mu), plain)
        for k in sorted({1, min(n, 6), n // 2, n} - {0}):
            result = spectrum(system, k)
            error = np.abs(result.eigenvalues - dense[:k])
            assert np.all(error <= np.maximum(1e-8 * np.abs(dense[:k]), 1e-10)), (bidegree, k)
            U = result.vectors
            assert np.abs(U.T @ (system.mass @ U) - np.eye(k)).max() <= 1e-12, (bidegree, k)
        result = kernel(system)
        d = result.kernel_dimension
        middle = result.eigenvalues[d] / math.sqrt(result.gap_ratio) if d < n else math.inf
        assert np.count_nonzero(dense < middle) == d, bidegree


@pytest.mark.parametrize("h", [1 / 2, 1 / 4])
@pytest.mark.parametrize(
    "factory",
    [curves.projective_line, lambda: curves.star(3), curves.triangle, curves.theta_graph, curves.k4,
     curves.triangle_with_legs, curves.single_edge],
)
def test_solver_matches_dense_eigensolve(factory, h):
    curve = factory()
    _check_against_dense(curve, KahlerForm.from_spec(curve, None), h)


@settings(max_examples=25, deadline=None)
@given(multigraphs(), st.sampled_from([1 / 2, 1 / 4]))
def test_solver_matches_dense_eigensolve_on_multigraphs(case, h):
    _check_against_dense(*case, h)


def test_first_block_respects_the_size_cap(monkeypatch):
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    system = assemble(build_mesh(tri, g, 1 / 8, 1e-4), tri, g, (0, 0))
    n = system.stiffness.shape[0]

    def no_factor(*args):
        raise AssertionError("factored before the size cap was checked")

    monkeypatch.setattr(discrete, "_MAX_BLOCK_ENTRIES", n * (3 + 4) - 1)
    monkeypatch.setattr(discrete, "_factor", no_factor)
    with pytest.raises(BudgetError, match="exceeds the cap"):
        spectrum(system, 3)


class _RecordingFactor:
    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, X):
        self.widths.append(X.shape[1])
        return self.lu.solve(X)


@pytest.mark.parametrize("n,widths", [(1024, [8, 8, 4]), (1023, [20])])
def test_block_solve_groups_columns_that_share_cache_sets(n, widths):
    # at n = 1024 the columns of a block lie 8 KiB apart, on the same sets of a
    # 4 KiB-periodic cache; at n = 1023 they spread over the sets
    A = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    B = scipy.sparse.identity(n, format="csr")
    lu = discrete._factor(A, B, -1.0)[0]
    X = np.random.default_rng(0).standard_normal((n, 20))
    recording = _RecordingFactor(lu)
    Y = discrete._solve(recording, X)
    assert recording.widths == widths
    assert Y.flags.f_contiguous
    assert np.array_equal(Y, lu.solve(X))


def test_pencil_without_kirchhoff_rows_is_the_assembled_one():
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    system = assemble(build_mesh(legs, g, 1 / 8, 1e-4), legs, g, (0, 0))
    Z, A, B = discrete._reduced_pencil(system)
    assert A is system.stiffness and B is system.mass
    assert np.array_equal(Z.toarray(), np.eye(system.dof_map.n_dofs))


def test_node_budget_admits_meshes_finer_than_any_solve():
    # with its default weight triangle_with_legs meshes to 19 units of length,
    # so h = 1/65536 (the finest step of bench/cliffs.py) needs 1.25M nodes
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    mesh = build_mesh(legs, g, 1 / 65536, 1e-4)
    assert sum(len(nodes) for nodes in mesh.nodes.values()) == 1245189
    with pytest.raises(BudgetError, match="at least 4980741"):
        build_mesh(legs, g, 1 / 262144, 1e-4)


def test_exact_zero_pivot_in_the_middle_of_a_gap():
    # one element per edge: the eigenvalues are 0 (genus 3 times) and 48,
    # and A - 24 B needs an off-diagonal pivot, so its inertia is unknown
    curve = TropicalCurve(("v0", "v1"), tuple(Edge(f"e{i}", "v0", "v1", 0.5) for i in range(4)))
    g = KahlerForm.constant(curve, 1.0)
    system = assemble(build_mesh(curve, g, 0.5, 1e-4), curve, g, (1, 0))
    with pytest.raises(AmbiguousKernelError, match="off-diagonal"):
        discrete._factor(*discrete._reduced_pencil(system)[1:], 24.0)
    assert abs(spectrum(system, 1).eigenvalues[0]) < 1e-12
    assert kernel(system).kernel_dimension == 3


def test_kernel_of_a_system_that_is_all_kernel():
    # a loop of one element: a single degree of freedom, with no eigenvalue above the kernel
    curve = TropicalCurve(("v0",), (Edge("e0", "v0", "v0", 0.5),))
    g = KahlerForm.constant(curve, 1.0)
    mesh = build_mesh(curve, g, 0.5, 1e-4)
    for bidegree in ((0, 0), (1, 0)):
        result = kernel(assemble(mesh, curve, g, bidegree))
        assert result.kernel_dimension == 1 and result.vectors.shape[1] == 1


def test_kernel_continues_its_first_request(monkeypatch):
    # genus 9: the kernel is wider than the first request of six values
    curve = _lattice(4, ("v0_0", "v3_3"))
    g = KahlerForm.from_spec(curve, None)
    system = assemble(build_mesh(curve, g, 1 / 4, 1e-4), curve, g, (1, 0))
    shifts, starts = [], []
    factor, lowest = discrete._factor, discrete._lowest

    def recording_factor(A, B, shift):
        shifts.append(shift)
        return factor(A, B, shift)

    def recording_lowest(A, B, k, start=None):
        starts.append(start)
        return lowest(A, B, k, start)

    monkeypatch.setattr(discrete, "_factor", recording_factor)
    monkeypatch.setattr(discrete, "_lowest", recording_lowest)
    result = kernel(system)
    assert result.kernel_dimension == 9
    assert len(starts) == 2 and starts[0] is None and starts[1] is not None
    assert shifts.count(-1.0) == 1  # the second request reuses the factor


def _kernel_and_ritz_steps(monkeypatch, bidegree):
    """The kernel dimension of triangle_with_legs at h=1/64 and the Ritz steps it took."""
    curve = curves.triangle_with_legs()
    g = KahlerForm.from_spec(curve, None)
    system = assemble(build_mesh(curve, g, 1 / 64, 1e-4), curve, g, bidegree)
    calls = []
    ritz_vectors = discrete._ritz_vectors

    def counting(S, A, B, rng):
        calls.append(S.shape[1])
        return ritz_vectors(S, A, B, rng)

    monkeypatch.setattr(discrete, "_ritz_vectors", counting)
    return kernel(system).kernel_dimension, len(calls)


@pytest.mark.parametrize("bidegree", [(0, 0), (1, 0)])
def test_kernel_takes_two_solves_per_ritz_step(monkeypatch, bidegree):
    # the Chebyshev filter between Rayleigh-Ritz steps speeds each step's convergence,
    # and the sweeps end once the wanted residuals reach _TOL
    dimension, steps = _kernel_and_ritz_steps(monkeypatch, bidegree)
    assert dimension == 1
    assert steps <= 7


@pytest.mark.parametrize("bidegree", [(0, 0), (1, 0)])
def test_kernel_stall_rule_alone_ends_the_sweeps(monkeypatch, bidegree):
    # with no residual target the sweeps end only when the residual stops halving
    # at the rounding floor, which takes more Ritz steps and finds the same kernel
    steps = _kernel_and_ritz_steps(monkeypatch, bidegree)[1]
    monkeypatch.setattr(discrete, "_TOL", 0.0)
    dimension, stall_steps = _kernel_and_ritz_steps(monkeypatch, bidegree)
    assert dimension == 1
    assert stall_steps > steps


def test_kernel_block_on_a_lattice_stays_narrow(monkeypatch):
    # genus 49 with Fubini-Study legs: 1 + lambda is near 1 for many
    # eigenvalues, so the block must hold them until the squared rate is fast
    curve = _lattice(8, ("v0_0", "v7_7", "v3_4"))
    g = KahlerForm.from_spec(curve, None)
    system = assemble(build_mesh(curve, g, 1 / 8, 1e-4), curve, g, (0, 0))
    widths = []
    widen = discrete._widen

    def recording_widen(S, width, rng):
        widths.append(width)
        return widen(S, width, rng)

    monkeypatch.setattr(discrete, "_widen", recording_widen)
    assert kernel(system).kernel_dimension == 1
    assert max(widths) <= 40


def test_chebyshev_filter_scales_each_eigen_column_by_the_chebyshev_polynomial():
    # on a diagonal pencil the eigen-columns are the unit vectors and T = (A + B)^{-1} B
    # has eigenvalues mu = 1 / (1 + a): column i comes out as C_m(2 mu_i / b - 1) e_i,
    # all up to one common factor
    a = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 7.0, 100.0, 1e4])  # no 2 mu / b - 1 at a zero of C_m
    A = scipy.sparse.diags(a, format="csr")
    B = scipy.sparse.identity(a.size, format="csr")
    lu = discrete._factor(A, B, -1.0)[0]
    mu = 1.0 / (1.0 + a)
    b = mu[3]
    X = np.eye(a.size)
    filtered = discrete._chebyshev(lu, B, X, np.diag(mu), b)
    assert np.abs(filtered - np.diag(np.diag(filtered))).max() <= 1e-15
    chebyshev = np.polynomial.chebyshev.chebval(2.0 * mu / b - 1.0, [0] * discrete._DEGREE + [1])
    ratio = np.diag(filtered) / chebyshev
    assert ratio == pytest.approx(np.full(a.size, ratio[0]), rel=1e-12)


def test_first_kernel_block_is_sized_after_one_solve(monkeypatch):
    # on the raw random block the legs' Ritz values sit near 6e7 and double the
    # first block; one solve ahead of the first Ritz step keeps it k + 4 wide
    curve = curves.triangle_with_legs()
    g = KahlerForm.from_spec(curve, None)
    system = assemble(build_mesh(curve, g, 1 / 512, 1e-4), curve, g, (0, 0))
    widths = []
    ritz_vectors = discrete._ritz_vectors

    def recording(S, A, B, rng):
        widths.append(S.shape[1])
        return ritz_vectors(S, A, B, rng)

    monkeypatch.setattr(discrete, "_ritz_vectors", recording)
    assert kernel(system).kernel_dimension == 1
    assert widths and set(widths) == {6 + 4}


def _lattice(n, legs=(), toward_smaller=False):
    """The n x n lattice of unit edges, with Fubini-Study legs at the named vertices."""
    vertices = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for eid, (a, b) in ((f"h{i}_{j}", (i + 1, j)), (f"w{i}_{j}", (i, j + 1))):
                if a < n and b < n:
                    ends = [f"v{i}_{j}", f"v{a}_{b}"]
                    if toward_smaller:
                        ends.reverse()
                    edges.append(Edge(eid, ends[0], ends[1], 1.0))
    for k, v in enumerate(legs):
        vertices.append(f"leaf{k}")
        edges.append(Edge(f"leg{k}", f"leaf{k}", v, math.inf))
    return TropicalCurve(tuple(vertices), tuple(edges))


@pytest.mark.parametrize(
    "n,legs,toward_smaller",
    [
        (6, (), False),  # genus 25: shift-invert Lanczos did not converge
        (5, ("v0_0", "v2_2"), True),  # genus 16: a silent kernel dimension of 15
        (8, ("v0_0", "v7_7", "v3_4"), False),  # genus 49; its (0,0) kernel is in the narrow-block test
    ],
)
def test_kernel_of_lattices_is_the_genus(n, legs, toward_smaller):
    curve = _lattice(n, legs, toward_smaller)
    g = KahlerForm.from_spec(curve, None)
    system = assemble(build_mesh(curve, g, 1 / 8, 1e-4), curve, g, (1, 0))
    assert kernel(system).kernel_dimension == (n - 1) ** 2


def test_spectrum_of_fubini_study_star_on_a_fine_mesh():
    # 0, then the odd Legendre eigenvalue 2 l (l + 1) = 4 once per leg but one
    star = curves.star(4)
    g = KahlerForm.from_spec(star, None)
    system = assemble(build_mesh(star, g, 1 / 64, 1e-4), star, g, (0, 0))
    lams = spectrum(system, 4).eigenvalues
    assert abs(lams[0]) < 1e-6
    assert lams[1] == pytest.approx(4.0, rel=1e-4)
    assert lams[3] - lams[1] <= 1e-9 * lams[1]


@pytest.mark.parametrize("offset", [-1, 1])
def test_inertia_count_mismatch_is_ambiguous(monkeypatch, offset):
    theta = curves.theta_graph()
    g = KahlerForm.constant(theta, 1.0)
    system = assemble(build_mesh(theta, g, 1 / 8, 1e-4), theta, g, (1, 0))
    factor = discrete._factor

    def miscounting(A, B, shift):
        lu, count = factor(A, B, shift)
        return lu, count + offset

    monkeypatch.setattr(discrete, "_factor", miscounting)
    with pytest.raises(AmbiguousKernelError):
        kernel(system)


# -- the local right inverse of d'' ----------------------------------------


def test_dbar_tail_p0_step_example():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)

    def step(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= -1.0, 1.0, 0.0)

    omega = Superform(Bidegree(0, 1), {"left": EdgeFunction(step, None, None, (-math.inf, 0.0))})
    psi = solve_dbar_local(omega, g, TailNeighborhood("left", 0.0))
    xs = np.array([-3.0, -1.0, -0.5, -0.25])
    assert np.allclose(psi.coefficients["left"](xs), [-1.0, -1.0, -0.5, -0.25], atol=1e-10)
    # pointwise estimate |psi(x)| <= sqrt(a - x) * ||omega||
    norm = math.sqrt(integrate_finite(lambda x: step(x) ** 2, -1.0, 0.0))
    bounds = np.sqrt(-xs) * norm
    assert np.all(np.abs(np.asarray(psi.coefficients["left"](xs))) <= bounds * (1 + 1e-8))


def test_dbar_tail_p1_fubini_study_example():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    omega = Superform(
        Bidegree(1, 1),
        {"left": EdgeFunction.from_expression("2*exp(2*x)/(1+exp(2*x))^2", domain=(-math.inf, 0.0))},
    )
    psi = solve_dbar_local(omega, g, TailNeighborhood("left", 0.0))
    xs = -np.linspace(0.05, 10.0, 41)
    expected = -np.exp(2 * xs) / (1 + np.exp(2 * xs))
    assert np.allclose(psi.coefficients["left"](xs), expected, atol=1e-9)


def test_dbar_zero_input():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    omega = Superform(Bidegree(1, 1), {"left": EdgeFunction.zero((-math.inf, 0.0))})
    psi = solve_dbar_local(omega, g, TailNeighborhood("left", 0.0))
    assert np.allclose(psi.coefficients["left"](-np.linspace(0.1, 5, 7)), 0.0)


def test_dbar_pointwise_estimates_on_quadrature_grid():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    dom = (-math.inf, 0.0)
    omega_fn = EdgeFunction.polynomial([0.7, -0.4], domain=dom) * _smoothstep_window(_TAIL_WINDOW_BOUND, dom)
    xs = -np.linspace(0.01, 24.0, 97)
    # p = 0: |psi(x)| <= sqrt(a-x) ||omega||, norm in the (0,1) product
    omega0 = Superform(Bidegree(0, 1), {"left": omega_fn})
    psi0 = solve_dbar_local(omega0, g, TailNeighborhood("left", 0.0))
    norm0 = math.sqrt(integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2, 0.0))
    vals0 = np.abs(np.asarray(psi0.coefficients["left"](xs)))
    assert np.all(vals0 <= np.sqrt(-xs) * norm0 * (1 + 1e-8))
    # p = 1: |psi(x)| <= sqrt(int_(-inf)^x g) ||omega||, norm weighted by 1/g
    omega1 = Superform(Bidegree(1, 1), {"left": omega_fn})
    psi1 = solve_dbar_local(omega1, g, TailNeighborhood("left", 0.0))
    gfn = g.weights["left"]
    norm1 = math.sqrt(
        integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2 / np.asarray(gfn(x)), 0.0)
    )
    bounds = np.array([math.sqrt(integrate_lower_tail(gfn, float(x))) for x in xs]) * norm1
    vals1 = np.abs(np.asarray(psi1.coefficients["left"](xs)))
    assert np.all(vals1 <= bounds * (1 + 1e-8))
    # operator norm bound ||T_U omega|| <= C ||omega|| with C^2 = int (a-t) g dt
    psi_norm = math.sqrt(
        integrate_lower_tail(lambda x: np.asarray(psi1.coefficients["left"](x)) ** 2, 0.0)
    )
    C = math.sqrt(integrate_lower_tail(lambda x: -np.asarray(x) * np.asarray(gfn(x)), 0.0))
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
            psi = solve_dbar_local(omega, g, TailNeighborhood("left", 0.0))
            pairing_sign = -1.0 if p == 0 else 1.0
            lhs = integrate_lower_tail(
                lambda x: pairing_sign * np.asarray(omega_fn(x)) * np.asarray(phi_fn(x)), 0.0
            )
            rhs = integrate_lower_tail(
                lambda x: np.asarray(psi.coefficients["left"](x)) * np.asarray(dphi(x)), 0.0
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
        Superform(Bidegree(1, 1), {"left": omega_fn}), g, TailNeighborhood("left", 0.0)
    )
    alt = np.array(
        [
            -(integrate_lower_tail(omega_fn, -6.0) + integrate_finite(omega_fn, -6.0, float(x)))
            if x > -6
            else -integrate_lower_tail(omega_fn, float(x))
            for x in xs
        ]
    )
    assert np.max(np.abs(alt - np.asarray(psi1.coefficients["left"](xs)))) <= 1e-8
    # p = 0: answers agree after removing the mean (free additive constant)
    psi0 = solve_dbar_local(
        Superform(Bidegree(0, 1), {"left": omega_fn}), g, TailNeighborhood("left", 0.0)
    )
    shifted = np.array([-integrate_finite(omega_fn, float(x), 0.0) + 0.37 for x in xs])
    ours = np.asarray(psi0.coefficients["left"](xs))
    assert np.max(np.abs((shifted - shifted.mean()) - (ours - ours.mean()))) <= 1e-8


def test_dbar_vertex_star_mixed_ends():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    omega = Superform.on_curve(tri, (1, 1), {"ab": "1+x", "bc": "x^2", "ca": "2"})
    psi = solve_dbar_local(omega, g, StarNeighborhood("A", 0.5))
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
    psi = solve_dbar_local(omega, g, StarNeighborhood("B", 0.25))
    # both end values vanish at the vertex, so continuity holds exactly
    assert float(psi.coefficients["ab"](0.0)) == 0.0  # head end at B
    assert float(psi.coefficients["bc"](-1.0)) == 0.0  # tail end at B


def test_dbar_tail_below_the_summed_panels():
    # below a - 48 the antiderivative is one quadrature per point
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    fn = EdgeFunction.from_expression("(0.3-0.2*x)*exp(x)", domain=(-math.inf, 0.0))
    a = -1.5
    deep = a - np.array([48.5, 60.0, 100.0])
    expected = {
        0: [-integrate_finite(fn, float(x), a) for x in deep],
        1: [-integrate_lower_tail(fn, float(x)) for x in deep],
    }
    for p in (0, 1):
        psi = solve_dbar_local(Superform(Bidegree(p, 1), {"left": fn}), g, TailNeighborhood("left", a))
        coeff = psi.coefficients["left"]
        assert [coeff(float(x)) for x in deep] == expected[p]
        mixed = np.asarray(coeff(np.concatenate([[a - 1.0], deep])))
        assert mixed[1:].tolist() == expected[p]
        assert mixed[0] == coeff(a - 1.0)


def test_dbar_vertex_star_has_the_exact_derivative():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    for p in (0, 1):
        omega = Superform.on_curve(tri, (p, 1), {"ab": "1+x", "bc": "x^2", "ca": "2"})
        for vertex, reach in (("A", 0.5), ("B", 0.25), ("C", 1.0)):
            psi = solve_dbar_local(omega, g, StarNeighborhood(vertex, reach))
            dpsi = d_second(psi)
            assert dpsi.bidegree == omega.bidegree
            for eid, fn in psi.coefficients.items():
                xs = np.linspace(*fn.domain, 33)[1:-1]
                residual = np.asarray(dpsi.coefficients[eid](xs)) - np.asarray(omega.coefficients[eid](xs))
                assert np.max(np.abs(residual)) <= 1e-14


def test_dbar_rejects_a_star_at_the_end_of_a_leg():
    legs = curves.triangle_with_legs()
    g = KahlerForm.from_spec(legs, None)
    omega = Superform.on_curve(legs, (1, 1), {"legA": "exp(2*x)"})
    with pytest.raises(ValueError, match="TailNeighborhood"):
        solve_dbar_local(omega, g, StarNeighborhood("LA", 0.5))


def test_dbar_coefficients_evaluate_elementwise_on_any_shape():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    tail_points = np.array([[-0.5, -3.0], [-60.0, -1.0]])  # one point below the summed panels
    legs = curves.triangle_with_legs()
    cases = [(p, solve_dbar_local(Superform.on_curve(tp1, (p, 1), {"left": "exp(2*x)"}), g,
                                  TailNeighborhood("left", 0.0)).coefficients["left"], tail_points)
             for p in (0, 1)]
    star = solve_dbar_local(Superform.on_curve(legs, (1, 1), {"ab": "1+x", "legA": "exp(2*x)"}),
                            KahlerForm.from_spec(legs, None), StarNeighborhood("A", 0.5))
    cases.append(("star", star.coefficients["ab"], np.array([[-0.9, -0.7], [-0.6, -1.0]])))
    for label, coeff, points in cases:
        values = np.asarray(coeff(points))
        assert values.shape == points.shape, label
        assert values.tolist() == np.asarray(coeff(points.ravel())).reshape(points.shape).tolist(), label


def test_dbar_rejects_wrong_bidegree_and_bad_reach():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    with pytest.raises(ValueError, match="bidegree"):
        solve_dbar_local(Superform.on_curve(tri, (1, 0), {"ab": 1}), g, StarNeighborhood("A", 0.5))
    omega = Superform.on_curve(tri, (1, 1), {"ab": 1})
    with pytest.raises(ValueError, match="reach"):
        solve_dbar_local(omega, g, StarNeighborhood("A", 2.0))


def test_kernel_spans_match_exact_bases_at_fine_mesh():
    from trophodge.checks import _principal_angle
    from trophodge.harmonic import harmonic_basis

    # triangle_with_legs has truncated (1,0) DOFs, marked -1 in the DOF map
    for factory in (curves.triangle, curves.theta_graph, curves.k4, curves.triangle_with_legs):
        curve = factory()
        g = KahlerForm.from_spec(curve, None)  # weight 1 on finite edges, Fubini-Study on legs
        mesh = build_mesh(curve, g, 1 / 64, 1e-4)
        for bidegree in ((1, 0), (0, 0)):
            system = assemble(mesh, curve, g, bidegree)
            spectral = kernel(system)
            exact = harmonic_basis(curve, g, bidegree)
            angle = _principal_angle(system, spectral, exact)
            assert angle <= 1e-6


def _principal_angle_over_forms(system, spectral, forms):
    """Reference: the angle with X filled by evaluating each form on each edge's nodes."""
    X = np.zeros((system.dof_map.n_dofs, len(forms)))
    for j, form in enumerate(forms):
        for eid, coords in system.mesh.nodes.items():
            dofs = system.dof_map.edge_dofs[eid]
            kept = dofs >= 0
            X[dofs[kept], j] = np.asarray(form.coefficients[eid](coords), dtype=float)[kept]
    U, M = spectral.vectors, system.mass
    MU = M @ U
    X = X @ np.linalg.inv(np.linalg.cholesky(X.T @ (M @ X)).T)
    cosines = scipy.linalg.svdvals(X.T @ MU)
    return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))


def test_principal_angle_equals_the_form_loop_bit_for_bit():
    from trophodge.checks import _principal_angle
    from trophodge.harmonic import harmonic_basis

    for factory in (curves.theta_graph, curves.k4, curves.triangle_with_legs):
        curve = factory()
        g = KahlerForm.from_spec(curve, None)
        mesh = build_mesh(curve, g, 1 / 16, 1e-4)
        for bidegree in ((1, 0), (0, 0)):
            system = assemble(mesh, curve, g, bidegree)
            spectral = kernel(system)
            basis = harmonic_basis(curve, g, bidegree)
            assert _principal_angle(system, spectral, basis) == _principal_angle_over_forms(
                system, spectral, basis.forms)


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
