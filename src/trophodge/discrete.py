"""Finite-element Laplace-Beltrami systems with Kirchhoff vertex coupling.

Piecewise-linear conforming elements on each edge discretize the
quadratic forms of the Laplacian on (0,0)- and (1,0)-forms:

  (0,0): stiffness  int f'^2 dx,        mass  int f^2 g dx,
         continuity imposed by sharing vertex degrees of freedom
         (the derivative Kirchhoff condition is natural);
  (1,0): stiffness  int (1/g) psi'^2 dx, mass int psi^2 dx,
         end values per edge stay independent and Kirchhoff's law is an
         explicit constraint row per vertex of degree >= 2.

Infinite edges are truncated where the weight's tail mass and tail
second moment both drop below a threshold; (0,0) leaves the cut end
free (constants must survive: they are square integrable because the
total mass is finite) while (1,0) pins it to zero (regularity at
infinity).  Constraints are eliminated through a nullspace basis,
never penalties, so the kernel gap stays clean.  Every edge-end degree
of freedom lies in at most one vertex's Kirchhoff row, with coefficient
+1 (head end) or -1 (tail end), so the rows have disjoint supports and
are independent.  Solving each row for its lowest DOF gives the basis
in closed form; its entries are 0 and +-1, which floats hold exactly,
and it is the basis reduced row-echelon form would give.  The kernel
dimension is read off a spectral gap ratio with an explicit failure
mode instead of a silent threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .curve import TropicalCurve
from .exact import rref  # noqa: F401 -- unused; the benchmark's tracer wraps discrete.rref by name
from .metric import KahlerForm
from .quadrature import DEFAULT_RULE, QuadratureRule, gauss_legendre, integrate_finite, integrate_lower_tail
from .superform import Bidegree, EdgeFunction, Superform

__all__ = [
    "Mesh",
    "TruncationRecord",
    "DiscreteSystem",
    "SpectralResult",
    "AmbiguousKernelError",
    "TailNeighborhood",
    "StarNeighborhood",
    "build_mesh",
    "assemble",
    "kernel",
    "spectrum",
    "solve_dbar_local",
    "vector_to_superform",
]

_TAIL_SEARCH_CAP = 2**60


class AmbiguousKernelError(RuntimeError):
    """No admissible spectral gap separates a kernel from the rest."""


@dataclass(frozen=True)
class TruncationRecord:
    edge: str
    cutoff: float
    tail_mass: float
    tail_second_moment: float


@dataclass(frozen=True)
class Mesh:
    curve: TropicalCurve
    h: float
    trunc_eps: float
    nodes: dict  # edge id -> ascending chart coordinates, last one 0.0
    truncations: tuple[TruncationRecord, ...]

    def truncation(self, edge_id: str) -> TruncationRecord | None:
        for rec in self.truncations:
            if rec.edge == edge_id:
                return rec
        return None


def _tail_cutoff(fn: EdgeFunction, trunc_eps: float, rule: QuadratureRule) -> TruncationRecord | None:
    """Smallest doubling candidate L with both tail integrals <= eps."""
    candidates = [0.0]
    L = 1.0
    while L <= _TAIL_SEARCH_CAP:
        candidates.append(L)
        L *= 2.0
    for L in candidates:
        mass = integrate_lower_tail(fn, -L, rule)
        moment = integrate_lower_tail(lambda x: np.asarray(x) ** 2 * np.asarray(fn(x)), -L, rule)
        if mass <= trunc_eps and moment <= trunc_eps:
            return TruncationRecord("", L, mass, moment)
    return None


def build_mesh(curve: TropicalCurve, g: KahlerForm, h: float, trunc_eps: float,
               rule: QuadratureRule = DEFAULT_RULE) -> Mesh:
    """Uniform step <= h per edge; infinite edges truncated first."""
    if h <= 0 or trunc_eps <= 0:
        raise ValueError("h and trunc_eps must be positive")
    nodes = {}
    truncations = []
    for e in curve.sorted_edges():
        if e.infinite:
            rec = _tail_cutoff(g.weights[e.id], trunc_eps, rule)
            if rec is None:
                raise ValueError(
                    f"edge {e.id!r}: no cutoff below 2^60 keeps tail integrals under {trunc_eps}"
                    " (is the weight a valid Kahler weight?)"
                )
            rec = TruncationRecord(e.id, rec.cutoff, rec.tail_mass, rec.tail_second_moment)
            truncations.append(rec)
            length = rec.cutoff
            if length == 0.0:
                warnings.warn(
                    f"edge {e.id!r}: truncation threshold exceeds the whole tail; "
                    "the edge degenerates to its head vertex"
                )
                nodes[e.id] = np.array([0.0])
                continue
        else:
            length = e.length
        n = max(1, int(math.ceil(length / h - 1e-12)))
        nodes[e.id] = np.linspace(-length, 0.0, n + 1)
    return Mesh(curve, h, trunc_eps, nodes, tuple(truncations))


@dataclass(frozen=True)
class DofMap:
    n_dofs: int
    edge_dofs: dict  # edge id -> int array per node, -1 for eliminated
    vertex_dofs: dict  # vertex id -> dof (bidegree (0,0) only)


@dataclass(frozen=True)
class DiscreteSystem:
    bidegree: Bidegree
    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    constraints: np.ndarray  # (m, n), full row rank; empty for (0,0)
    dof_map: DofMap
    mesh: Mesh


def _dof_layout(mesh: Mesh, bidegree: Bidegree) -> DofMap:
    curve = mesh.curve
    edge_dofs = {}
    vertex_dofs = {}  # leaves of infinite edges never get one: their node is at -inf
    counter = 0
    if bidegree.as_tuple() == (0, 0):
        for e in curve.sorted_edges():
            coords = mesh.nodes[e.id]
            ids = np.empty(len(coords), dtype=int)
            for i in range(len(coords)):
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
    else:
        for e in curve.sorted_edges():
            coords = mesh.nodes[e.id]
            ids = np.empty(len(coords), dtype=int)
            for i in range(len(coords)):
                if e.infinite and i == 0:
                    ids[i] = -1  # essential zero at the truncation node
                    continue
                ids[i] = counter
                counter += 1
            edge_dofs[e.id] = ids
    return DofMap(counter, edge_dofs, vertex_dofs)


def _element_weights(fn, coords: np.ndarray, order: int = 8) -> np.ndarray:
    """Per-element integrals of ``fn`` over [coords[i], coords[i+1]]."""
    xi, wi = gauss_legendre(order)
    lo, hi = coords[:-1], coords[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    points = mid[:, None] + half[:, None] * xi[None, :]
    values = np.asarray(fn(points.ravel()), dtype=float).reshape(points.shape)
    return (values @ wi) * half


def _element_mass_weighted(fn, coords: np.ndarray, order: int = 8):
    """P1 element mass matrices (2x2 each) with weight ``fn``."""
    xi, wi = gauss_legendre(order)
    lo, hi = coords[:-1], coords[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    points = mid[:, None] + half[:, None] * xi[None, :]
    values = np.asarray(fn(points.ravel()), dtype=float).reshape(points.shape)
    # reference basis on [-1, 1]: (1 - t)/2 and (1 + t)/2
    phi0 = 0.5 * (1.0 - xi)
    phi1 = 0.5 * (1.0 + xi)
    m00 = (values * phi0 * phi0) @ wi * half
    m01 = (values * phi0 * phi1) @ wi * half
    m11 = (values * phi1 * phi1) @ wi * half
    return m00, m01, m11


def assemble(mesh: Mesh, curve: TropicalCurve, g: KahlerForm, bidegree) -> DiscreteSystem:
    """Assemble stiffness, mass and Kirchhoff constraints for one bidegree."""
    bd = bidegree if isinstance(bidegree, Bidegree) else Bidegree(*bidegree)
    if bd.as_tuple() not in ((0, 0), (1, 0)):
        raise ValueError(
            "only bidegrees (0,0) and (1,0) are discretized; the others follow by star duality"
        )
    dof_map = _dof_layout(mesh, bd)
    n = dof_map.n_dofs
    # one block of COO triplets per edge; within it the entries of each
    # element in the order a-a, b-b, a-b, b-a, so duplicates are summed
    # in a fixed order
    blocks = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))]
    for e in curve.sorted_edges():
        coords = mesh.nodes[e.id]
        if len(coords) < 2:
            continue
        dofs = dof_map.edge_dofs[e.id]
        lengths = np.diff(coords)
        weight = g.weights[e.id]
        if bd.as_tuple() == (0, 0):
            k_scale = 1.0 / lengths
            m00, m01, m11 = _element_mass_weighted(weight, coords)
        else:
            inv_weight = EdgeFunction.constant(1.0, weight.domain).divide(weight)
            k_scale = _element_weights(inv_weight, coords) / lengths**2
            m00 = m11 = lengths / 3.0
            m01 = lengths / 6.0
        a, b = dofs[:-1], dofs[1:]
        r = np.stack([a, b, a, b], axis=1).ravel()
        c = np.stack([a, b, b, a], axis=1).ravel()
        k = np.stack([k_scale, k_scale, -k_scale, -k_scale], axis=1).ravel()
        m = np.stack([m00, m11, m01, m01], axis=1).ravel()
        keep = (r >= 0) & (c >= 0)  # -1 marks a DOF eliminated by truncation
        blocks.append((r[keep], c[keep], k[keep], m[keep]))

    rows, cols, vals_k, vals_m = map(np.concatenate, zip(*blocks))
    K = scipy.sparse.csr_matrix((vals_k, (rows, cols)), shape=(n, n))
    M = scipy.sparse.csr_matrix((vals_m, (rows, cols)), shape=(n, n))

    constraints = np.zeros((0, n))
    if bd.as_tuple() == (1, 0):
        kept = []
        for v in curve.sorted_vertices():
            if curve.degree(v) < 2:
                continue
            row = np.zeros(n)
            for e, side in curve.edge_ends_at(v):
                if e.infinite and side == "tail":
                    continue
                dofs = dof_map.edge_dofs[e.id]
                dof = dofs[-1] if side == "head" else dofs[0]
                if dof < 0:
                    continue  # end already pinned to zero by truncation
                row[dof] += 1.0 if side == "head" else -1.0
            if np.any(row):
                kept.append(row)
        if kept:
            constraints = np.asarray(kept)
        _kirchhoff_entries(constraints)

    return DiscreteSystem(bd, K, M, constraints, dof_map, mesh)


def _kirchhoff_entries(B: np.ndarray):
    """Row, column and value of each nonzero of B, row by row.

    Raises unless every row is nonempty, every entry is +-1 and no
    column appears in two rows: the structure the closed-form nullspace
    relies on.
    """
    rows, cols = np.nonzero(B)
    vals = B[rows, cols]
    if np.any(np.abs(vals) != 1.0):
        raise RuntimeError("Kirchhoff constraint entries must be +-1")
    if np.unique(cols).size != cols.size:
        raise RuntimeError("a degree of freedom appears in two Kirchhoff constraint rows")
    if np.unique(rows).size != B.shape[0]:
        raise RuntimeError("a Kirchhoff constraint row is empty")
    return rows, cols, vals


def _constraint_nullspace(B: np.ndarray) -> scipy.sparse.csr_matrix:
    """Nullspace basis Z of the Kirchhoff rows B, without elimination.

    Each row's pivot is its lowest column; the free columns are all
    others, ascending.  Column j of Z is 1 at the j-th free column f
    and, if f lies in row r, -B[r, f] / B[r, pivot(r)] at that row's
    pivot.  This is the basis the reduced row-echelon form of B gives,
    because the rows' supports are disjoint.
    """
    n = B.shape[1]
    if B.shape[0] == 0:
        return scipy.sparse.eye(n, format="csr")
    rows, cols, vals = _kirchhoff_entries(B)
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    pivot_col, pivot_val = cols[first], vals[first]  # indexed by row
    free = np.ones(n, dtype=bool)
    free[pivot_col] = False
    free_cols = np.flatnonzero(free)
    column_of = np.cumsum(free) - 1
    r, f = rows[~first], cols[~first]
    z_rows = np.concatenate([free_cols, pivot_col[r]])
    z_cols = np.concatenate([np.arange(free_cols.size), column_of[f]])
    z_vals = np.concatenate([np.ones(free_cols.size), -vals[~first] / pivot_val[r]])
    return scipy.sparse.csr_matrix((z_vals, (z_rows, z_cols)), shape=(n, free_cols.size))


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray  # ascending
    vectors: np.ndarray      # columns, M-orthonormal, full DOF space
    kernel_dimension: int | None = None
    gap_ratio: float | None = None

    def as_dict(self) -> dict:
        out = {"eigenvalues": [float(x) for x in self.eigenvalues]}
        if self.kernel_dimension is not None:
            out["kernel_dimension"] = self.kernel_dimension
            out["gap_ratio"] = self.gap_ratio
        return out


def _reduced_pencil(system: DiscreteSystem):
    Z = _constraint_nullspace(system.constraints)
    A = (Z.T @ (system.stiffness @ Z)).tocsr()
    B = (Z.T @ (system.mass @ Z)).tocsr()
    A = (A + A.T) * 0.5
    B = (B + B.T) * 0.5
    return Z, A, B


def _dense_eigensolve(A, B):
    return scipy.linalg.eigh(A.toarray(), B.toarray())


_DENSE_LIMIT = 400
_MACHINE_EPS = float(np.finfo(float).eps)


def _probe_small_eigenvalues(A, B, want: int):
    """Smallest ``want`` eigenvalues of the reduced pencil.

    Small systems go through the dense solver.  Large ones use
    shift-invert Lanczos at sigma = -1: the factorization of A + B makes
    the accuracy of the returned small eigenvalues scale with the shift,
    not with the largest stiffness entry, which matters when a truncated
    weight makes 1/g enormous near the cut.  The start vector is fixed,
    so reruns are bit-identical.
    """
    nred = A.shape[0]
    if nred <= _DENSE_LIMIT or want > nred // 2:
        lam, vec = _dense_eigensolve(A, B)
        return lam[:want], vec[:, :want], float(np.abs(lam).max(initial=0.0))
    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(0).standard_normal(nred)
    lam, vec = spla.eigsh(A, k=want, M=B, sigma=-1.0, which="LM", v0=v0, tol=0)
    order = np.argsort(lam)
    return lam[order], vec[:, order], float(np.abs(lam).max(initial=0.0))


def kernel(system: DiscreteSystem, gap_ratio_min: float = 1000.0) -> SpectralResult:
    """Kernel of the reduced pencil, detected by a spectral gap ratio.

    The kernel dimension is the first d >= 0 such that
    lambda_{d+1} / max(lambda_d, lambda_floor) >= gap_ratio_min, where
    lambda_floor = max(1e-14 ||K||, 8 eps max|lambda|) combines the
    stiffness scale with the eigensolver's own resolution.  If no d
    qualifies the kernel is reported ambiguous, never silently chosen.
    """
    if gap_ratio_min <= 1.0:
        raise ValueError("gap_ratio_min must exceed 1")
    Z, A, B = _reduced_pencil(system)
    nred = A.shape[0]
    if nred == 0:
        return SpectralResult(np.zeros(0), np.zeros((system.dof_map.n_dofs, 0)), 0, math.inf)
    norm_k = float(np.max(np.abs(A).sum(axis=1))) if A.nnz else 0.0

    want = min(nred, 8)
    while True:
        lam, vec, lam_scale = _probe_small_eigenvalues(A, B, want)
        floor = max(1e-14 * norm_k, 8.0 * _MACHINE_EPS * lam_scale, 1e-300)
        for d in range(lam.size):
            denom = max(lam[d - 1] if d >= 1 else floor, floor)
            ratio = lam[d] / denom
            if ratio >= gap_ratio_min:
                vectors = Z @ vec[:, :d]
                shown = min(lam.size, d + 5)
                return SpectralResult(lam[:shown].copy(), vectors, d, float(ratio))
        if want >= nred:
            raise AmbiguousKernelError(
                f"no gap ratio >= {gap_ratio_min} found (eigenvalues start {lam[: min(6, lam.size)]})"
            )
        want = min(nred, want * 2)


def spectrum(system: DiscreteSystem, k: int) -> SpectralResult:
    """k smallest eigenvalues with M-orthonormal eigenvectors (dense solve)."""
    Z, A, B = _reduced_pencil(system)
    if k > A.shape[0]:
        raise ValueError(f"requested {k} eigenvalues from a system of dimension {A.shape[0]}")
    if k == 0:
        return SpectralResult(np.zeros(0), np.zeros((system.dof_map.n_dofs, 0)))
    lam, vec = _dense_eigensolve(A, B)
    return SpectralResult(lam[:k].copy(), Z @ vec[:, :k])


def vector_to_superform(system: DiscreteSystem, u: np.ndarray) -> Superform:
    """Interpolate one DOF vector back to a piecewise-linear superform."""
    coeffs = {}
    for eid, coords in system.mesh.nodes.items():
        dofs = system.dof_map.edge_dofs[eid]
        values = np.where(dofs >= 0, u[np.maximum(dofs, 0)], 0.0)
        xs = coords.copy()
        ys = np.asarray(values, dtype=float)

        def fn(x, xs=xs, ys=ys):
            return np.interp(np.asarray(x, dtype=float), xs, ys)

        e = system.mesh.curve.edge(eid)
        coeffs[eid] = EdgeFunction(fn, None, None, e.chart)
    return Superform(system.bidegree, coeffs)


# -- the local right inverse of d'' ------------------------------------


@dataclass(frozen=True)
class TailNeighborhood:
    """One-edge neighborhood [-inf, a) of a degree-one vertex."""

    edge: str
    a: float = 0.0


@dataclass(frozen=True)
class StarNeighborhood:
    """Vertex star with legs (-reach, 0] in vertex-local charts."""

    vertex: str
    reach: float


class _Cumulative:
    """Vectorized antiderivative F(x) = integral from anchor to x.

    A fixed fine Gauss-Legendre panel mesh between the anchor and the
    upper end is summed into prefix values once; queries combine the
    prefix with one partial-panel quadrature, batched over the query
    points.
    """

    def __init__(self, fn, lo: float, hi: float, order: int = 16, panel: float = 0.125):
        self.fn = fn
        self.lo = lo
        self.hi = hi
        self.order = order
        n = max(2, int(math.ceil((hi - lo) / panel)))
        self.bounds = np.linspace(lo, hi, n + 1)
        xi, wi = gauss_legendre(order)
        half = 0.5 * np.diff(self.bounds)
        mid = 0.5 * (self.bounds[:-1] + self.bounds[1:])
        points = mid[:, None] + half[:, None] * xi[None, :]
        values = np.asarray(fn(points.ravel()), dtype=float).reshape(points.shape)
        panel_integrals = (values @ wi) * half
        self.prefix = np.concatenate([[0.0], np.cumsum(panel_integrals)])

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        x = np.clip(x, self.lo, self.hi)
        idx = np.clip(np.searchsorted(self.bounds, x, side="right") - 1, 0, len(self.bounds) - 2)
        lo = self.bounds[idx]
        base = self.prefix[idx]
        xi, wi = gauss_legendre(self.order)
        half = 0.5 * (x - lo)
        mid = 0.5 * (x + lo)
        points = mid[:, None] + half[:, None] * xi[None, :]
        values = np.asarray(self.fn(points.ravel()), dtype=float).reshape(points.shape)
        return base + (values @ wi) * half


def _tail_psi(fn_omega, p: int, a: float, rule: QuadratureRule, domain) -> EdgeFunction:
    reach = 48.0
    cumulative = _Cumulative(fn_omega, a - reach, a)
    if p == 0:
        # psi(x) = -int_x^a omega = F(x) - F(a) with F anchored at a - reach
        offset = float(cumulative(np.array([a]))[0])

        def value(x):
            x = np.asarray(x, dtype=float)
            deep = x < a - reach
            out = cumulative(x) - offset
            if np.any(deep):
                flat = np.atleast_1d(out)
                for i in np.nonzero(np.atleast_1d(deep))[0]:
                    xi_val = float(np.atleast_1d(x)[i])
                    flat[i] = -integrate_finite(fn_omega, xi_val, a, rule)
                out = flat
            return out if np.ndim(x) else float(np.atleast_1d(out)[0])

        deriv = EdgeFunction(fn_omega, None, None, domain)
        return EdgeFunction(value, lambda: deriv, None, domain)

    # p = 1: psi(x) = -int_{-inf}^x omega
    anchor = a - reach
    head = integrate_lower_tail(fn_omega, anchor, rule)

    def value(x):
        x = np.asarray(x, dtype=float)
        out = -(head + cumulative(x))
        deep = np.atleast_1d(x) < anchor
        if np.any(deep):
            flat = np.atleast_1d(out)
            xv = np.atleast_1d(x)
            for i in np.nonzero(deep)[0]:
                flat[i] = -integrate_lower_tail(fn_omega, float(xv[i]), rule)
            out = flat
        return out if np.ndim(x) else float(np.atleast_1d(out)[0])

    deriv = EdgeFunction(lambda x: -np.asarray(fn_omega(x)), None, None, domain)
    return EdgeFunction(value, lambda: deriv, None, domain)


def solve_dbar_local(omega: Superform, g: KahlerForm, rule: QuadratureRule,
                     neighborhood) -> Superform:
    """Right inverse of d'' on a tail neighborhood or a vertex star.

    Tail [-inf, a): for (0,1) input the solution is
    psi(x) = -int_x^a omega(t) dt, for (1,1) input
    psi(x) = -int_{-inf}^x omega(t) dt.  On a vertex star the per-leg
    antiderivatives vanish at the vertex, so continuity respectively
    Kirchhoff's law holds exactly.
    """
    if omega.bidegree.q != 1:
        raise ValueError("solve_dbar_local inverts d'' on forms of bidegree (p,1)")
    p = omega.bidegree.p
    curve = g.curve

    if isinstance(neighborhood, TailNeighborhood):
        e = curve.edge(neighborhood.edge)
        if not e.infinite:
            raise ValueError(f"edge {e.id!r} is finite; tail neighborhoods live on infinite edges")
        fn = omega.coefficients[e.id]
        domain = (-math.inf, neighborhood.a)
        psi = _tail_psi(fn, p, neighborhood.a, rule, domain)
        return Superform(Bidegree(p, 0), {e.id: psi})

    if not isinstance(neighborhood, StarNeighborhood):
        raise TypeError("neighborhood must be a TailNeighborhood or a StarNeighborhood")

    v = neighborhood.vertex
    reach = neighborhood.reach
    ends = curve.edge_ends_at(v)
    shortest = min((e.length for e, _ in ends if not e.infinite), default=math.inf)
    if reach <= 0 or reach > shortest:
        raise ValueError(f"star reach must lie in (0, {shortest}]")
    coeffs = {}
    for e, side in ends:
        if e.tail == e.head:
            raise NotImplementedError("vertex stars with self-loops are not supported")
        fn = omega.coefficients[e.id]
        if side == "head":
            local_omega = fn
            lo, hi = -reach, 0.0
        else:
            length = e.length
            sign_in = -1.0 if (p, 1) == (0, 1) else 1.0

            def local_from_canonical(t, fn=fn, length=length, sign_in=sign_in):
                return sign_in * np.asarray(fn(-length - np.asarray(t, dtype=float)))

            local_omega = local_from_canonical
            lo, hi = -reach, 0.0

        cumulative = _Cumulative(local_omega, lo, hi)
        total = float(cumulative(np.array([hi]))[0])
        sign_psi = 1.0 if p == 1 else -1.0

        def psi_local(t, cumulative=cumulative, total=total, sign_psi=sign_psi):
            # int_t^0 omega = F(0) - F(t)
            return sign_psi * (total - cumulative(t))

        if side == "head":
            def raw(x, psi_local=psi_local):
                return psi_local(x)
            domain = (max(-reach, -e.length), 0.0) if not e.infinite else (-reach, 0.0)
        else:
            sign_out = -1.0 if p == 1 else 1.0

            def raw(x, psi_local=psi_local, length=e.length, sign_out=sign_out):
                return sign_out * np.asarray(psi_local(-length - np.asarray(x, dtype=float)))
            domain = (-e.length, -e.length + reach)

        def value(x, raw=raw):
            out = raw(x)
            return out if np.ndim(x) else float(np.atleast_1d(out)[0])

        coeffs[e.id] = EdgeFunction(value, None, None, domain)
    return Superform(Bidegree(p, 0), coeffs)
