"""Finite-element Laplace-Beltrami systems with Kirchhoff vertex coupling.

Piecewise-linear conforming elements on each edge discretize the
quadratic forms of the Laplacian on (0,0)- and (1,0)-forms:

  (0,0): stiffness  int f'^2 dx,        mass  int f^2 g dx,
         continuity imposed by sharing vertex degrees of freedom
         (the derivative Kirchhoff condition is natural);
  (1,0): stiffness  int (1/g) psi'^2 dx, mass int psi^2 dx,
         end values per edge stay independent and Kirchhoff's law is an
         explicit constraint row per junction of the curve, kept as a
         sparse matrix of +-1 entries.

Infinite edges are truncated where the weight's tail mass and tail
second moment both drop below a threshold; (0,0) leaves the cut end
free (constants must survive: they are square integrable because the
total mass is finite) while (1,0) pins it to zero (regularity at
infinity).  Constraints are eliminated through a nullspace basis,
never penalties, so the kernel gap stays clean.  Every edge-end degree
of freedom lies in at most one junction's Kirchhoff row, with the end's
sign from the curve's junction table, +1 (head end) or -1 (tail end),
so the rows have disjoint supports and are independent.  Solving each
row for its lowest DOF gives the basis in closed form; its entries are
0 and +-1, which floats hold exactly, and it is the basis reduced
row-echelon form would give; a (0,0) system has no rows, so its
assembled pencil is the reduced one.  One sparse
eigensolver serves ``kernel`` and ``spectrum``: subspace iteration
with the spectral transformation T = (K + M)^{-1} M (Rutishauser 1970),
whose random start takes one solve before the first Rayleigh-Ritz step
and whose block takes a Chebyshev polynomial of degree 3 in T between
steps, three solves that shrink the wanted residuals by
1 / C_3(2 (1 + lambda_top) / (1 + lambda_k) - 1) per step, until the
wanted pairs' relative residual reaches 1e-10 (their eigenvalues are
then right to rounding, since a Ritz value's error is about the square
of its residual) or stops halving; the Ritz step works on a basis
orthonormalized through its Gram matrix (SVQB), and inertia counts
certify the result.  A block whose columns would crowd the same L1
cache sets, as on dyadic meshes, is solved a few columns at a time.  A
block over the size cap is a ``BudgetError``, refused before it is
allocated.  The kernel dimension is read
off a spectral gap ratio with an explicit failure mode instead of a
silent threshold.

scipy is imported inside the functions that call it, each submodule by
name, never at module level: ``import trophodge`` and the commands that
solve nothing (validate, genus, harmonic, theta) then never load it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curve import TropicalCurve
from .exact import rref  # noqa: F401 -- unused; the benchmark's tracer wraps discrete.rref by name
from .metric import KahlerForm
from .quadrature import integrate_finite, integrate_lower_tail, panel_samples
from .superform import Bidegree, EdgeFunction, Superform

__all__ = [
    "Mesh",
    "TruncationRecord",
    "DiscreteSystem",
    "SpectralResult",
    "AmbiguousKernelError",
    "BudgetError",
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
_ELEMENT_NODES = 8  # Gauss-Legendre nodes per element in assembly


class AmbiguousKernelError(RuntimeError):
    """No admissible spectral gap separates a kernel from the rest."""


class BudgetError(ValueError):
    """A mesh, an eigensolver block or a family of test forms would exceed its size budget."""


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


def _tail_cutoff(edge_id: str, fn: EdgeFunction, trunc_eps: float) -> TruncationRecord:
    """Smallest L in 0, 1, 2, 4, ..., 2^60 with both tail integrals <= eps."""
    L = 0.0
    while L <= _TAIL_SEARCH_CAP:
        mass = integrate_lower_tail(fn, -L)
        moment = integrate_lower_tail(lambda x: np.asarray(x) ** 2 * np.asarray(fn(x)), -L)
        if mass <= trunc_eps and moment <= trunc_eps:
            return TruncationRecord(edge_id, L, mass, moment)
        L = max(1.0, 2.0 * L)
    raise ValueError(
        f"edge {edge_id!r}: no cutoff below 2^60 keeps tail integrals under {trunc_eps}"
        " (is the weight a valid Kahler weight?)"
    )


def build_mesh(curve: TropicalCurve, g: KahlerForm, h: float, trunc_eps: float) -> Mesh:
    """Uniform step <= h per edge; infinite edges truncated first.

    A mesh of more than _MAX_MESH_NODES nodes is a BudgetError, raised
    before any node is allocated.
    """
    if not (h > 0 and trunc_eps > 0):
        raise ValueError("h and trunc_eps must be positive")
    lengths = {}
    truncations = []
    for e in curve.sorted_edges():
        if e.infinite:
            rec = _tail_cutoff(e.id, g.weights[e.id], trunc_eps)
            truncations.append(rec)
            lengths[e.id] = rec.cutoff
        else:
            lengths[e.id] = e.length
    # elements per edge; min() keeps an edge over the budget from reaching ceil(inf)
    elements = {eid: max(1, math.ceil(min(length / h, _MAX_MESH_NODES) - 1e-12)) if length else 0
                for eid, length in lengths.items()}
    total = sum(elements.values()) + len(elements)
    if total > _MAX_MESH_NODES:
        raise BudgetError(f"a mesh of step h={h!r} needs more than {_MAX_MESH_NODES} nodes"
                          f" (at least {total})")
    nodes = {eid: np.linspace(-lengths[eid], 0.0, n + 1) if n else np.array([0.0])
             for eid, n in elements.items()}
    collapsed = [eid for eid, n in elements.items() if n == 0]
    if collapsed and len(collapsed) == len(nodes):
        raise ValueError(
            f"truncation at trunc_eps={trunc_eps!r} collapses every leg ({', '.join(collapsed)}) "
            "to its head vertex; no element remains"
        )
    for edge_id in collapsed:
        warnings.warn(
            f"edge {edge_id!r}: truncation threshold exceeds the whole tail; "
            "the edge degenerates to its head vertex"
        )
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
    constraints: scipy.sparse.csr_matrix  # (m, n) Kirchhoff rows of +-1 entries, disjoint supports; (0, n) for (0,0)
    dof_map: DofMap
    mesh: Mesh


def _dof_layout(mesh: Mesh, bidegree: Bidegree) -> DofMap:
    """Number the DOFs edge by edge in sorted order, nodes ascending.

    (0,0): a vertex is numbered where it is first reached, a finite
    edge's first node being its tail and every edge's last node its head.
    (1,0): every node of its own, except -1 at a truncation node.
    """
    edge_dofs = {}
    vertex_dofs = {}  # leaves of infinite edges never get one: their node is at -inf
    counter = 0

    def vertex(v):
        nonlocal counter
        if v not in vertex_dofs:
            vertex_dofs[v], counter = counter, counter + 1
        return vertex_dofs[v]

    for e in mesh.curve.sorted_edges():
        size = len(mesh.nodes[e.id])
        if bidegree.as_tuple() == (0, 0):
            ids = np.empty(size, dtype=int)
            tail = int(size > 1 and not e.infinite)
            if tail:
                ids[0] = vertex(e.tail)
            interior = size - 1 - tail
            ids[tail:-1] = np.arange(counter, counter + interior)
            counter += interior
            ids[-1] = vertex(e.head)
        else:
            pinned = int(e.infinite)  # an essential zero at the truncation node
            ids = np.arange(counter - pinned, counter + size - pinned)
            ids[:pinned] = -1
            counter += size - pinned
        edge_dofs[e.id] = ids
    return DofMap(counter, edge_dofs, vertex_dofs)


def _element_weights(fn, coords: np.ndarray) -> np.ndarray:
    """Per-element integrals of ``fn`` over [coords[i], coords[i+1]]."""
    values, _, wi, half = panel_samples(fn, coords[:-1], coords[1:], _ELEMENT_NODES)
    return (values @ wi) * half


def _element_mass_weighted(fn, coords: np.ndarray):
    """P1 element mass matrices (2x2 each) with weight ``fn``."""
    values, xi, wi, half = panel_samples(fn, coords[:-1], coords[1:], _ELEMENT_NODES)
    # reference basis on [-1, 1]: (1 - t)/2 and (1 + t)/2
    phi0 = 0.5 * (1.0 - xi)
    phi1 = 0.5 * (1.0 + xi)
    m00 = (values * phi0 * phi0) @ wi * half
    m01 = (values * phi0 * phi1) @ wi * half
    m11 = (values * phi1 * phi1) @ wi * half
    return m00, m01, m11


def assemble(mesh: Mesh, curve: TropicalCurve, g: KahlerForm, bidegree) -> DiscreteSystem:
    """Assemble stiffness, mass and Kirchhoff constraints for one bidegree."""
    bd = Bidegree.of(bidegree)
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

    import scipy.sparse

    rows, cols, vals_k, vals_m = map(np.concatenate, zip(*blocks))
    K = scipy.sparse.csr_matrix((vals_k, (rows, cols)), shape=(n, n))
    M = scipy.sparse.csr_matrix((vals_m, (rows, cols)), shape=(n, n))

    rows, cols, signs = [], [], []  # one Kirchhoff row per junction with an unpinned end
    for _, ends in curve.junctions() if bd.p == 1 else ():
        row = rows[-1] + 1 if rows else 0
        for e, side, sign in ends:
            dof = dof_map.edge_dofs[e.id][-1 if side == "head" else 0]
            if dof >= 0:  # -1: the end is already pinned to zero by truncation
                rows.append(row)
                cols.append(dof)
                signs.append(sign)
    shape = (rows[-1] + 1 if rows else 0, n)
    constraints = scipy.sparse.csr_matrix((np.asarray(signs, dtype=float), (rows, cols)), shape=shape)
    _kirchhoff_entries(constraints)

    return DiscreteSystem(bd, K, M, constraints, dof_map, mesh)


def _kirchhoff_entries(B):
    """Row, column and value of each nonzero of B, sparse or dense, in row-major order.

    Raises unless every row is nonempty, every entry is +-1 and no
    column appears in two rows: the structure the closed-form nullspace
    relies on.
    """
    import scipy.sparse

    B = scipy.sparse.coo_array(B)
    order = np.lexsort((B.col, B.row))
    order = order[B.data[order] != 0]
    rows, cols, vals = B.row[order], B.col[order], B.data[order]
    if np.any(np.abs(vals) != 1.0):
        raise RuntimeError("Kirchhoff constraint entries must be +-1")
    if np.unique(cols).size != cols.size:
        raise RuntimeError("a degree of freedom appears in two Kirchhoff constraint rows")
    if np.unique(rows).size != B.shape[0]:
        raise RuntimeError("a Kirchhoff constraint row is empty")
    return rows, cols, vals


def _constraint_nullspace(B) -> scipy.sparse.csr_matrix:
    """Nullspace basis Z of the Kirchhoff rows B, without elimination.

    Each row's pivot is its lowest column; the free columns are all
    others, ascending.  Column j of Z is 1 at the j-th free column f
    and, if f lies in row r, -B[r, f] / B[r, pivot(r)] at that row's
    pivot.  This is the basis the reduced row-echelon form of B gives,
    because the rows' supports are disjoint.
    """
    import scipy.sparse

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
    if system.constraints.shape[0] == 0:  # Z is the identity and assembly is already symmetric
        return Z, system.stiffness, system.mass
    A = (Z.T @ (system.stiffness @ Z)).tocsr()
    B = (Z.T @ (system.mass @ Z)).tocsr()
    A = (A + A.T) * 0.5
    B = (B + B.T) * 0.5
    return Z, A, B


GAP_RATIO_MIN = 1000.0  # a kernel ends where the spectrum jumps by this factor
_RATE = 0.25  # the block widens while the squared ratio of its wanted and top 1 + theta is above this
_STALL = 1e-6  # relative residual above which a stall means too narrow a block
_TOL = 1e-10  # relative residual at which the wanted pairs have converged
_CLUSTER = 1e-6  # relative spacing below which Ritz values form one cluster
_DEGREE = 3  # of the Chebyshev filter between Ritz steps: the solves per sweep
_MAX_SWEEPS = 300
_MAX_BLOCK_ENTRIES = 2**22  # 32 MiB per n x width array
_MAX_MESH_NODES = _MAX_BLOCK_ENTRIES  # a mesh's node array is no larger than one block; solves hit _widen first
_L1_WAYS, _L1_PERIOD = 8, 4096  # associativity and set-index period in bytes of a common L1 data cache


def _factor(A, B, shift: float):
    """SuperLU factor of A - shift B and the number of eigenvalues below shift.

    Symmetric ordering with diagonal pivots makes U = D L^T, so by
    Sylvester's law of inertia the negative pivots count the eigenvalues.
    """
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu((A - shift * B).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly zero pivot
        raise AmbiguousKernelError(f"A - {shift:.6g} B cannot be factored: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise AmbiguousKernelError(f"A - {shift:.6g} B needed off-diagonal pivots, so its inertia is unknown")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _count_below(A, B, shifts):
    """The number of eigenvalues below the first of ``shifts`` at which
    A - shift B factors with diagonal pivots, and that shift.

    The shifts lie in one gap of the spectrum, so each gives the same
    count; an exactly zero pivot at one of them is a coincidence of the
    arithmetic (the midpoint of 0 and 48 on a mesh of one element per
    edge), not a property of the gap.
    """
    for shift in shifts[:-1]:
        try:
            return _factor(A, B, shift)[1], shift
        except AmbiguousKernelError:
            pass
    return _factor(A, B, shifts[-1])[1], shifts[-1]


def _widen(S, width: int, rng):
    """S with random columns appended up to ``width``, within the size cap."""
    n = S.shape[0]
    if width * n > _MAX_BLOCK_ENTRIES:
        raise BudgetError(f"a block of {width} vectors of length {n} exceeds"
                          f" the cap of {_MAX_BLOCK_ENTRIES} entries")
    return np.hstack([S, rng.standard_normal((n, width - S.shape[1]))])


def _solve(lu, X):
    """lu.solve(X), column-major, with at most _L1_WAYS columns on one L1 cache set at a time.

    SuperLU solves a column-major copy of X, whose columns lie 8 n bytes
    apart.  Where 8 n shares a large power of two with _L1_PERIOD, as on
    dyadic meshes (n a multiple of 512), the columns fall on the same
    cache sets, and more of them than the cache has ways evict each other
    at every step of the triangular solves: 20 columns at n = 38912 take
    16.7 ms in one call and 12.2 ms in groups of 8 (medians of 41 on a
    Xeon core with a 48 KiB L1).  The widest group that keeps each set
    within its ways follows from n alone.  A block no wider than that is
    solved in one call, because each call has a fixed cost that small
    systems would feel: in groups of 8, 20 columns at n = 608 take 99 us
    against 76 us in one call.
    """
    n, width = X.shape
    group = _L1_WAYS * _L1_PERIOD // math.gcd(8 * n, _L1_PERIOD)
    if group >= width:
        return lu.solve(X)
    out = np.empty(X.shape, order="F")
    for j in range(0, width, group):
        out[:, j:j + group] = lu.solve(X[:, j:j + group])
    return out


def _ritz_vectors(S, A, B, rng):
    """B-orthonormal Ritz vectors of A x = lambda B x on the span of S,
    as many as S has columns.

    The basis Q comes from SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput.
    23, 2002): the Gram matrix S^T B S, scaled to unit diagonal by D, is
    eigendecomposed as V diag(lam) V^T, and Q = S D V diag(lam)^{-1/2}.
    Directions whose lam is below rounding carry nothing of S; they are
    dropped and fresh random columns take their place.  One pass leaves Q
    orthonormal to about the rounding error over the smallest lam, so
    another follows while that lam is below 1e-4 (three passes at most
    across the test suite; the bound of eight stops a Gram matrix that is
    not finite).  Near the identity the Gram's eigenvalues cluster, where
    the "evd" driver keeps V orthogonal to rounding and the default "evr"
    does not.  The Ritz vectors are Q W, with W the eigenvectors of the
    small symmetric matrix Q^T (A Q).
    """
    import scipy.linalg

    for _ in range(8):
        G = S.T @ (B @ S)
        d = 1.0 / np.sqrt(np.diag(G))
        lam, V = scipy.linalg.eigh(G * np.outer(d, d), check_finite=False, driver="evd")
        keep = lam > S.shape[1] * np.finfo(float).eps * lam[-1]
        Q = S @ (V[:, keep] * d[:, None] / np.sqrt(lam[keep]))
        if lam[0] > 1e-4 * lam[-1]:
            return Q @ scipy.linalg.eigh(Q.T @ (A @ Q), check_finite=False, driver="evd")[1]
        S = _widen(Q, S.shape[1], rng)
    raise AmbiguousKernelError("the block could not be made B-orthonormal")


def _chebyshev(lu, B, X, Y, b: float):
    """p(T) X for T = (A + B)^{-1} B, given Y = T X, where
    p(mu) = C_m(2 mu / b - 1) / C_m(2 / b - 1), C_m the Chebyshev
    polynomial of degree m = _DEGREE.

    |C_m| is at most 1 on [0, b], which holds the eigenvalues
    1 / (1 + lambda) of T for every lambda above the block's top Ritz
    value when b = 1 / (1 + theta_top), and above b it grows faster than
    any other polynomial of degree m bounded by 1 there.  The scaled
    three-term recurrence (Zhou & Saad, SIAM J. Matrix Anal. Appl. 29,
    2007) builds p(T) X from Y and m - 1 more solves; dividing by
    C_m at mu = 1 (lambda = 0) as it goes keeps every term of the order
    of X, so none overflows.  Y is overwritten.
    """
    tau = 2.0 / b - 1.0
    sigma = 1.0 / tau
    Y *= 2.0 / b
    Y -= X
    Y *= sigma
    before, block = X, Y
    for _ in range(_DEGREE - 1):
        following = 1.0 / (2.0 * tau - sigma)
        W = np.ascontiguousarray(_solve(lu, B @ block))
        W *= 2.0 / b
        W -= block
        W *= 2.0 * following
        W -= (sigma * following) * before
        before, block, sigma = block, W, following
    return block


def _lowest(A, B, k: int, start=None):
    """The k lowest eigenpairs of A x = lambda B x, certified complete.

    Subspace iteration on T = (A + B)^{-1} B, the spectral transformation
    of Ericsson & Ruhe (Math. Comp. 35, 1980), from a fixed random start
    (Rutishauser, Numer. Math. 16, 1970).  Random columns, the start's
    and those a widening appends, take one solve before a Rayleigh-Ritz
    step sees them, so the first decision to widen reads the spectrum,
    not the random block, whose Ritz values on a truncated leg lie near
    6e7.  Each sweep B-orthonormalizes the block through its Gram matrix
    into Q, with no QR factorization, and takes the Ritz vectors from the
    small symmetric matrix Q^T (A Q) (``_ritz_vectors``).  Each Ritz
    value is then the Rayleigh quotient of its vector x from the sparse
    products A x and B x: the block also spans eigenvalues up to 1e9 on
    truncated legs, and A x taken as a combination of the columns of A Q
    would lose the small ones to cancellation.  A Ritz value theta lies
    within rho = sqrt((1 + theta) r^T (A + B)^{-1} r), r = A x - theta B x,
    of an eigenvalue to first order; the sweep's first solve,
    y = (A + B)^{-1} B x, gives rho.  Once the sweep has decided to stop
    or to grow, the block becomes p(T) X, the Chebyshev filter of degree
    _DEGREE = 3 on [0, 1 / (1 + theta_top)] (``_chebyshev``), whose first
    degree is y: two more solves, after which a sweep has shrunk the
    wanted residuals by about 1 / C_3(2 (1 + theta_top) / (1 + theta_k) - 1),
    where T^2, one solve fewer, gives ((1 + theta_k) / (1 + theta_top))^2.
    The block doubles while ((1 + theta_k) / (1 + theta_top))^2 is above
    _RATE, so a block that stops widening gains at least C_3(3) = 99 per
    sweep, or while the wanted pairs' largest rho / (1 + theta) stops
    halving above _STALL.  _RATE = 1/4 measures best with the filter: on
    the benchmark's kernels and spectra and grids up to genus 121, 1/16
    widened more and took 40% longer, and 1/2 took 20% more Ritz steps
    and no less time.  The sweeps end when that residual is at most
    _TOL, or stops halving below _STALL.  The target _TOL = 1e-10
    suffices: a Ritz value's error is of the order of rho^2 (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, ch. 11), and a Ritz vector's
    angle to its eigenspace about rho over the gap, 1e-8 for a gap of
    0.01.  The halving test ends the sweeps where the rounding floor lies
    above _TOL, as on the largest meshes (the floor is 7e-12 at
    n = 38912 and grows with n).  Then the cluster rule
    applies, and the inertia just above the wanted Ritz values must
    count them (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15,
    1994).  Ritz values bound eigenvalues from above, so a larger count
    means missed eigenvalues, which become wanted.  Returns the certified
    Ritz values in ascending order (k or more: a cluster is never split),
    their B-orthonormal vectors, their largest rho, and the state (factor,
    random generator, next block) that a call given it as ``start``
    continues from, for a larger k.
    """
    n = A.shape[0]
    lu, rng, S = start or (None, np.random.default_rng(0), np.zeros((n, 0)))
    fresh = S.shape[1]  # a continued block's columns have had their solves
    S = _widen(S, max(fresh, min(n, k + 4)), rng)  # checks the size cap first
    if lu is None:
        lu = _factor(A, B, -1.0)[0]
    previous = math.inf
    for _ in range(_MAX_SWEEPS):
        if fresh < S.shape[1]:  # random columns take one solve before a Ritz step sees them
            S[:, fresh:] = _solve(lu, B @ S[:, fresh:])
        width = S.shape[1]
        X = _ritz_vectors(S, A, B, rng)
        AX, BX = A @ X, B @ X
        norm2 = np.einsum("ij,ij->j", X, BX)
        theta = np.einsum("ij,ij->j", X, AX) / norm2
        nu = 1.0 + theta
        S = np.ascontiguousarray(_solve(lu, BX))  # row-major like X, so the steps below stream
        R = AX  # r = A x - theta B x, in place: n x width arrays dominate the memory
        R -= np.multiply(BX, theta, out=BX)
        T = S * nu
        np.subtract(X, T, out=T)  # (A + B)^{-1} r = x - nu y
        rho = np.sqrt(nu * np.maximum(np.einsum("ij,ij->j", R, T), 0.0) / norm2)
        del AX, BX, R, T  # X and the block are all that the rest of the sweep reads
        rho += np.finfo(float).eps * (1.0 + np.abs(theta))  # no Ritz value is known better than rounding
        residual = float(np.max(rho[:k] / nu[:k]))
        stalled, previous = residual >= previous / 2, residual
        grow = width < n and (nu[k - 1] ** 2 > _RATE * nu[-1] ** 2 or stalled and residual > _STALL)
        if (stalled or residual <= _TOL) and not grow:
            if width == n:  # the block is the whole space
                k = width
                break
            apart = np.diff(theta) > rho[1:] + rho[:-1] + _CLUSTER * nu[1:]
            later = np.flatnonzero(apart[k - 1:])  # Ritz values apart from theta[k - 1]
            if later.size == 0:
                grow = True
            elif later[0] > 0:  # a cluster straddles the k-th value: want all of it
                k, previous = k + int(later[0]), math.inf
            else:
                lo, hi = theta[k - 1], theta[k]  # the middle of the gap, then its quarter points
                count, shift = _count_below(A, B, (0.5 * (lo + hi), 0.75 * lo + 0.25 * hi,
                                                   0.25 * lo + 0.75 * hi))
                if count == k:
                    break
                if count < k:
                    raise AmbiguousKernelError(f"{count} eigenvalues but {k} Ritz values lie below {shift:.6g}")
                k, previous, grow = count, math.inf, count + 4 > width
        S = _chebyshev(lu, B, X, S, 1.0 / nu[-1])
        del X  # only the block stays live from here to the next Ritz step
        fresh = width
        if grow:
            S, previous = _widen(S, min(n, max(2 * width, k + 4)), rng), math.inf
    else:
        raise AmbiguousKernelError(f"no convergence in {_MAX_SWEEPS} sweeps")
    X /= np.sqrt(norm2)
    order = np.argsort(theta[:k])  # Rayleigh quotients may swap within a cluster
    return theta[order], X[:, order], float(np.max(rho[:k])), (lu, rng, S)


def kernel(system: DiscreteSystem) -> SpectralResult:
    """Kernel of the reduced pencil, detected by a spectral gap ratio.

    The kernel dimension is the first d >= 0 such that
    lambda_d / max(lambda_{d-1}, floor) >= GAP_RATIO_MIN, where the floor
    is the eigensolver's own error bound, and the inertia at the middle
    of that gap must count exactly d.  With no such d the kernel is the
    whole space if every eigenvalue lies within the floor of 0.  Otherwise
    the kernel is reported ambiguous, never silently chosen.
    """
    Z, A, B = _reduced_pencil(system)
    nred = A.shape[0]
    if nred == 0:
        return SpectralResult(np.zeros(0), np.zeros((system.dof_map.n_dofs, 0)), 0, math.inf)
    k, state = min(nred, 6), None
    for _ in range(2):  # a second request, continuing the first, takes in the gap and five values after it
        lam, vec, floor, state = _lowest(A, B, k, state)
        below = np.maximum(np.concatenate(([floor], lam[:-1])), floor)
        jumps = np.flatnonzero(lam >= GAP_RATIO_MIN * below)
        d = int(jumps[0]) if jumps.size else lam.size
        if d + 5 <= lam.size or lam.size == nred:
            break
        k = min(nred, d + 5)
    del state  # frees the factor at -1 and the block before the gap count factors again
    if d == lam.size:
        if lam.size < nred or np.max(np.abs(lam)) > floor:
            raise AmbiguousKernelError(f"no gap ratio >= {GAP_RATIO_MIN} found (eigenvalues start {lam[:6]})")
        return SpectralResult(lam.copy(), Z @ vec, d, math.inf)  # all of it is zero to the solver's accuracy
    lo, hi = below[d], lam[d]  # the geometric middle of the gap, then its quarter points
    count, shift = _count_below(A, B, (math.sqrt(lo * hi), lo**0.75 * hi**0.25, lo**0.25 * hi**0.75))
    if count != d:
        raise AmbiguousKernelError(f"the inertia at {shift:.6g}, inside the gap, does not count {d} eigenvalues")
    return SpectralResult(lam[: d + 5].copy(), Z @ vec[:, :d], d, float(lam[d] / below[d]))


def spectrum(system: DiscreteSystem, k: int) -> SpectralResult:
    """k smallest eigenvalues with M-orthonormal eigenvectors, certified by an inertia count."""
    Z, A, B = _reduced_pencil(system)
    if not 0 <= k <= A.shape[0]:
        raise ValueError(f"requested {k} eigenvalues from a system of dimension {A.shape[0]}")
    if k == 0:
        return SpectralResult(np.zeros(0), np.zeros((system.dof_map.n_dofs, 0)))
    lam, vec = _lowest(A, B, k)[:2]
    return SpectralResult(lam[:k].copy(), Z @ vec[:, :k])


def vector_to_superform(system: DiscreteSystem, u: np.ndarray) -> Superform:
    """Interpolate one DOF vector back to a piecewise-linear superform."""
    coeffs = {}
    for eid, coords in system.mesh.nodes.items():
        dofs = system.dof_map.edge_dofs[eid]
        values = np.asarray(np.where(dofs >= 0, u[np.maximum(dofs, 0)], 0.0), dtype=float)
        interpolant = functools.partial(np.interp, xp=coords.copy(), fp=values)
        coeffs[eid] = EdgeFunction(interpolant, domain=system.mesh.curve.edge(eid).chart)
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


_PANEL_NODES, _PANEL = 16, 0.125  # Gauss-Legendre panels of the antiderivatives below
_TAIL_REACH = 48.0  # a tail antiderivative sums its panels over [a - 48, a]


def _antiderivative(fn, lo: float, hi: float, sign: int, domain, c=None, below=None) -> EdgeFunction:
    """sign * (F(x) + c) with F(x) the integral of fn from lo to x.

    c defaults to -F(hi).  A fixed fine panel mesh on [lo, hi] is summed
    into prefix values once; a query adds one partial-panel quadrature,
    batched over the points.  Points below lo take below(x) instead.  The
    derivative is exactly sign * fn.
    """
    n = max(2, int(math.ceil((hi - lo) / _PANEL)))
    bounds = np.linspace(lo, hi, n + 1)
    values, _, wi, half = panel_samples(fn, bounds[:-1], bounds[1:], _PANEL_NODES)
    prefix = np.concatenate([[0.0], np.cumsum((values @ wi) * half)])

    def F(x):
        x = np.clip(x, lo, hi)
        idx = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, n - 1)
        values, _, wi, half = panel_samples(fn, bounds[idx], x, _PANEL_NODES)
        return prefix[idx] + (values @ wi) * half

    if c is None:
        c = -float(F(np.array([hi]))[0])

    def value(x):
        xs = np.asarray(x, dtype=float).ravel()
        out = sign * (F(xs) + c)
        if below is not None:
            for i in np.flatnonzero(xs < lo):
                out[i] = below(float(xs[i]))
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    return EdgeFunction(value, lambda: fn.scale(sign), None, domain)


def solve_dbar_local(omega: Superform, g: KahlerForm, neighborhood) -> Superform:
    """Right inverse of d'' on a tail neighborhood or a vertex star.

    Tail [-inf, a): for (0,1) input the solution is
    psi(x) = -int_x^a omega(t) dt, for (1,1) input
    psi(x) = -int_{-inf}^x omega(t) dt.  On a vertex star the per-leg
    antiderivatives vanish at the vertex, so continuity respectively
    Kirchhoff's law holds exactly.  Each leg is solved in its
    vertex-local chart and read back through the chart reversal.
    """
    if omega.bidegree.q != 1:
        raise ValueError("solve_dbar_local inverts d'' on forms of bidegree (p,1)")
    p = omega.bidegree.p
    curve = g.curve

    if isinstance(neighborhood, TailNeighborhood):
        e = curve.edge(neighborhood.edge)
        if not e.infinite:
            raise ValueError(f"edge {e.id!r} is finite; tail neighborhoods live on infinite edges")
        fn, a = omega.coefficients[e.id], neighborhood.a
        lo, domain = a - _TAIL_REACH, (-math.inf, a)
        if p == 0:
            psi = _antiderivative(fn, lo, a, 1, domain, below=lambda x: -integrate_finite(fn, x, a))
        else:
            psi = _antiderivative(fn, lo, a, -1, domain, integrate_lower_tail(fn, lo),
                                  lambda x: -integrate_lower_tail(fn, x))
        return Superform(Bidegree(p, 0), {e.id: psi})

    if not isinstance(neighborhood, StarNeighborhood):
        raise TypeError("neighborhood must be a TailNeighborhood or a StarNeighborhood")

    reach = neighborhood.reach
    ends = curve.edge_ends_at(neighborhood.vertex)
    legs = [e.id for e, side in ends if e.infinite and side == "tail"]
    if legs:
        raise ValueError(f"vertex {neighborhood.vertex!r} is the point at -inf of leg {legs[0]!r}; "
                         "its neighborhood is a TailNeighborhood")
    shortest = min((e.length for e, _ in ends if not e.infinite), default=math.inf)
    if reach <= 0 or reach > shortest:
        raise ValueError(f"star reach must lie in (0, {shortest}]")
    coeffs, sign = {}, (-1) ** p  # d'' of a (1,0)-form is -f' d'x^d''x
    for e, side in ends:
        if e.tail == e.head:
            raise NotImplementedError("vertex stars with self-loops are not supported")
        fn = omega.coefficients[e.id]
        if side == "head":
            coeffs[e.id] = _antiderivative(fn, -reach, 0.0, sign, (-reach, 0.0))
        else:
            local = _antiderivative(fn.reversed_chart(e.length, -sign), -reach, 0.0, sign, (-reach, 0.0))
            coeffs[e.id] = local.reversed_chart(e.length, sign)
            coeffs[e.id].domain = (-e.length, -e.length + reach)
    return Superform(Bidegree(p, 0), coeffs)
