"""Panel-based Gauss-Legendre quadrature with improper-integral support.

Finite intervals use composite Gauss-Legendre on a uniform panel mesh
that doubles until two successive refinements agree within tolerance.
A half-infinite integral over (-inf, c] is mapped by u = exp(x - c)
onto (0, 1] and integrated on a geometrically graded panel mesh toward
u = 0; the grading absorbs the logarithmic factors that second moments
introduce, and deepening the grading is the refinement step.

An integrand is an expression tree or a plain callable of an array, and
the integrals take one integrand or a sequence of them on one chart.
Levels 0 and 1 are read in one walk of all the integrands over both
levels' nodes (``expressions._walk``), and each deeper level in one more
walk, of the integrands still refining.  So a node that several trees
share, such as a test form's window on a leg, is computed once per walk
for all of them.  Each integrand keeps its own sums and its own
refinement: every level is summed over its own panels, so its value has
the bits of a level-by-level integral of it alone.  Panel meshes are
cached read-only.

Divergence is declared when four successive refinements fail to
contract by a factor of two; integrands like a constant weight on an
infinite edge then fail deterministically instead of stabilizing.  A
finite-interval level of more than MAX_LEVEL_NODES nodes is declared
divergent before it is allocated.  Among several integrands a divergent
one gets its DivergenceError in place of its value, and the others are
unaffected.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .expressions import Expression, Opaque, _walk

__all__ = [
    "DivergenceError",
    "integrate_finite",
    "integrate_lower_tail",
    "integrate_upper_tail",
    "integrate_interval",
    "gauss_legendre",
    "panel_samples",
]

# Panel layout and tolerances for every integral in the package.  A
# finite chart starts with PANELS_PER_UNIT panels per unit length (at
# least MIN_PANELS) of NODES_PER_PANEL Gauss-Legendre nodes; an infinite
# edge starts with a geometric grading TAIL_LEVELS octaves deep.
NODES_PER_PANEL = 16
PANELS_PER_UNIT = 2.0
MIN_PANELS = 2
TAIL_LEVELS = 10
TOL_FINITE = 1e-11
TOL_INFINITE = 1e-9
MAX_REFINEMENTS = 14
# Nodes of one finite-interval level, 8 MiB of float64.  Level k of a
# chart of length L has ceil(2L) 2^k panels, so the refinement depth
# available shrinks as L grows: all MAX_REFINEMENTS levels up to L = 2,
# none past L = 16384.  A level over the cap is a DivergenceError
# before any allocation.
MAX_LEVEL_NODES = 2**20


class DivergenceError(ArithmeticError):
    """Refinements failed to stabilize; the integral is treated as divergent."""


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def panel_samples(f, lo: np.ndarray, hi: np.ndarray, n: int):
    """f at the n Gauss-Legendre nodes of each panel [lo[i], hi[i]].

    Returns (values, xi, wi, half): values has one row per panel, xi and
    wi are the nodes and weights on [-1, 1], and half holds the panel
    half-widths, so (values @ wi) * half are the panel integrals.
    """
    xi, wi = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * xi[None, :]
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return values, xi, wi, half


def _panel_grid(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flattened nodes and half-widths of the panels between
    consecutive bounds: the panel samples of the identity."""
    nodes, _, _, half = panel_samples(lambda x: x, bounds[:-1], bounds[1:], NODES_PER_PANEL)
    nodes = nodes.ravel()
    nodes.flags.writeable = half.flags.writeable = False
    return nodes, half


def _levels_values(values: np.ndarray, grids) -> list[float]:
    """Composite GL on each (nodes, half) grid of values sampled on all their nodes, concatenated."""
    if not np.isfinite(values).all():
        raise DivergenceError("integrand is not finite on the quadrature grid")
    _, wi = gauss_legendre(NODES_PER_PANEL)
    sums, start = [], 0
    for nodes, half in grids:
        rows = values[start:start + nodes.size].reshape(half.size, NODES_PER_PANEL)
        sums.append(float(((rows @ wi) * half).sum()))
        start += nodes.size
    return sums


def _refine(values, count: int, tol: float) -> list:
    """For each of count integrands, the first level that agrees with its predecessor within tol.

    values(levels, live) gives, for each integrand index in live, its
    integral at each level of the tuple, or the DivergenceError of its
    samples.  Levels 0 and 1 are asked for together, for all integrands;
    each deeper level only for those still refining.  An integrand that
    fails to stabilize gets its DivergenceError in place of a value.
    """
    results = [None] * count
    state = {}  # integrand -> (its value at the last level, the last change, the stalls in a row)
    live = range(count)
    for k in range(1, MAX_REFINEMENTS + 1):
        for i, sums in zip(live, values((0, 1) if k == 1 else (k,), live)):
            if isinstance(sums, DivergenceError):
                results[i] = sums
                continue
            if k == 1:
                (previous, current), last_diff, stall = sums, None, 0
            else:
                (previous, last_diff, stall), (current,) = state[i], sums
            diff = abs(current - previous)
            if diff <= tol:
                results[i] = current
                continue
            if last_diff is not None:
                stall = stall + 1 if diff > 0.5 * last_diff else 0
                if stall >= 4:
                    results[i] = DivergenceError(
                        f"4 successive refinements failed to contract (last change {diff:.3e})")
                    continue
            state[i] = current, diff, stall
        live = [i for i in live if results[i] is None]
        if not live:
            return results
    for i in live:
        results[i] = DivergenceError(
            f"no stabilization within {MAX_REFINEMENTS} refinements (last change {state[i][1]!r})")
    return results


def _integrate(f, grid, tol: float, tail: float | None = None):
    """The refined integral of f over the panels grid(k) of each level k.

    f is one integrand, whose value is returned and whose DivergenceError
    is raised, or a sequence of them, whose values come back as a list in
    order, with a DivergenceError in place of each divergent one.  An
    integrand is an expression tree or a plain callable of an array.  All
    integrands of a level are read in one walk over its nodes, sharing
    the nodes that their trees share.  With ``tail`` the grid's nodes are
    u in (0, 1] and each integrand is read at tail + log u and divided by u.
    """
    single = callable(f)
    roots = [g if isinstance(g, Expression) else Opaque(g) for g in ([f] if single else f)]

    def values(levels, live):
        try:
            grids = [grid(k) for k in levels]
        except DivergenceError as exc:
            return [exc] * len(live)
        nodes = np.concatenate([nodes for nodes, _ in grids])
        x = nodes if tail is None else tail + np.log(nodes)
        out = []
        for v in _walk([roots[i] for i in live], x):
            v = np.asarray(v, dtype=float)
            try:
                out.append(_levels_values(v if tail is None else v / nodes, grids))
            except DivergenceError as exc:
                out.append(exc)
        return out

    results = _refine(values, len(roots), tol)
    return _unwrap(results[0]) if single else results


def _unwrap(result):
    """An integral from a list of them: its value, or its DivergenceError raised."""
    if isinstance(result, DivergenceError):
        raise result
    return result


@lru_cache(maxsize=64)
def _finite_grid(a: float, b: float, n: int):
    if n * NODES_PER_PANEL > MAX_LEVEL_NODES:
        raise DivergenceError(f"a level of {n} panels on [{a!r}, {b!r}] exceeds the cap of"
                              f" {MAX_LEVEL_NODES} quadrature nodes")
    return _panel_grid(np.linspace(a, b, n + 1))


def integrate_finite(f, a: float, b: float):
    """Integral of f, one integrand or a sequence of them (see ``_integrate``), over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_finite needs finite endpoints")
    if a == b:
        return 0.0 if callable(f) else [0.0] * len(f)
    base = max(MIN_PANELS, int(math.ceil(abs(b - a) * PANELS_PER_UNIT)))
    return _integrate(f, lambda k: _finite_grid(a, b, base * 2**k), TOL_FINITE)


@lru_cache(maxsize=32)
def _tail_grid(depth: int, splits: int):
    """Panels on [0, 1]: octaves [2^-j-1, 2^-j] each split evenly, plus
    the closing panel [0, 2^-depth]."""
    bounds = [0.0]
    for j in range(depth, 0, -1):
        lo, hi = 2.0 ** -j, 2.0 ** -(j - 1)
        step = (hi - lo) / splits
        bounds.extend(lo + i * step for i in range(splits))
    bounds.append(1.0)
    return _panel_grid(np.asarray(bounds))


def integrate_lower_tail(f, c: float):
    """Integral of f, one integrand or a sequence of them (see ``_integrate``), over (-inf, c],
    via the substitution u = exp(x - c)."""
    return _integrate(f, lambda k: _tail_grid(TAIL_LEVELS + 2 * k, 1 + k // 2), TOL_INFINITE, tail=c)


def integrate_upper_tail(f, c: float) -> float:
    """Integral of f over [c, +inf): the lower tail of f(-x) at -c."""
    return integrate_lower_tail(lambda x: f(-x), -c)


def integrate_interval(f, a: float, b: float) -> float:
    """Integral of f over (a, b) where either endpoint may be infinite."""
    if a >= b:
        if a == b:
            return 0.0
        raise ValueError("need a < b")
    lower_inf = math.isinf(a)
    upper_inf = math.isinf(b)
    if lower_inf and upper_inf:
        return integrate_lower_tail(f, 0.0) + integrate_upper_tail(f, 0.0)
    if lower_inf:
        return integrate_lower_tail(f, b)
    if upper_inf:
        return integrate_upper_tail(f, a)
    return integrate_finite(f, a, b)
