"""Panel-based Gauss-Legendre quadrature with improper-integral support.

Finite intervals use composite Gauss-Legendre on a uniform panel mesh
that doubles until two successive refinements agree within tolerance.
A half-infinite integral over (-inf, c] is mapped by u = exp(x - c)
onto (0, 1] and integrated on a geometrically graded panel mesh toward
u = 0; the grading absorbs the logarithmic factors that second moments
introduce, and deepening the grading is the refinement step.

Levels 0 and 1 share one call of the integrand and each deeper level
is one more; every level is summed over its own panels, so values
equal level-by-level ones.  Panel meshes are cached read-only.

Divergence is declared when four successive refinements fail to
contract by a factor of two; integrands like a constant weight on an
infinite edge then fail deterministically instead of stabilizing.  A
finite-interval level of more than MAX_LEVEL_NODES nodes is declared
divergent before it is allocated.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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


def _levels_values(f, grids) -> list[float]:
    """Composite GL on each (nodes, half) grid from one call of f on all their nodes."""
    values = np.asarray(f(np.concatenate([nodes for nodes, _ in grids])), dtype=float)
    if not np.all(np.isfinite(values)):
        raise DivergenceError("integrand is not finite on the quadrature grid")
    _, wi = gauss_legendre(NODES_PER_PANEL)
    sums, start = [], 0
    for nodes, half in grids:
        rows = values[start:start + nodes.size].reshape(half.size, NODES_PER_PANEL)
        sums.append(float(np.sum((rows @ wi) * half)))
        start += nodes.size
    return sums


def _refine(values, tol: float) -> float:
    """The first level that agrees with its predecessor within tol.

    values(levels) returns the integral at each level of the tuple from
    one call of the integrand; levels 0 and 1 are asked for together.
    """
    previous, current = values((0, 1))
    stall = 0
    last_diff = None
    for k in range(1, MAX_REFINEMENTS + 1):
        if k > 1:
            previous, (current,) = current, values((k,))
        diff = abs(current - previous)
        if diff <= tol:
            return current
        if last_diff is not None:
            if diff > 0.5 * last_diff:
                stall += 1
                if stall >= 4:
                    raise DivergenceError(
                        f"4 successive refinements failed to contract (last change {diff:.3e})"
                    )
            else:
                stall = 0
        last_diff = diff
    raise DivergenceError(
        f"no stabilization within {MAX_REFINEMENTS} refinements (last change {last_diff!r})"
    )


@lru_cache(maxsize=64)
def _finite_grid(a: float, b: float, n: int):
    if n * NODES_PER_PANEL > MAX_LEVEL_NODES:
        raise DivergenceError(f"a level of {n} panels on [{a!r}, {b!r}] exceeds the cap of"
                              f" {MAX_LEVEL_NODES} quadrature nodes")
    return _panel_grid(np.linspace(a, b, n + 1))


def integrate_finite(f, a: float, b: float) -> float:
    """Integral of f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_finite needs finite endpoints")
    if a == b:
        return 0.0
    base = max(MIN_PANELS, int(math.ceil(abs(b - a) * PANELS_PER_UNIT)))

    def values(levels):
        return _levels_values(f, [_finite_grid(a, b, base * 2**k) for k in levels])

    return _refine(values, TOL_FINITE)


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


def _integrate_unit_graded(h) -> float:
    def values(levels):
        return _levels_values(h, [_tail_grid(TAIL_LEVELS + 2 * k, 1 + k // 2) for k in levels])

    return _refine(values, TOL_INFINITE)


def integrate_lower_tail(f, c: float) -> float:
    """Integral of f over (-inf, c] via the substitution u = exp(x - c)."""

    def h(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(f(c + np.log(u)), dtype=float) / u

    return _integrate_unit_graded(h)


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
