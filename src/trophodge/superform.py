"""Tropical superforms of bidegree (p,q) on a curve.

A superform stores one coefficient function per edge, written in the
edge's canonical chart.  The coefficient carrier EdgeFunction holds an
expression tree from ``expressions``, whose rules do all arithmetic and
differentiation (a bare callable is an opaque node, differentiated by
central differences unless its derivative is given), its chart domain,
and an optional tail-support bound: a coordinate b such that the
function is constant on (-inf, b].  The tail bound is what regularity at
infinity is judged by.

Chart reversal y = -l - x transforms coefficients with the sign
(-1)^(p+q): (1,0)- and (0,1)-forms flip sign, (0,0)- and (1,1)-forms do
not.  All vertex conditions below are stated in vertex-local charts
derived by this rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partialmethod
from typing import Callable, Mapping

import numpy as np

from .curve import TropicalCurve
from .expressions import Expression, Num, Opaque, Sub, Var, _add, _div, _mul, _neg, _sub, parse_expression, polynomial

__all__ = [
    "Bidegree",
    "EdgeFunction",
    "Superform",
    "RegularityReport",
    "DegreeOverflowError",
    "wedge",
    "d_second",
    "d_first",
    "is_regular",
    "evaluate",
    "reoriented",
]

NEG_INF = -math.inf


class DegreeOverflowError(ValueError):
    """Wedge product would exceed bidegree (1,1)."""


@dataclass(frozen=True)
class Bidegree:
    p: int
    q: int

    def __post_init__(self):
        if self.p not in (0, 1) or self.q not in (0, 1):
            raise ValueError(f"bidegree components must be 0 or 1, got ({self.p},{self.q})")

    @property
    def total(self) -> int:
        return self.p + self.q

    def as_tuple(self) -> tuple[int, int]:
        return (self.p, self.q)

    @classmethod
    def of(cls, value) -> "Bidegree":
        """``value`` if it is a Bidegree, else the Bidegree of a (p, q) pair."""
        if isinstance(value, cls):
            return value
        p, q = value
        return cls(int(p), int(q))


class EdgeFunction:
    """One smooth coefficient on an edge chart: an expression tree plus its chart and tail bound.

    Arithmetic and derivative() build trees with the helpers of
    ``expressions``; a call walks the whole tree once, so in -(f/g)'' f, g
    and their derivatives are each computed once.  A bare callable is an
    opaque node, differentiated by derivative_factory (which returns an
    EdgeFunction) or else by central differences, step max(1e-6, 1e-8*|x|).
    """

    def __init__(
        self,
        value: Callable | Expression,
        derivative_factory: Callable[[], "EdgeFunction"] | None = None,
        tail_bound: float | None = None,
        domain: tuple[float, float] = (NEG_INF, 0.0),
    ):
        if not isinstance(value, Expression):
            value = Opaque(value, derivative=derivative_factory and (lambda: derivative_factory().node))
        self.node = value
        self.tail_bound = tail_bound
        self.domain = (float(domain[0]), float(domain[1]))

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, value, domain=(NEG_INF, 0.0)) -> "EdgeFunction":
        return cls(Num(float(value)), tail_bound=0.0, domain=domain)

    @classmethod
    def zero(cls, domain=(NEG_INF, 0.0)) -> "EdgeFunction":
        return cls.constant(0.0, domain)

    @classmethod
    def from_expression(cls, expr, tail_bound=None, domain=(NEG_INF, 0.0)) -> "EdgeFunction":
        if isinstance(expr, str):
            expr = parse_expression(expr)
        if not isinstance(expr, Expression):
            raise TypeError("expected an expression tree or source string")
        return cls(expr, tail_bound=tail_bound, domain=domain)

    @classmethod
    def polynomial(cls, coeffs, domain=(NEG_INF, 0.0)) -> "EdgeFunction":
        """Polynomial sum(coeffs[k] * x^k) with exact derivative chain; a constant one is ``constant``."""
        node = polynomial(coeffs)
        return cls(node, tail_bound=0.0 if isinstance(node, Num) else None, domain=domain)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        return self.node(x)

    def in_domain(self, x: float, slack: float = 1e-12) -> bool:
        lo, hi = self.domain
        return (lo - slack) <= x <= (hi + slack)

    def derivative(self) -> "EdgeFunction":
        # constant beyond b differentiates to zero beyond b; a constant derivative is constant everywhere
        node = self.node.diff()
        tail = 0.0 if self.tail_bound is None and isinstance(node, Num) else self.tail_bound
        return EdgeFunction(node, tail_bound=tail, domain=self.domain)

    # -- algebra -------------------------------------------------------

    def _binary(self, helper, other) -> "EdgeFunction":
        """helper(self, other) on this chart, constant where both operands are."""
        other = self._coerce(other)
        if self.tail_bound is None or other.tail_bound is None:
            tail = None
        else:
            tail = min(self.tail_bound, other.tail_bound)
        return EdgeFunction(helper(self.node, other.node), tail_bound=tail, domain=self.domain)

    __add__ = partialmethod(_binary, _add)
    __sub__ = partialmethod(_binary, _sub)
    __mul__ = partialmethod(_binary, _mul)
    divide = partialmethod(_binary, _div)

    def __neg__(self) -> "EdgeFunction":
        return EdgeFunction(_neg(self.node), tail_bound=self.tail_bound, domain=self.domain)

    def scale(self, c: float) -> "EdgeFunction":
        return EdgeFunction(_mul(Num(float(c)), self.node), tail_bound=self.tail_bound, domain=self.domain)

    def _coerce(self, other) -> "EdgeFunction":
        if isinstance(other, EdgeFunction):
            if other.domain != self.domain:
                raise ValueError("edge functions live on different charts")
            return other
        return EdgeFunction.constant(float(other), self.domain)

    def reversed_chart(self, length: float, sign: int) -> "EdgeFunction":
        """Coefficient after the chart reversal y = -length - x: the tree read at -length - x."""
        node = Opaque(self.node, Sub(Num(-float(length)), Var()), self.node.diff)
        return EdgeFunction(node if sign > 0 else _neg(node), domain=self.domain)


@dataclass(frozen=True)
class Superform:
    """Bidegree plus one coefficient per edge, in canonical charts."""

    bidegree: Bidegree
    coefficients: Mapping[str, EdgeFunction]
    vanishes_dimensionally: bool = False

    @classmethod
    def on_curve(cls, curve: TropicalCurve, bidegree, coefficients: Mapping) -> "Superform":
        """Build a form, attaching each edge's chart to its coefficient.

        ``coefficients`` maps edge id to an EdgeFunction, an expression
        source string, or a number (constant coefficient).  Missing edges
        get the zero coefficient.
        """
        bd = Bidegree.of(bidegree)
        unknown = set(coefficients) - {e.id for e in curve.edges}
        if unknown:
            raise KeyError(f"coefficients for edges not on the curve: {sorted(unknown)}")
        out = {}
        for e in curve.sorted_edges():
            fn = coefficients.get(e.id)
            if fn is None:
                fn = EdgeFunction.zero(e.chart)
            elif isinstance(fn, str):
                fn = EdgeFunction.from_expression(fn, domain=e.chart)
            elif isinstance(fn, (int, float, Fraction)):
                fn = EdgeFunction.constant(fn, e.chart)
            elif isinstance(fn, EdgeFunction):
                fn = EdgeFunction(fn.node, tail_bound=fn.tail_bound, domain=e.chart)
            else:
                raise TypeError(f"bad coefficient for edge {e.id!r}: {fn!r}")
            out[e.id] = fn
        return cls(bd, out)

    @classmethod
    def zero_like(cls, form: "Superform", bidegree=None, flagged: bool = False) -> "Superform":
        bd = form.bidegree if bidegree is None else Bidegree.of(bidegree)
        coeffs = {eid: EdgeFunction.zero(fn.domain) for eid, fn in form.coefficients.items()}
        return cls(bd, coeffs, vanishes_dimensionally=flagged)

    def coefficient(self, edge_id: str) -> EdgeFunction:
        return self.coefficients[edge_id]

    def map_coefficients(self, op, bidegree=None, flagged=None) -> "Superform":
        bd = self.bidegree if bidegree is None else Bidegree.of(bidegree)
        return Superform(
            bd,
            {eid: op(fn) for eid, fn in self.coefficients.items()},
            self.vanishes_dimensionally if flagged is None else flagged,
        )


def wedge(a: Superform, b: Superform) -> Superform:
    """Pointwise wedge product; d'x ^ d''x = -d''x ^ d'x.

    The only reordering ever needed moves b's d'x factor past a's d''x,
    so the sign is (-1)^(a.q * b.p) and
    wedge(b, a) = (-1)^((a.p+a.q)(b.p+b.q)) wedge(a, b).
    """
    p, q = a.bidegree.p + b.bidegree.p, a.bidegree.q + b.bidegree.q
    if p > 1 or q > 1:
        raise DegreeOverflowError(
            f"wedge of bidegrees {a.bidegree.as_tuple()} and {b.bidegree.as_tuple()} exceeds (1,1)"
        )
    sign = -1 if (a.bidegree.q * b.bidegree.p) % 2 else 1
    out = {}
    for eid, fa in a.coefficients.items():
        fb = b.coefficients[eid]
        prod = fa * fb
        out[eid] = prod.scale(-1.0) if sign < 0 else prod
    return Superform(Bidegree(p, q), out)


def d_second(form: Superform) -> Superform:
    """The differential raising q: f -> f' d''x, f d'x -> -f' d'x^d''x.

    On q=1 forms the result vanishes for dimensional reasons; the zero
    form comes back flagged rather than as an error.
    """
    p, q = form.bidegree.as_tuple()
    if q == 1:
        return Superform.zero_like(form, (p, 1), flagged=True)
    if p == 0:
        return form.map_coefficients(lambda f: f.derivative(), bidegree=(0, 1))
    return form.map_coefficients(lambda f: -f.derivative(), bidegree=(1, 1))


def d_first(form: Superform) -> Superform:
    """The differential raising p: f -> f' d'x, f d''x -> +f' d'x^d''x."""
    p, q = form.bidegree.as_tuple()
    if p == 1:
        return Superform.zero_like(form, (1, q), flagged=True)
    if q == 0:
        return form.map_coefficients(lambda f: f.derivative(), bidegree=(1, 0))
    return form.map_coefficients(lambda f: f.derivative(), bidegree=(1, 1))


def evaluate(form: Superform, edge: str, x: float) -> float:
    """Coefficient value in the canonical chart; x must lie in the chart."""
    fn = form.coefficients[edge]
    if not fn.in_domain(x):
        raise ValueError(f"coordinate {x} outside chart {fn.domain} of edge {edge!r}")
    return float(fn(x))


_TAIL_OFFSETS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class RegularityReport:
    continuity: dict = field(default_factory=dict)
    kirchhoff: dict = field(default_factory=dict)
    at_infinity: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            all(ok for ok, _ in self.continuity.values())
            and all(ok for ok, _ in self.kirchhoff.values())
            and all(ok for ok, _ in self.at_infinity.values())
        )


def _tail_entry(fn: EdgeFunction, bidegree: Bidegree, tol: float) -> tuple[bool, str]:
    b = fn.tail_bound
    if b is None:
        return False, "no tail-support bound declared"
    samples = np.array([b - off for off in _TAIL_OFFSETS])
    values = np.atleast_1d(np.asarray(fn(samples), dtype=float))
    if bidegree.as_tuple() == (0, 0):
        spread = float(np.max(np.abs(values - values[0])))
        if spread <= tol:
            return True, f"constant beyond {b} (spread {spread:.3e})"
        return False, f"not constant beyond {b} (spread {spread:.3e})"
    peak = float(np.max(np.abs(values)))
    if peak <= tol:
        return True, f"vanishes beyond {b} (peak {peak:.3e})"
    return False, f"nonzero beyond {b} (peak {peak:.3e})"


def is_regular(form: Superform, curve: TropicalCurve, tol: float = 1e-10) -> RegularityReport:
    """Continuity / Kirchhoff / regularity-at-infinity report for a form.

    (0,0): values at every junction of the curve agree across its ends
    and the coefficient is constant beyond the declared tail bound on
    each infinite edge.  (1,0): the vertex-local end values sum to
    |residual| <= tol at every junction, and the coefficient vanishes
    beyond the tail bound.  (0,1) and (1,1): only the condition at
    infinity applies.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    bd = form.bidegree
    continuity: dict = {}
    kirchhoff: dict = {}
    at_infinity: dict = {}

    for v, ends in curve.junctions() if bd.q == 0 else ():  # no vertex condition binds q = 1
        # vertex-local value: the chart's value at the end; at a tail the
        # chart reversal contributes (-1)^(p+q), the Kirchhoff sign to the p
        values = [sign**bd.p * float(form.coefficients[e.id](0.0 if side == "head" else -e.length))
                  for e, side, sign in ends]
        if bd.p == 0:
            spread = max(values) - min(values)
            continuity[v] = (spread <= tol, f"end values spread {spread:.3e}")
        else:  # vertex-local values carry the Kirchhoff signs; summed in order, as floats
            total = 0.0
            for value in values:
                total += value
            kirchhoff[v] = (abs(total) <= tol, total)

    for e in curve.infinite_edges():
        at_infinity[e.id] = _tail_entry(form.coefficients[e.id], bd, tol)

    return RegularityReport(continuity, kirchhoff, at_infinity)


def reoriented(form: Superform, curve: TropicalCurve, edge_id: str) -> Superform:
    """Coefficients of ``form`` on the curve with ``edge_id`` reversed.

    Applies the chart-reversal rule on that edge: y = -l - x with the
    sign (-1)^(p+q).
    """
    e = curve.edge(edge_id)
    sign = -1 if form.bidegree.total == 1 else 1
    out = dict(form.coefficients)
    out[edge_id] = form.coefficients[edge_id].reversed_chart(e.length, sign)
    return Superform(form.bidegree, out, form.vanishes_dimensionally)
