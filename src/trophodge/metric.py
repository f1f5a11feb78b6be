"""Kahler weights, tropical integration, Hodge star and the Laplacian.

A Kahler form is a positive (1,1) weight g per edge with finite total
mass and, on infinite edges, a finite second moment.  It induces the
scalar product (phi, psi) = integral of phi ^ *psi, with coordinate
weights g, 1, 1/g for bidegrees (0,0), (1,0)/(0,1), (1,1), and the
coordinate Hodge star

    *f        = f g d'x^d''x        *(f d'x^d''x) = f/g
    *(f d'x)  = f d''x              *(f d''x)     = -f d'x

The codifferential is the composition -*d''* and the Laplacian is
d''d''* + d''*d''; both are computed by composing the coordinate
operations rather than transcribing printed formulas, so the printed
formulas serve as independent oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import TropicalCurve
from .quadrature import DivergenceError, _unwrap, integrate_finite, integrate_lower_tail
from .superform import Bidegree, EdgeFunction, Superform, d_second, wedge

__all__ = [
    "KahlerForm",
    "KahlerValidationReport",
    "KahlerError",
    "validate_kahler",
    "integrate",
    "edge_integral",
    "hodge_star",
    "inner_product",
    "codifferential",
    "laplacian",
    "FUBINI_STUDY_SOURCE",
]

# weight of the Fubini-Study form in the canonical chart of one edge
FUBINI_STUDY_SOURCE = "2*exp(2*x)/(1+exp(2*x))^2"


class KahlerError(ValueError):
    """Weight fails the positivity or integrability conditions."""


@dataclass
class KahlerForm:
    """Per-edge positive weight g_e; validate_kahler reports its masses."""

    curve: TropicalCurve
    weights: dict[str, EdgeFunction]

    @classmethod
    def constant(cls, curve: TropicalCurve, value: float = 1.0) -> "KahlerForm":
        if value <= 0:
            raise KahlerError("constant weight must be positive")
        weights = {e.id: EdgeFunction.constant(value, e.chart) for e in curve.sorted_edges()}
        return cls(curve, weights)

    @classmethod
    def fubini_study(cls, curve: TropicalCurve) -> "KahlerForm":
        weights = {
            e.id: EdgeFunction.from_expression(FUBINI_STUDY_SOURCE, domain=e.chart)
            for e in curve.sorted_edges()
        }
        return cls(curve, weights)

    @classmethod
    def from_spec(cls, curve: TropicalCurve, spec: dict | None) -> "KahlerForm":
        """Build from the curve document's "kahler" key.

        Edges without an entry default to the constant weight 1 when
        finite and to the Fubini-Study weight when infinite (a constant
        has divergent mass there).  A malformed spec, or a key that names
        no edge of the curve, raises KahlerError.
        """
        weights = {}
        spec = spec or {}
        if not isinstance(spec, dict):
            raise KahlerError('"kahler" must be an object keyed by edge id')
        edge_ids = {e.id for e in curve.edges}
        for key in spec:
            if key in edge_ids:
                continue
            split = next((n for n in curve.normalizations if n["edge"] == key), None)
            if split is not None:
                raise KahlerError(
                    f"kahler key {key!r} names an edge that was split in two; "
                    f"key its halves {split['left']!r} and {split['right']!r}"
                )
            raise KahlerError(f"kahler key {key!r} names no edge of the curve")
        for e in curve.sorted_edges():
            entry = spec.get(e.id)
            if entry is None:
                if e.infinite:
                    weights[e.id] = EdgeFunction.from_expression(FUBINI_STUDY_SOURCE, domain=e.chart)
                else:
                    weights[e.id] = EdgeFunction.constant(1.0, e.chart)
                continue
            if not isinstance(entry, dict):
                raise KahlerError(f"kahler entry of edge {e.id!r} must be an object")
            kind = entry.get("kind")
            if kind == "constant":
                try:
                    value = float(entry["value"])
                except (KeyError, TypeError, ValueError, OverflowError):
                    raise KahlerError(f"constant weight on edge {e.id!r} needs a numeric \"value\"") from None
                weights[e.id] = EdgeFunction.constant(value, e.chart)
            elif kind == "fubini-study":
                weights[e.id] = EdgeFunction.from_expression(FUBINI_STUDY_SOURCE, domain=e.chart)
            elif kind == "expr":
                formula = entry.get("formula")
                if not isinstance(formula, str):
                    raise KahlerError(f"expr weight on edge {e.id!r} needs a string \"formula\"")
                weights[e.id] = EdgeFunction.from_expression(formula, domain=e.chart)
            else:
                raise KahlerError(f"unknown kahler weight kind {kind!r} on edge {e.id!r}")
        return cls(curve, weights)

    @classmethod
    def validated(cls, curve: TropicalCurve, spec: dict | None = None) -> "KahlerForm":
        g = cls.from_spec(curve, spec)
        report = validate_kahler(curve, g)
        if not report.passed:
            raise KahlerError("; ".join(report.failures()))
        return g

    def as_superform(self) -> Superform:
        return Superform(Bidegree(1, 1), dict(self.weights))


@dataclass(frozen=True)
class KahlerValidationReport:
    entries: tuple  # (edge id, check name, passed, detail)
    edge_mass: dict[str, float]
    second_moments: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok, _ in self.entries)

    @property
    def total_mass(self) -> float:
        return float(sum(self.edge_mass.get(eid, 0.0) for eid in sorted(self.edge_mass)))

    def failures(self) -> list[str]:
        return [f"edge {eid} {name}: {detail}" for eid, name, ok, detail in self.entries if not ok]


def _positivity_samples(e, depth: int) -> np.ndarray:
    if e.infinite:
        return -np.geomspace(2.0 ** -depth, 2.0 ** depth, 16 * depth)
    return np.linspace(-e.length, 0.0, 16 * depth + 1)


def validate_kahler(curve: TropicalCurve, g: KahlerForm) -> KahlerValidationReport:
    """Positivity plus convergence of mass and second-moment integrals.

    Positivity is sampled on a refinement-doubling grid; the integrals
    use the adaptive engine, whose own refinement agreement is the
    convergence criterion.  Divergence shows up as a failed entry.
    """
    entries = []
    edge_mass: dict[str, float] = {}
    second_moments: dict[str, float] = {}
    for e in curve.sorted_edges():
        fn = g.weights[e.id]
        values = np.concatenate([np.asarray(fn(_positivity_samples(e, d)), dtype=float) for d in (2, 4)])
        positive = bool(np.all(values > 0.0))
        entries.append(
            (e.id, "positivity", positive,
             "positive on doubling sample grid" if positive else f"min sample {values.min():.3e}")
        )
        try:
            mass = edge_integral(curve, fn.node, e.id)
        except DivergenceError as exc:
            entries.append((e.id, "mass", False, f"divergent: {exc}"))
        else:
            edge_mass[e.id] = mass
            entries.append((e.id, "mass", True, f"mass {mass!r}"))
        if e.infinite:
            try:
                moment = integrate_lower_tail(lambda x: np.asarray(x) ** 2 * np.asarray(fn(x)), 0.0)
            except DivergenceError as exc:
                entries.append((e.id, "second-moment", False, f"divergent: {exc}"))
            else:
                second_moments[e.id] = moment
                entries.append((e.id, "second-moment", True, f"second moment {moment!r}"))
    return KahlerValidationReport(tuple(entries), edge_mass, second_moments)


def edge_integral(curve: TropicalCurve, fn, edge_id: str):
    """Chart integral over one edge of a scalar coefficient, or of each of a sequence of them in one walk per level
    (see ``quadrature._integrate``); a coefficient with F rows gives the list of its rows' integrals."""
    e = curve.edge(edge_id)
    if e.infinite:
        return integrate_lower_tail(fn, 0.0)
    return integrate_finite(fn, -e.length, 0.0)


def integrate(curve: TropicalCurve, forms):
    """Tropical integral of a (1,1) form: the sum of its chart integrals, edge by edge.

    A form with F rows (a family, see ``superform``) is F integrals.
    Given a sequence or iterable of forms, returns the integrals of all
    their rows in order, form after form.  Each edge integrates the
    coefficients of all the forms together, so they share the walks over
    its quadrature grid, which hold a bounded number of rows each
    (``quadrature.WALK_CELLS``).  A row whose integral diverges on some
    edge gets the DivergenceError of its first such edge in place of a
    value.  A single form of one row returns its value or raises that
    error; a single family returns the list of its rows' integrals.
    """
    single = isinstance(forms, Superform)
    forms = [forms] if single else list(forms)
    for form in forms:
        if form.bidegree.as_tuple() != (1, 1):
            raise ValueError(f"tropical integration needs bidegree (1,1), got {form.bidegree.as_tuple()}")
    sums = [[0.0] * form.rows for form in forms]
    for e in curve.sorted_edges():
        values = edge_integral(curve, [form.coefficients[e.id].node for form in forms], e.id)
        for row_sums, value in zip(sums, values):
            # a coefficient without columns is the same on every row of its form
            for r, v in enumerate(value if isinstance(value, list) else [value] * len(row_sums)):
                if not isinstance(row_sums[r], DivergenceError):
                    row_sums[r] = v if isinstance(v, DivergenceError) else row_sums[r] + v
    totals = [total for row_sums in sums for total in row_sums]
    return (_unwrap(totals[0]) if len(totals) == 1 else totals) if single else totals


def hodge_star(form: Superform, g: KahlerForm) -> Superform:
    """Coordinate Hodge star (p,q) -> (1-p,1-q) for the weight g."""
    p, q = form.bidegree.as_tuple()
    if (p, q) == (0, 0):
        op = lambda fn, w: fn * w
    elif (p, q) == (1, 1):
        op = lambda fn, w: fn.divide(w)
    elif (p, q) == (1, 0):
        op = lambda fn, w: fn
    else:  # (0, 1)
        op = lambda fn, w: -fn
    coeffs = {eid: op(fn, g.weights[eid]) for eid, fn in form.coefficients.items()}
    return Superform(Bidegree(1 - p, 1 - q), coeffs, form.vanishes_dimensionally)


def inner_product(a: Superform, b: Superform, g: KahlerForm) -> float:
    """Scalar product (a, b) = integral of a ^ *b over the curve of g."""
    if a.bidegree != b.bidegree:
        raise ValueError("inner product needs forms of equal bidegree")
    return integrate(g.curve, wedge(a, hodge_star(b, g)))


def codifferential(form: Superform, g: KahlerForm) -> Superform:
    """The adjoint of d'': the composition -*d''*.

    Lowers q by one; on q=0 forms the chain passes through a
    dimensionally vanishing d'' and returns a flagged zero.
    """
    starred = hodge_star(form, g)
    differentiated = d_second(starred)
    out = hodge_star(differentiated, g)
    return out.map_coefficients(lambda fn: -fn)


def laplacian(form: Superform, g: KahlerForm) -> Superform:
    """Laplace-Beltrami operator d''d''* + d''*d'' by composition.

    One summand always vanishes for dimensional reasons, so the live one
    is returned: d''*d'' on q=0 forms and d''d''* on q=1 forms.
    """
    if form.bidegree.q == 0:
        return codifferential(d_second(form), g)
    return d_second(codifferential(form, g))
