"""Executable verification suites with a machine-readable report.

Each suite asserts one family of proved identities and reports a
residual against a hard tolerance; a failing check never aborts the
suite.  Random test forms have polynomial coefficients from a seeded
generator (plus a tail window on infinite edges) whose end values are
drawn junction by junction to meet the vertex conditions, so the
reports are reproducible from (curve, weight, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import theta as theta_module
from .curve import TropicalCurve, genus
from .discrete import AmbiguousKernelError, BudgetError, assemble, build_mesh, kernel
from .exact import rank
from .expressions import Opaque, _walk
from .harmonic import betti, cech_cohomology, harmonic_basis
from .metric import FUBINI_STUDY_SOURCE, KahlerForm, hodge_star, integrate, laplacian
from .quadrature import DivergenceError, _unwrap
from .superform import Bidegree, EdgeFunction, Superform, d_second, is_regular, wedge

__all__ = [
    "CheckResult",
    "CheckReport",
    "band_window",
    "regular_test_forms",
    "energy_test_pair",
    "check_stokes",
    "check_integration_by_parts",
    "check_hodge_theorem",
    "check_star_identities",
    "check_theta_correspondence",
    "run_verification",
]

# Window kinks sit on quadrature panel boundaries: x = -8 ln 2 is an
# octave boundary of the tail substitution at every refinement depth.
_TAIL_WINDOW_BOUND = -8.0 * math.log(2.0)
# tail mass and second moment left beyond the cut of an infinite edge
TRUNC_EPS = 1e-4
H_LIST = (1 / 16, 1 / 32)  # mesh steps of the hodge checks' discrete kernels
FORM_COUNT = 20  # test forms per family in run_verification
MAX_FORM_COUNT = 2**12  # verify on triangle_with_legs with this many: about 10 s and 172 MiB peak
DECAY = "exp(2*x)/(1+exp(2*x))"  # decays at -inf like the Fubini-Study weight


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    status: str  # "pass" | "fail" | "ambiguous"
    residual: float
    tol: float
    seconds: float

    def as_dict(self, include_timings: bool = False) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "residual": self.residual,
            "tol": self.tol,
            "seconds": self.seconds if include_timings else 0.0,
        }


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, check_id: str, anchor: str, residual: float, tol: float,
            seconds: float, status: str | None = None) -> None:
        if status is None:
            status = "pass" if residual <= tol else "fail"
        self.checks.append(CheckResult(check_id, anchor, status, float(residual), tol, seconds))

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)

    def as_dict(self, include_timings: bool = False) -> dict:
        out = {"checks": [c.as_dict(include_timings) for c in self.checks]}
        if self.notes:
            out["notes"] = list(self.notes)
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _smoothstep_window(start: float, domain, stop: float = 0.0) -> EdgeFunction:
    """C^2 window: 0 on (-inf, start], quintic ramp, 1 on [stop, chart end]."""
    return EdgeFunction(_window(start, stop), tail_bound=start, domain=domain)


@lru_cache(maxsize=64)
def _window(start: float, stop: float, level: int = 0) -> Opaque:
    """The level-th derivative of the window, one node per (start, stop): test forms share it."""
    poly = np.array([6.0, -15.0, 10.0, 0.0, 0.0, 0.0])  # 6t^5-15t^4+10t^3
    for _ in range(level):
        poly = np.polyder(poly)
    width = stop - start
    scale = width**-level if level else 1.0
    above = 1.0 if level == 0 else 0.0

    def value(x):
        x = np.asarray(x, dtype=float)
        t = (x - start) / width
        ramp = np.polyval(poly, np.clip(t, 0.0, 1.0)) * scale
        out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, above, ramp))
        return out if x.ndim else float(out)

    return Opaque(value, derivative=lambda: _window(start, stop, level + 1))


def band_window(rise: tuple[float, float], fall: tuple[float, float], domain) -> EdgeFunction:
    """C^2 bump: 0 outside (rise[0], fall[1]), 1 on [rise[1], fall[0]].

    Compactly supported inside a half-open tail chart when fall[1] < 0;
    place the four breakpoints on quadrature panel boundaries (integer
    multiples of -ln 2 on infinite edges) to keep panelwise smoothness.
    """
    up = _smoothstep_window(rise[0], domain, stop=rise[1])
    down = EdgeFunction.constant(1.0, domain) - _smoothstep_window(fall[0], domain, stop=fall[1])
    out = up * down
    out.tail_bound = rise[0]
    return out


def _cubic(head: float, tail: float, e, r0: float, r1: float) -> EdgeFunction:
    """H + (H - T) x / l + x (x + l)(r0 + r1 x / l) / l^2 on a finite edge:
    the end values H at the head and T at the tail, plus a bubble vanishing
    at both.  The bubble is scaled to the edge, so it stays within
    (|r0| + |r1|) / 4 on an edge of any length and the integrals over it
    keep the absolute quadrature tolerance."""
    l = e.length
    return EdgeFunction.polynomial([head, (head - tail) / l + r0 / l, (r0 + r1) / l**2, r1 / l**3], domain=e.chart)


def regular_test_forms(curve: TropicalCurve, bidegree, count: int, seed: int) -> list[Superform]:
    """Seeded random regular superforms.

    The canonical end values are drawn junction by junction so that the
    vertex conditions hold by construction: one value per junction for
    (0,0) forms; for (1,0) forms one value w per end, minus the
    junction's mean (the orthogonal projection onto sum w = 0), times the
    end's Kirchhoff sign.  An end in no junction gets a free value.
    Finite edges carry the cubic through their two end values with a
    random bubble; infinite edges a windowed linear coefficient through
    the head value (plus a constant for (0,0) forms, which only need to
    be eventually constant).
    """
    bd = Bidegree.of(bidegree)
    if bd.as_tuple() not in ((0, 0), (1, 0)):
        raise ValueError("test families are generated in bidegrees (0,0) and (1,0)")
    scalar = bd.p == 0
    rng = np.random.default_rng(seed)
    junctions = [ends for _, ends in curve.junctions()]

    forms = []
    for _ in range(count):
        end = {}  # (edge id, side) -> canonical end value
        for ends in junctions:
            if scalar:  # continuity: one value for every end
                values = [rng.uniform(-1.0, 1.0)] * len(ends)
            else:  # Kirchhoff: vertex-local values w summing to zero; the canonical value is sign * w
                w = rng.uniform(-1.0, 1.0, size=len(ends))
                values = [sign * v for (_, _, sign), v in zip(ends, w - w.mean())]
            end.update(((e.id, side), value) for (e, side, _), value in zip(ends, values))

        def end_value(e, side):
            return end[e.id, side] if (e.id, side) in end else rng.uniform(-1.0, 1.0)

        coeffs = {}
        for e in curve.sorted_edges():
            head = end_value(e, "head")
            if not e.infinite:
                r0, r1 = rng.uniform(-1.0, 1.0, size=2)
                coeffs[e.id] = _cubic(head, end_value(e, "tail"), e, r0, r1)
                continue
            # the window equals 1 at the head and 0 beyond _TAIL_WINDOW_BOUND
            a0 = rng.uniform(-1.0, 1.0) if scalar else head
            linear = EdgeFunction.polynomial([a0, rng.uniform(-1.0, 1.0)], domain=e.chart)
            fn = linear * _smoothstep_window(_TAIL_WINDOW_BOUND, e.chart)
            if scalar:
                fn = fn + EdgeFunction.constant(head - a0, e.chart)
            fn.tail_bound = _TAIL_WINDOW_BOUND
            coeffs[e.id] = fn
        forms.append(Superform(bd, coeffs))
    return forms


def _default_tol(curve: TropicalCurve) -> float:
    return 1e-7 if curve.infinite_edges() else 1e-8


def _worst(residuals) -> float:
    """The largest of non-negative ``residuals``, 0.0 for none, NaN if any is NaN.

    ``max`` keeps what it holds against a NaN, so a NaN residual would
    read as 0 and pass; NaN <= tol is False, so this one fails.
    """
    return float(np.max(list(residuals), initial=0.0))


def _integrals(curve: TropicalCurve, forms) -> list[float]:
    """The integrals of (1,1) forms from one ``integrate`` call, raising the first divergent one's error.

    Callers list the two sides of an identity next to each other, so a
    walk reads one form's subtrees one after another."""
    return [_unwrap(value) for value in integrate(curve, forms)]


def check_stokes(curve: TropicalCurve, forms: list[Superform], seed: int = 0) -> CheckReport:
    """Vanishing of the total d'' integral, plus the bilinear form of it.

    Rejects non-regular inputs; partners for the bilinear identity are a
    seeded regular (0,0) family of matching size.
    """
    report = CheckReport()
    start = time.perf_counter()
    for form in forms:
        if form.bidegree.as_tuple() != (1, 0):
            raise ValueError("check_stokes expects (1,0) forms")
        if not is_regular(form, curve).passed:
            raise ValueError("non-regular input form rejected")
    worst = _worst(abs(value) for value in _integrals(curve, (d_second(form) for form in forms)))
    report.add(
        "stokes-closed",
        "the integral of d'' of a regular (1,0) form vanishes",
        worst,
        _default_tol(curve),
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    partners = regular_test_forms(curve, (0, 0), len(forms), seed + 7919)
    sides = _integrals(curve, (side for phi, psi in zip(forms, partners)
                               for side in (wedge(d_second(phi), psi), wedge(phi, d_second(psi)))))
    worst = _worst(abs(lhs - rhs) for lhs, rhs in zip(sides[::2], sides[1::2]))
    report.add(
        "stokes-bilinear",
        "d'' moves across the wedge of (1,0) and (0,0) forms with sign +1",
        worst,
        _default_tol(curve),
        time.perf_counter() - start,
    )
    return report


def check_integration_by_parts(curve: TropicalCurve, pairs: list[tuple[Superform, Superform]]) -> CheckReport:
    """Largest | int d''psi ^ phi + int psi ^ d''phi | over weakly differentiable pairs (psi, phi)."""
    report = CheckReport()
    start = time.perf_counter()
    sides = _integrals(curve, (side for psi, phi in pairs
                               for side in (wedge(d_second(psi), phi), wedge(psi, d_second(phi)))))
    worst = _worst(abs(lhs + rhs) for lhs, rhs in zip(sides[::2], sides[1::2]))
    report.add(
        "integration-by-parts",
        "pairing of d'' against a weakly differentiable partner is antisymmetric",
        worst,
        _default_tol(curve),
        time.perf_counter() - start,
    )
    return report


def energy_test_pair(curve: TropicalCurve, seed: int) -> tuple[Superform, Superform]:
    """A weakly differentiable (0,0)/(1,0) pair, decaying on infinite edges.

    Infinite edges carry multiples of ``DECAY``, so the pair exercises the
    tail estimates without being regular at infinity.  The (0,0) form
    takes one value per vertex, continued by cubics on finite edges; the
    (1,0) form is a regular test form with its tails swapped for decaying
    ones of the same end values.
    """
    rng = np.random.default_rng(seed)
    vertex_value = {v: rng.uniform(-1.0, 1.0) for v in curve.sorted_vertices()}
    psi_coeffs = {}
    for e in curve.sorted_edges():
        if e.infinite:
            amp = rng.uniform(-1.0, 1.0)
            shift = vertex_value[e.head] - amp * 0.5
            fn = EdgeFunction.from_expression(DECAY, domain=e.chart).scale(amp)
            psi_coeffs[e.id] = fn + EdgeFunction.constant(shift, e.chart)
        else:
            r0, r1 = rng.uniform(-1.0, 1.0, size=2)
            psi_coeffs[e.id] = _cubic(vertex_value[e.head], vertex_value[e.tail], e, r0, r1)
    psi = Superform(Bidegree(0, 0), psi_coeffs)

    phi = regular_test_forms(curve, (1, 0), 1, seed + 31)[0]
    if curve.infinite_edges():
        # swap the windowed tails for decaying ones, keeping end values
        coeffs = dict(phi.coefficients)
        for e in curve.infinite_edges():
            end = float(coeffs[e.id](0.0))
            coeffs[e.id] = EdgeFunction.from_expression(DECAY, domain=e.chart).scale(2.0 * end)
        phi = Superform(Bidegree(1, 0), coeffs)
    return psi, phi


def _principal_angle(system, spectral, basis) -> float:
    """Largest principal angle between the discrete kernel and the exact span."""
    import scipy.linalg

    if basis.dimension == 0:
        return 0.0 if spectral.kernel_dimension == 0 else math.pi / 2
    edge_dofs = system.dof_map.edge_dofs
    # one row of constants per edge, and each DOF takes its edge's row
    constants = np.array([[float(c.get(eid, 0)) for c in basis.exact_coefficients] for eid in edge_dofs])
    edge_of = np.empty(system.dof_map.n_dofs, dtype=int)
    for k, dofs in enumerate(edge_dofs.values()):
        edge_of[dofs[dofs >= 0]] = k
    X = constants[edge_of]
    U, M = spectral.vectors, system.mass
    MU = M @ U
    # the cosines below are only cosines for M-orthonormal U
    if U.shape[1] != X.shape[1] or not np.abs(U.T @ MU - np.eye(U.shape[1])).max() <= 1e-8:  # a NaN fails too
        return math.pi / 2
    gram = X.T @ (M @ X)
    X = X @ np.linalg.inv(np.linalg.cholesky(gram).T)
    cosines = scipy.linalg.svdvals(X.T @ MU)
    return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))


def check_hodge_theorem(curve: TropicalCurve, g: KahlerForm, h_list=H_LIST) -> CheckReport:
    """Cross-checks every computation of the harmonic dimensions.

    genus = topological betti_1 = exact (1,0) nullspace dimension =
    Cech H^0 of the closed-(1,0) sheaf = discrete (1,0) kernel at each
    mesh size; Cech H^1 of that sheaf, Cech H^0 of the constants and the
    discrete (0,0) kernels equal 1; the Hodge star pairs dimensions; the
    discrete kernels span the exact bases.

    Two blocks are timed apart: the exact algebra (bases, both Cech
    computations, the rank of the starred flows) and the meshes and
    kernels over ``h_list``.  Each id's seconds are the sum of the blocks
    it reads: both for all but ``hodge-star-duality``, which reads only
    the exact block, so the four ids' seconds overlap.
    """
    report = CheckReport()
    start = time.perf_counter()
    basis10 = harmonic_basis(curve, g, (1, 0))
    cech_omega = cech_cohomology(curve, "omega1")
    cech_const = cech_cohomology(curve, "constants")
    values = [genus(curve), betti(curve, 1), basis10.dimension, cech_omega[0], cech_const[1]]
    basis00 = harmonic_basis(curve, g, (0, 0))
    scalar_values = [cech_omega[1], cech_const[0]]
    # the star takes f d'x to f d''x: the starred flows are the flows' coefficient rows;
    # the (0,0) and (1,1) dimensions are Cech H^0 of the constants and H^1 of omega1
    duality = max(
        abs(rank([list(c.values()) for c in basis10.exact_coefficients]) - basis10.dimension),
        abs(cech_omega[1] - cech_const[0]),
    )
    exact_s = time.perf_counter() - start

    start = time.perf_counter()
    angles = []
    ambiguous = False
    for h in h_list:
        try:
            mesh = build_mesh(curve, g, h, TRUNC_EPS)
            for basis, dimensions in ((basis10, values), (basis00, scalar_values)):
                system = assemble(mesh, curve, g, basis.bidegree)
                spectral = kernel(system)
                dimensions.append(spectral.kernel_dimension)
                angles.append(_principal_angle(system, spectral, basis))
        except AmbiguousKernelError:
            ambiguous = True
    both_s = exact_s + time.perf_counter() - start

    spread = float(max(values) - min(values))
    report.add(
        "hodge-dimension-agreement",
        "five computations of the harmonic (1,0) dimension coincide with the genus",
        spread,
        0.0,
        both_s,
        status="ambiguous" if ambiguous else None,
    )
    report.add(
        "hodge-scalar-dimensions",
        "the (0,0) and (1,1) harmonic spaces are one-dimensional",
        float(max(abs(v - 1) for v in scalar_values)),
        0.0,
        both_s,
        status="ambiguous" if ambiguous else None,
    )
    report.add(
        "hodge-star-duality",
        "the Hodge star pairs the harmonic dimensions (p,q) <-> (1-p,1-q)",
        float(duality),
        0.0,
        exact_s,
    )
    report.add(
        "hodge-kernel-span",
        "discrete kernels reproduce the exact harmonic spans",
        _worst(angles),
        1e-6,
        both_s,
        status="ambiguous" if ambiguous else None,
    )
    return report


def _sample_grid(e) -> np.ndarray:
    if e.infinite:
        return -np.concatenate([np.linspace(0.0, 4.0, 17), np.geomspace(4.0, 30.0, 8)])
    return np.linspace(-e.length, 0.0, 17)


def _sup_difference(curve, pairs) -> float:
    """Largest |a - b| over the sample grids of all edges and all form pairs (a, b), in one walk per edge."""
    differences = []
    for e in curve.sorted_edges():
        values = _walk([form.coefficients[e.id].node for pair in pairs for form in pair], _sample_grid(e))
        for va, vb in zip(values, values):  # consecutive values: a pair's two sides
            differences.append(np.max(np.abs(np.asarray(va, dtype=float) - np.asarray(vb, dtype=float))))
    return _worst(differences)


def _star_family(curve: TropicalCurve, bidegree, g: KahlerForm) -> list[Superform]:
    """Smooth forms with exact derivative chains for the star identities.

    (1,1) forms carry g h on legs, so their scalar products integrate
    g h^2 with |h| <= 1 + |x|: they converge wherever the mass and second
    moment of g do, which ``validate_kahler`` checks.
    """
    coeff_sets = [
        {"finite": "1", "infinite": DECAY},
        {"finite": "x^2-0.5*x", "infinite": f"(1+x)*({DECAY})^2"},
        {"finite": "exp(x)*(1+x)", "infinite": f"x*exp(2*x)/(1+exp(2*x))^2"},
    ]
    forms = []
    for spec in coeff_sets:
        coeffs = {}
        for e in curve.sorted_edges():
            source = spec["infinite"] if e.infinite else spec["finite"]
            coeffs[e.id] = EdgeFunction.from_expression(source, domain=e.chart)
            if e.infinite and bidegree == (1, 1):
                coeffs[e.id] = coeffs[e.id] * g.weights[e.id]
        forms.append(Superform(Bidegree(*bidegree), coeffs))
    return forms


def check_star_identities(curve: TropicalCurve, g: KahlerForm) -> CheckReport:
    """Star involution sign, star isometry, star/Laplacian commutation."""
    report = CheckReport()
    families = {(p, q): _star_family(curve, (p, q), g) for p, q in ((0, 0), (1, 0), (0, 1), (1, 1))}

    start = time.perf_counter()
    pairs = []
    for (p, q), family in families.items():
        sign = (-1.0) ** (p + q)
        for form in family:
            twice = hodge_star(hodge_star(form, g), g)
            pairs.append((twice, form.map_coefficients(lambda fn: fn.scale(sign)) if sign < 0 else form))
    worst = _sup_difference(curve, pairs)
    report.add(
        "star-involution",
        "applying the star twice is (-1)^(p+q) times the identity",
        worst,
        0.0,
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    labels, sides = [], []
    for (p, q), family in families.items():
        stars = [hodge_star(form, g) for form in family]
        stars_of_stars = [hodge_star(star, g) for star in stars]
        for i in range(len(family)):
            for j in range(i, len(family)):
                # the integrands of the scalar products (a, b) = int a ^ *b of the pair and of its stars
                labels.append(f"({p},{q}) {i}-{j}")
                sides += [wedge(family[i], stars[j]), wedge(stars[i], stars_of_stars[j])]
    values = integrate(curve, sides)
    differences, divergent = [], []
    for label, direct, starred in zip(labels, values[::2], values[1::2]):
        if isinstance(direct, DivergenceError) or isinstance(starred, DivergenceError):
            divergent.append(label)
            continue
        differences.append(abs(direct - starred))
    report.add(
        "star-isometry",
        "the star preserves the scalar product",
        _worst(differences),
        1e-7,
        time.perf_counter() - start,
        status="fail" if divergent else None,
    )
    if divergent:
        report.notes.append(f"star-isometry fails: the scalar products of the test form pairs {', '.join(divergent)} "
                            "diverge; its residual covers the other pairs")

    start = time.perf_counter()
    pairs = [(laplacian(hodge_star(form, g), g), hodge_star(laplacian(form, g), g))
             for family in families.values() for form in family]
    worst = _sup_difference(curve, pairs)
    report.add(
        "star-laplacian-commutation",
        "the star commutes with the Laplace-Beltrami operator",
        worst,
        1e-7,
        time.perf_counter() - start,
    )

    report.notes.append(_laplacian_formula_note(curve, g))
    return report


def _laplacian_formula_note(curve: TropicalCurve, g: KahlerForm) -> str:
    """Record how far the doubled-g'' coordinate expansion of the (1,1)
    Laplacian sits from the operator composition -(f/g)'', which is what
    this package computes.  The discrepancy is reported, never absorbed.
    Legs carry g DECAY, as in ``_star_family``, so the term stays finite
    on weights that decay faster than e^{2x}."""
    terms = []
    for e in curve.sorted_edges():
        w = g.weights[e.id]
        f = EdgeFunction.from_expression(DECAY, domain=e.chart)
        if e.infinite:
            f = f * w
        xs = _sample_grid(e)
        gpp = np.asarray(w.derivative().derivative()(xs), dtype=float)
        gv = np.asarray(w(xs), dtype=float)
        fv = np.asarray(f(xs), dtype=float)
        # the alternative expansion adds one extra g'' f / g^2 term
        terms.append(np.max(np.abs(gpp * fv / gv**2)))
    worst = _worst(terms)
    return (
        "the (1,1) Laplacian follows the operator composition -(f/g)''; an alternative "
        f"coordinate expansion with a doubled g''f/g^2 term would differ by up to {worst:.6e} "
        "on the sampled family and is not used"
    )


def check_theta_correspondence() -> CheckReport:
    """Tropical integrals match the two-dimensional annulus integrals."""
    tol = 1e-6
    report = CheckReport()
    cases = [
        ("theta-constant", EdgeFunction.from_expression("1", domain=(-math.inf, math.inf)), (0.0, 1.0)),
        ("theta-cubic", EdgeFunction.from_expression("x^2", domain=(-math.inf, math.inf)), (0.0, 1.0)),
        (
            "theta-fubini-study",
            EdgeFunction.from_expression(FUBINI_STUDY_SOURCE, domain=(-math.inf, math.inf)),
            (-math.inf, math.inf),
        ),
    ]
    for check_id, fn, interval in cases:
        start = time.perf_counter()
        result = theta_module.compare_tropical_complex(fn, interval, tol)
        report.add(
            check_id,
            "a tropical interval integral equals the corresponding annulus integral",
            result["residual"],
            tol,
            time.perf_counter() - start,
        )
    return report


def run_verification(curve: TropicalCurve, g: KahlerForm, seed: int = 0, h_list=H_LIST,
                     form_count: int = FORM_COUNT) -> CheckReport:
    """All verification suites on one curve, run in a fixed order.

    form_count must be at least 1 and at most MAX_FORM_COUNT, checked
    before any form is built.
    """
    if form_count < 1:
        raise ValueError(f"verification needs at least one test form per family, got {form_count}")
    if form_count > MAX_FORM_COUNT:
        raise BudgetError(f"{form_count} test forms per family exceed the budget of {MAX_FORM_COUNT}")
    report = CheckReport(seed=seed)
    forms = regular_test_forms(curve, (1, 0), form_count, seed)
    report.extend(check_stokes(curve, forms, seed))
    pairs = [energy_test_pair(curve, seed + 1000 + k) for k in range(form_count)]
    report.extend(check_integration_by_parts(curve, pairs))
    report.extend(check_hodge_theorem(curve, g, h_list))
    report.extend(check_star_identities(curve, g))
    report.extend(check_theta_correspondence())
    return report
