"""Executable verification suites with a machine-readable report.

Each suite asserts one family of proved identities and reports a
residual against a hard tolerance; a failing check never aborts the
suite.  Random test forms have polynomial coefficients from a seeded
generator (plus a tail window on infinite edges) projected onto the
regular subspace by a minimum-norm least-squares correction, so the
reports are reproducible from (curve, weight, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import theta as theta_module
from .curve import TropicalCurve, genus
from .discrete import AmbiguousKernelError, assemble, build_mesh, kernel
from .harmonic import betti, cech_cohomology, harmonic_basis
from .metric import KahlerForm, hodge_star, inner_product, integrate, laplacian
from .quadrature import DEFAULT_RULE, QuadratureRule
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
    s_coeffs = np.array([6.0, -15.0, 10.0, 0.0, 0.0, 0.0])  # 6t^5-15t^4+10t^3
    width = stop - start

    def make(level: int) -> EdgeFunction:
        poly = s_coeffs
        for _ in range(level):
            poly = np.polyder(poly)
        scale = width**-level if level else 1.0
        above = 1.0 if level == 0 else 0.0

        def value(x, poly=poly, scale=scale, above=above):
            x = np.asarray(x, dtype=float)
            t = (x - start) / width
            ramp = np.polyval(poly, np.clip(t, 0.0, 1.0)) * scale
            out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, above, ramp))
            return out if x.ndim else float(out)

        return EdgeFunction(value, lambda: make(level + 1), tail_bound=start, domain=domain)

    return make(0)


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


def regular_test_forms(curve: TropicalCurve, bidegree, count: int, seed: int,
                       degree: int = 3) -> list[Superform]:
    """Seeded random regular superforms.

    Finite edges carry polynomial coefficients of degree <= ``degree``;
    infinite edges carry a windowed linear coefficient (plus a constant
    for (0,0) forms, which only need to be eventually constant).  The
    vertex conditions are enforced by the minimum-norm least-squares
    correction of the coefficient vector.
    """
    bd = bidegree if isinstance(bidegree, Bidegree) else Bidegree(*bidegree)
    if bd.as_tuple() not in ((0, 0), (1, 0)):
        raise ValueError("test families are generated in bidegrees (0,0) and (1,0)")
    rng = np.random.default_rng(seed)
    finite = curve.finite_edges()
    infinite = curve.infinite_edges()

    # coefficient slots: finite edge -> degree+1 or window slots on infinite
    slots: list[tuple[str, str, int]] = []
    for e in finite:
        for k_power in range(degree + 1):
            slots.append((e.id, "poly", k_power))
    for e in infinite:
        if bd.as_tuple() == (0, 0):
            slots.append((e.id, "const", 0))
        slots.append((e.id, "win", 0))
        slots.append((e.id, "win", 1))
    index = {key: i for i, key in enumerate(slots)}
    n = len(slots)

    def window_bound(e) -> float:
        return _TAIL_WINDOW_BOUND if e.infinite else -e.length / 2.0

    def end_value_row(e, side) -> np.ndarray:
        """Coefficient-vector functional for the canonical end value."""
        row = np.zeros(n)
        if not e.infinite:
            x0 = 0.0 if side == "head" else -e.length
            for k_power in range(degree + 1):
                row[index[(e.id, "poly", k_power)]] = x0**k_power
        else:
            # window equals 1 at the head; the tail end is at -inf
            if bd.as_tuple() == (0, 0):
                row[index[(e.id, "const", 0)]] = 1.0
            row[index[(e.id, "win", 0)]] = 1.0
        return row

    rows = []
    if bd.as_tuple() == (1, 0):
        for v in curve.sorted_vertices():
            if curve.degree(v) < 2:
                continue
            row = np.zeros(n)
            for e, side in curve.edge_ends_at(v):
                if e.infinite and side == "tail":
                    continue
                sign = 1.0 if side == "head" else -1.0
                row += sign * end_value_row(e, side)
            rows.append(row)
    else:
        for v in curve.sorted_vertices():
            ends = [(e, s) for e, s in curve.edge_ends_at(v) if not (e.infinite and s == "tail")]
            if len(ends) < 2:
                continue
            reference = end_value_row(*ends[0])
            for e, side in ends[1:]:
                rows.append(end_value_row(e, side) - reference)

    A = np.asarray(rows) if rows else np.zeros((0, n))

    forms = []
    for _ in range(count):
        a = rng.uniform(-1.0, 1.0, size=n)
        if A.shape[0]:
            correction, *_ = np.linalg.lstsq(A, A @ a, rcond=None)
            a = a - correction
        coeffs = {}
        for e in finite:
            poly = [a[index[(e.id, "poly", k_power)]] for k_power in range(degree + 1)]
            coeffs[e.id] = EdgeFunction.polynomial(poly, domain=e.chart)
        for e in infinite:
            b = window_bound(e)
            window = _smoothstep_window(b, e.chart)
            linear = EdgeFunction.polynomial(
                [a[index[(e.id, "win", 0)]], a[index[(e.id, "win", 1)]]], domain=e.chart
            )
            fn = linear * window
            if bd.as_tuple() == (0, 0):
                fn = fn + EdgeFunction.constant(a[index[(e.id, "const", 0)]], e.chart)
            fn.tail_bound = b
            coeffs[e.id] = fn
        forms.append(Superform(bd, coeffs))
    return forms


def _default_tol(curve: TropicalCurve) -> float:
    return 1e-7 if curve.infinite_edges() else 1e-8


def check_stokes(curve: TropicalCurve, forms: list[Superform], g: KahlerForm,
                 rule: QuadratureRule = DEFAULT_RULE, tol: float | None = None,
                 seed: int | None = None) -> CheckReport:
    """Vanishing of the total d'' integral, plus the bilinear form of it.

    Rejects non-regular inputs; partners for the bilinear identity are a
    seeded regular (0,0) family of matching size.
    """
    tol = _default_tol(curve) if tol is None else tol
    report = CheckReport(seed=seed)
    start = time.perf_counter()
    worst = 0.0
    for form in forms:
        if form.bidegree.as_tuple() != (1, 0):
            raise ValueError("check_stokes expects (1,0) forms")
        if not is_regular(form, curve).passed:
            raise ValueError("non-regular input form rejected")
        worst = max(worst, abs(integrate(curve, d_second(form), rule)))
    report.add(
        "stokes-closed",
        "the integral of d'' of a regular (1,0) form vanishes",
        worst,
        tol,
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    partners = regular_test_forms(curve, (0, 0), len(forms), 7919 if seed is None else seed + 7919)
    worst = 0.0
    for phi, psi in zip(forms, partners):
        lhs = integrate(curve, wedge(d_second(phi), psi), rule)
        rhs = integrate(curve, wedge(phi, d_second(psi)), rule)
        worst = max(worst, abs(lhs - rhs))
    report.add(
        "stokes-bilinear",
        "d'' moves across the wedge of (1,0) and (0,0) forms with sign +1",
        worst,
        tol,
        time.perf_counter() - start,
    )
    return report


def check_integration_by_parts(curve: TropicalCurve, psi: Superform, phi: Superform,
                               g: KahlerForm, rule: QuadratureRule = DEFAULT_RULE,
                               tol: float | None = None) -> CheckReport:
    """| int d''psi ^ phi + int psi ^ d''phi | for one weakly differentiable pair."""
    tol = _default_tol(curve) if tol is None else tol
    report = CheckReport()
    start = time.perf_counter()
    lhs = integrate(curve, wedge(d_second(psi), phi), rule)
    rhs = integrate(curve, wedge(psi, d_second(phi)), rule)
    report.add(
        "integration-by-parts",
        "pairing of d'' against a weakly differentiable partner is antisymmetric",
        abs(lhs + rhs),
        tol,
        time.perf_counter() - start,
    )
    return report


def energy_test_pair(curve: TropicalCurve, seed: int) -> tuple[Superform, Superform]:
    """A weakly differentiable (0,0)/(1,0) pair, decaying on infinite edges.

    Infinite edges carry multiples of E(x) = exp(2x)/(1+exp(2x)), which
    decays like the Fubini-Study weight, so the pair exercises the tail
    estimates without being regular at infinity.  Vertex values are
    matched for continuity; the (1,0) end values are projected onto the
    Kirchhoff constraints.
    """
    rng = np.random.default_rng(seed)
    decay = "exp(2*x)/(1+exp(2*x))"

    vertex_value = {v: rng.uniform(-1.0, 1.0) for v in curve.sorted_vertices()}
    psi_coeffs = {}
    for e in curve.sorted_edges():
        if e.infinite:
            amp = rng.uniform(-1.0, 1.0)
            shift = vertex_value[e.head] - amp * 0.5
            fn = EdgeFunction.from_expression(decay, domain=e.chart).scale(amp)
            psi_coeffs[e.id] = fn + EdgeFunction.constant(shift, e.chart)
        else:
            head, tail = vertex_value[e.head], vertex_value[e.tail]
            l = e.length
            r0, r1 = rng.uniform(-1.0, 1.0, size=2)
            # linear interpolation of the vertex values plus a bubble
            # x(x+l)(r0 + r1 x) vanishing at both ends
            base = EdgeFunction.polynomial([head, (head - tail) / l], domain=e.chart)
            shape = EdgeFunction.polynomial([0.0, l, 1.0], domain=e.chart)
            psi_coeffs[e.id] = base + shape * EdgeFunction.polynomial([r0, r1], domain=e.chart)
    psi = Superform(Bidegree(0, 0), psi_coeffs)

    phi = regular_test_forms(curve, (1, 0), 1, seed + 31)[0]
    if curve.infinite_edges():
        # swap the windowed tails for decaying ones, keeping end values
        coeffs = dict(phi.coefficients)
        for e in curve.infinite_edges():
            end = float(coeffs[e.id](0.0))
            coeffs[e.id] = EdgeFunction.from_expression(decay, domain=e.chart).scale(2.0 * end)
        phi = Superform(Bidegree(1, 0), coeffs)
    return psi, phi


def _kernel_dimension(curve, g, h, trunc_eps, bidegree, gap_ratio_min, rule):
    mesh = build_mesh(curve, g, h, trunc_eps, rule)
    system = assemble(mesh, curve, g, bidegree)
    return kernel(system, gap_ratio_min), system


def _principal_angle(system, spectral, exact_forms) -> float:
    """Largest principal angle between the discrete kernel and the exact span."""
    if not exact_forms:
        return 0.0 if spectral.kernel_dimension == 0 else math.pi / 2
    n = system.dof_map.n_dofs
    X = np.zeros((n, len(exact_forms)))
    for j, form in enumerate(exact_forms):
        for eid, coords in system.mesh.nodes.items():
            dofs = system.dof_map.edge_dofs[eid]
            values = np.asarray(form.coefficients[eid](coords), dtype=float)
            kept = dofs >= 0
            X[dofs[kept], j] = values[kept]
    U = spectral.vectors
    if U.shape[1] != X.shape[1]:
        return math.pi / 2
    M = system.mass
    gram = X.T @ (M @ X)
    X = X @ np.linalg.inv(np.linalg.cholesky(gram).T)
    cosines = scipy.linalg.svdvals(X.T @ (M @ U))
    return float(np.arccos(np.clip(cosines.min() if cosines.size else 1.0, -1.0, 1.0)))


def check_hodge_theorem(curve: TropicalCurve, g: KahlerForm, h_list=(1 / 16, 1 / 32),
                        rule: QuadratureRule = DEFAULT_RULE, trunc_eps: float = 1e-4,
                        gap_ratio_min: float = 1000.0) -> CheckReport:
    """Cross-checks every computation of the harmonic dimensions.

    genus = topological betti_1 = exact (1,0) nullspace dimension =
    Cech H^0 of the closed-(1,0) sheaf = discrete (1,0) kernel at each
    mesh size; the (0,0) and (1,1) dimensions equal 1; the Hodge star
    pairs dimensions; the discrete kernels span the exact bases.
    """
    report = CheckReport()
    start = time.perf_counter()
    n_genus = genus(curve)
    basis10 = harmonic_basis(curve, g, (1, 0))
    cech_omega = cech_cohomology(curve, "omega1")
    cech_const = cech_cohomology(curve, "constants")
    values = [n_genus, betti(curve, 1), basis10.dimension, cech_omega[0], cech_const[1]]
    angle10 = 0.0
    angle00 = 0.0
    ambiguous = False
    basis00 = harmonic_basis(curve, g, (0, 0))
    basis11 = harmonic_basis(curve, g, (1, 1))
    scalar_values = [basis00.dimension, basis11.dimension, cech_omega[1], cech_const[0]]
    for h in h_list:
        try:
            spectral, system = _kernel_dimension(curve, g, h, trunc_eps, (1, 0), gap_ratio_min, rule)
            values.append(spectral.kernel_dimension)
            angle10 = max(angle10, _principal_angle(system, spectral, list(basis10.forms)))
            spectral0, system0 = _kernel_dimension(curve, g, h, trunc_eps, (0, 0), gap_ratio_min, rule)
            scalar_values.append(spectral0.kernel_dimension)
            angle00 = max(angle00, _principal_angle(system0, spectral0, list(basis00.forms)))
        except AmbiguousKernelError:
            ambiguous = True
    elapsed = time.perf_counter() - start

    spread = float(max(values) - min(values))
    report.add(
        "hodge-dimension-agreement",
        "five computations of the harmonic (1,0) dimension coincide with the genus",
        spread,
        0.0,
        elapsed,
        status="ambiguous" if ambiguous else None,
    )
    report.add(
        "hodge-scalar-dimensions",
        "the (0,0) and (1,1) harmonic spaces are one-dimensional",
        float(max(abs(v - 1) for v in scalar_values)),
        0.0,
        0.0,
        status="ambiguous" if ambiguous else None,
    )
    duality = max(
        abs(harmonic_basis(curve, g, (0, 1)).dimension - basis10.dimension),
        abs(basis11.dimension - basis00.dimension),
    )
    report.add(
        "hodge-star-duality",
        "the Hodge star pairs the harmonic dimensions (p,q) <-> (1-p,1-q)",
        float(duality),
        0.0,
        0.0,
    )
    report.add(
        "hodge-kernel-span",
        "discrete kernels reproduce the exact harmonic spans",
        max(angle10, angle00),
        1e-6,
        0.0,
        status="ambiguous" if ambiguous else None,
    )
    return report


def _sample_grid(e) -> np.ndarray:
    if e.infinite:
        return -np.concatenate([np.linspace(0.0, 4.0, 17), np.geomspace(4.0, 30.0, 8)])
    return np.linspace(-e.length, 0.0, 17)


def _sup_difference(curve, form_a, form_b) -> float:
    worst = 0.0
    for e in curve.sorted_edges():
        xs = _sample_grid(e)
        va = np.asarray(form_a.coefficients[e.id](xs), dtype=float)
        vb = np.asarray(form_b.coefficients[e.id](xs), dtype=float)
        worst = max(worst, float(np.max(np.abs(va - vb))))
    return worst


def _star_family(curve: TropicalCurve, bidegree) -> list[Superform]:
    """Smooth forms with exact derivative chains for the star identities."""
    decay = "exp(2*x)/(1+exp(2*x))"
    coeff_sets = [
        {"finite": "1", "infinite": decay},
        {"finite": "x^2-0.5*x", "infinite": f"(1+x)*({decay})^2"},
        {"finite": "exp(x)*(1+x)", "infinite": f"x*exp(2*x)/(1+exp(2*x))^2"},
    ]
    forms = []
    for spec in coeff_sets:
        coeffs = {}
        for e in curve.sorted_edges():
            source = spec["infinite"] if e.infinite else spec["finite"]
            coeffs[e.id] = EdgeFunction.from_expression(source, domain=e.chart)
        forms.append(Superform(Bidegree(*bidegree), coeffs))
    return forms


def check_star_identities(curve: TropicalCurve, g: KahlerForm,
                          rule: QuadratureRule = DEFAULT_RULE, tol: float = 1e-7) -> CheckReport:
    """Star involution sign, star isometry, star/Laplacian commutation."""
    report = CheckReport()

    start = time.perf_counter()
    worst = 0.0
    for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
        sign = (-1.0) ** (p + q)
        for form in _star_family(curve, (p, q)):
            twice = hodge_star(hodge_star(form, g), g)
            reference = form.map_coefficients(lambda fn: fn.scale(sign)) if sign < 0 else form
            worst = max(worst, _sup_difference(curve, twice, reference))
    report.add(
        "star-involution",
        "applying the star twice is (-1)^(p+q) times the identity",
        worst,
        0.0,
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    worst = 0.0
    for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
        family = _star_family(curve, (p, q))
        for i in range(len(family)):
            for j in range(i, len(family)):
                direct = inner_product(family[i], family[j], g, rule)
                starred = inner_product(hodge_star(family[i], g), hodge_star(family[j], g), g, rule)
                worst = max(worst, abs(direct - starred))
    report.add(
        "star-isometry",
        "the star preserves the scalar product",
        worst,
        tol,
        time.perf_counter() - start,
    )

    start = time.perf_counter()
    worst = 0.0
    for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for form in _star_family(curve, (p, q)):
            left = laplacian(hodge_star(form, g), g)
            right = hodge_star(laplacian(form, g), g)
            worst = max(worst, _sup_difference(curve, left, right))
    report.add(
        "star-laplacian-commutation",
        "the star commutes with the Laplace-Beltrami operator",
        worst,
        tol,
        time.perf_counter() - start,
    )

    report.notes.append(_laplacian_formula_note(curve, g))
    return report


def _laplacian_formula_note(curve: TropicalCurve, g: KahlerForm) -> str:
    """Record how far the doubled-g'' coordinate expansion of the (1,1)
    Laplacian sits from the operator composition -(f/g)'', which is what
    this package computes.  The discrepancy is reported, never absorbed."""
    coeffs = {
        e.id: EdgeFunction.from_expression("exp(2*x)/(1+exp(2*x))", domain=e.chart)
        for e in curve.sorted_edges()
    }
    form = Superform(Bidegree(1, 1), coeffs)
    composed = laplacian(form, g)
    worst = 0.0
    for e in curve.sorted_edges():
        w = g.weights[e.id]
        xs = _sample_grid(e)
        gpp = np.asarray(w.derivative().derivative()(xs), dtype=float)
        gv = np.asarray(w(xs), dtype=float)
        fv = np.asarray(coeffs[e.id](xs), dtype=float)
        # the alternative expansion adds one extra g'' f / g^2 term
        worst = max(worst, float(np.max(np.abs(gpp * fv / gv**2))))
    return (
        "the (1,1) Laplacian follows the operator composition -(f/g)''; an alternative "
        f"coordinate expansion with a doubled g''f/g^2 term would differ by up to {worst:.6e} "
        "on the sampled family and is not used"
    )


def check_theta_correspondence(rule: QuadratureRule = DEFAULT_RULE, tol: float = 1e-6) -> CheckReport:
    """Tropical integrals match the two-dimensional annulus integrals."""
    report = CheckReport()
    cases = [
        ("theta-constant", EdgeFunction.from_expression("1", domain=(-math.inf, math.inf)), (0.0, 1.0)),
        ("theta-cubic", EdgeFunction.from_expression("x^2", domain=(-math.inf, math.inf)), (0.0, 1.0)),
        (
            "theta-fubini-study",
            EdgeFunction.from_expression(theta_module.FUBINI_STUDY_SOURCE, domain=(-math.inf, math.inf)),
            (-math.inf, math.inf),
        ),
    ]
    for check_id, fn, interval in cases:
        start = time.perf_counter()
        result = theta_module.compare_tropical_complex(fn, interval, rule, tol)
        report.add(
            check_id,
            "a tropical interval integral equals the corresponding annulus integral",
            result["residual"],
            tol,
            time.perf_counter() - start,
        )
    return report


def run_verification(curve: TropicalCurve, g: KahlerForm, rule: QuadratureRule = DEFAULT_RULE,
                     seed: int = 0, h_list=(1 / 16, 1 / 32), trunc_eps: float = 1e-4,
                     form_count: int = 20, workers: int = 1) -> CheckReport:
    """All verification suites on one curve.

    The suites are independent, so up to ``workers`` of them may run
    concurrently; the report is assembled in a fixed order either way.
    """

    def stokes_suite() -> CheckReport:
        forms = regular_test_forms(curve, (1, 0), form_count, seed)
        return check_stokes(curve, forms, g, rule, seed=seed)

    def parts_suite() -> CheckReport:
        worst = 0.0
        for k in range(form_count):
            psi, phi = energy_test_pair(curve, seed + 1000 + k)
            sub = check_integration_by_parts(curve, psi, phi, g, rule)
            worst = max(worst, sub.checks[0].residual)
        out = CheckReport()
        out.add(
            "integration-by-parts",
            "pairing of d'' against a weakly differentiable partner is antisymmetric",
            worst,
            _default_tol(curve),
            0.0,
        )
        return out

    suites = [
        stokes_suite,
        parts_suite,
        lambda: check_hodge_theorem(curve, g, h_list, rule, trunc_eps),
        lambda: check_star_identities(curve, g, rule),
        lambda: check_theta_correspondence(rule),
    ]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda suite: suite(), suites))
    else:
        results = [suite() for suite in suites]

    report = CheckReport(seed=seed)
    for sub in results:
        report.extend(sub)
    return report
