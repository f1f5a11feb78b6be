"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from trophodge import curves
from trophodge.checks import (
    _TAIL_WINDOW_BOUND,
    _smoothstep_window,
    band_window,
    check_integration_by_parts,
    check_star_identities,
    check_stokes,
    energy_test_pair,
    regular_test_forms,
)
from trophodge.cli import run as cli_run
from trophodge.curve import genus, serialize
from trophodge.discrete import TailNeighborhood, assemble, build_mesh, kernel, solve_dbar_local, spectrum
from trophodge.harmonic import betti, cech_cohomology, harmonic_basis
from trophodge.metric import KahlerForm, validate_kahler
from trophodge.quadrature import NODES_PER_PANEL, gauss_legendre, integrate_finite, integrate_lower_tail
from trophodge.superform import Bidegree, EdgeFunction, Superform, is_regular
from trophodge.theta import compare_tropical_complex, fubini_study_form

LN2 = math.log(2.0)

SUITE = [
    ("projective-line", curves.projective_line, 0),
    ("star-3", lambda: curves.star(3), 0),
    ("triangle", curves.triangle, 1),
    ("theta-graph", curves.theta_graph, 2),
    ("k4", curves.k4, 3),
    ("triangle-with-legs", curves.triangle_with_legs, 1),
]


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_dimension_theorem():
    rows = []
    ok = True
    for name, factory, expected in SUITE:
        start = time.perf_counter()
        curve = factory()
        g = KahlerForm.from_spec(curve, None)
        computations = {
            "genus": genus(curve),
            "nullspace": harmonic_basis(curve, g, (1, 0)).dimension,
            "cech": cech_cohomology(curve, "omega1")[0],
            "betti": betti(curve, 1),
        }
        mesh = build_mesh(curve, g, 1 / 64, 1e-4)
        computations["discrete"] = kernel(assemble(mesh, curve, g, (1, 0))).kernel_dimension
        scalars = {
            "h00": harmonic_basis(curve, g, (0, 0)).dimension,
            "h11": harmonic_basis(curve, g, (1, 1)).dimension,
            "discrete00": kernel(assemble(mesh, curve, g, (0, 0))).kernel_dimension,
        }
        elapsed = time.perf_counter() - start
        curve_ok = (
            all(v == expected for v in computations.values())
            and all(v == 1 for v in scalars.values())
            and elapsed <= 10.0
        )
        ok = ok and curve_ok
        rows.append(f"{name}: n={computations} scalars={scalars} {elapsed:.2f}s")
    verdict(1, ok, "five computations of n agree on the whole suite; " + "; ".join(rows))


def test_criterion_2_spectral_oracle():
    tri = curves.triangle()
    g = KahlerForm.constant(tri, 1.0)
    target = (2 * math.pi / 3) ** 2
    lams = {}
    for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
        mesh = build_mesh(tri, g, h, 1e-4)
        lams[h] = spectrum(assemble(mesh, tri, g, (0, 0)), 2).eigenvalues[1]
    rel_error = abs(lams[1 / 128] - target) / target
    orders = [
        math.log2(abs(lams[1 / 16] - lams[1 / 32]) / abs(lams[1 / 32] - lams[1 / 64])),
        math.log2(abs(lams[1 / 32] - lams[1 / 64]) / abs(lams[1 / 64] - lams[1 / 128])),
    ]
    ok = rel_error <= 0.01 and all(abs(o - 2.0) <= 0.4 for o in orders)
    verdict(
        2,
        ok,
        f"smallest nonzero eigenvalue {lams[1/128]:.6f} vs (2pi/3)^2={target:.6f} "
        f"(rel err {rel_error:.2e}), observed orders {orders[0]:.3f}, {orders[1]:.3f}",
    )


def test_criterion_3_stokes_and_integration_by_parts():
    worst_lines = []
    ok = True
    for name, factory, _ in SUITE:
        curve = factory()
        tol = 1e-7 if curve.infinite_edges() else 1e-8
        forms = regular_test_forms(curve, (1, 0), 20, seed=0)
        stokes = check_stokes(curve, forms, seed=0)
        worst_ibp = 0.0
        for k in range(20):
            psi, phi = energy_test_pair(curve, 1000 + k)
            report = check_integration_by_parts(curve, [(psi, phi)])
            worst_ibp = max(worst_ibp, report.checks[0].residual)
        curve_ok = stokes.passed and worst_ibp <= tol
        ok = ok and curve_ok
        worst_stokes = max(c.residual for c in stokes.checks)
        worst_lines.append(f"{name}: stokes {worst_stokes:.2e}, ibp {worst_ibp:.2e} (tol {tol:.0e})")
    verdict(3, ok, "; ".join(worst_lines))


def test_criterion_4_hodge_star_identities():
    lines = []
    ok = True
    for name, factory in (("triangle", curves.triangle), ("triangle-with-legs", curves.triangle_with_legs)):
        curve = factory()
        g = KahlerForm.from_spec(curve, None)
        report = check_star_identities(curve, g)
        by_id = {c.check_id: c for c in report.checks}
        curve_ok = (
            by_id["star-involution"].residual == 0.0
            and by_id["star-isometry"].residual <= 1e-7
            and by_id["star-laplacian-commutation"].residual <= 1e-7
        )
        ok = ok and curve_ok
        lines.append(
            f"{name}: involution {by_id['star-involution'].residual:.1e}, "
            f"isometry {by_id['star-isometry'].residual:.2e}, "
            f"commutation {by_id['star-laplacian-commutation'].residual:.2e}"
        )
    verdict(4, ok, "; ".join(lines))


def _tail_quadrature_grid() -> np.ndarray:
    """The actual integration nodes of the tail substitution, in x."""
    xi, _ = gauss_legendre(NODES_PER_PANEL)
    bounds = [2.0**-j for j in range(14, -1, -1)]
    nodes = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.extend(mid + half * xi)
    return np.log(np.asarray(nodes))


def test_criterion_5_local_dbar_inverse():
    tp1 = curves.projective_line()
    g = KahlerForm.fubini_study(tp1)
    dom = (-math.inf, 0.0)
    grid = _tail_quadrature_grid()
    omega_fn = EdgeFunction.polynomial([0.6, -0.3], domain=dom) * _smoothstep_window(_TAIL_WINDOW_BOUND, dom)

    # pointwise estimates for both bidegrees on the quadrature grid
    psi0 = solve_dbar_local(Superform(Bidegree(0, 1), {"left": omega_fn}), g, TailNeighborhood("left"))
    norm0 = math.sqrt(integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2, 0.0))
    ratio0 = np.max(np.abs(np.asarray(psi0.coefficients["left"](grid))) / (np.sqrt(-grid) * norm0))

    psi1 = solve_dbar_local(Superform(Bidegree(1, 1), {"left": omega_fn}), g, TailNeighborhood("left"))
    gfn = g.weights["left"]
    norm1 = math.sqrt(integrate_lower_tail(lambda x: np.asarray(omega_fn(x)) ** 2 / np.asarray(gfn(x)), 0.0))
    bound1 = np.array([math.sqrt(integrate_lower_tail(gfn, float(x))) for x in grid]) * norm1
    ratio1 = np.max(np.abs(np.asarray(psi1.coefficients["left"](grid))) / bound1)

    # weak identity against 20 seeded compactly supported test functions
    rng = np.random.default_rng(17)
    band = band_window((-8 * LN2, -6 * LN2), (-4 * LN2, -2 * LN2), dom)
    worst_weak = 0.0
    for _ in range(20):
        d0, d1 = rng.uniform(-1, 1, 2)
        phi_fn = EdgeFunction.polynomial([d0, d1], domain=dom) * band
        dphi = phi_fn.derivative()
        for p, psi in ((0, psi0), (1, psi1)):
            sign = -1.0 if p == 0 else 1.0
            lhs = integrate_lower_tail(lambda x: sign * np.asarray(omega_fn(x)) * np.asarray(phi_fn(x)), 0.0)
            rhs = integrate_lower_tail(
                lambda x: np.asarray(psi.coefficients["left"](x)) * np.asarray(dphi(x)), 0.0
            )
            worst_weak = max(worst_weak, abs(lhs - rhs))

    # uniqueness up to an additive constant for p = 0
    sample = grid[-40:]
    ours = np.asarray(psi0.coefficients["left"](sample))
    alternative = np.array([-integrate_finite(omega_fn, float(x), 0.0) + 5.0 for x in sample])
    unique_residual = np.max(np.abs((ours - ours.mean()) - (alternative - alternative.mean())))

    ok = ratio0 <= 1 + 1e-8 and ratio1 <= 1 + 1e-8 and worst_weak <= 1e-8 and unique_residual <= 1e-8
    verdict(
        5,
        ok,
        f"estimate ratios {ratio0:.9f} / {ratio1:.9f} (<= 1+1e-8), weak identity {worst_weak:.2e}, "
        f"p=0 uniqueness {unique_residual:.2e}",
    )


def test_criterion_6_theta_correspondence():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(8):
        c = [float(v) for v in rng.uniform(-1, 1, 3)]
        poly = f"({c[0]!r}+{c[1]!r}*x+{c[2]!r}*x^2)"
        worst = max(
            worst,
            compare_tropical_complex(
                EdgeFunction.from_expression(poly, domain=(-math.inf, math.inf)), (-1.0, 1.5)
            )["residual"],
            compare_tropical_complex(
                EdgeFunction.from_expression(f"{poly}*exp(2*x)/(1+exp(2*x))^2", domain=(-math.inf, math.inf)),
                (-math.inf, 0.5),
            )["residual"],
        )
    tp1 = curves.projective_line()
    fs = fubini_study_form(tp1)
    from trophodge.metric import integrate

    mass = integrate(tp1, fs)
    g = KahlerForm(tp1, dict(fs.coefficients))
    kahler_ok = validate_kahler(tp1, g).passed
    regular = is_regular(fs, tp1).passed
    ok = worst <= 1e-6 and abs(mass - 1.0) <= 1e-8 and kahler_ok and not regular
    verdict(
        6,
        ok,
        f"tropical-vs-annulus worst residual {worst:.2e}, total mass {mass!r}, "
        f"valid Kahler weight: {kahler_ok}, regular: {regular}",
    )


def test_criterion_7_verify_determinism(tmp_path):
    curve_path = tmp_path / "triangle.json"
    curve_path.write_text(serialize(curves.triangle()))
    outputs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"report-{tag}.json"
        code = cli_run(["verify", str(curve_path), "--seed", "0", "--out", str(out_path)])
        assert code == 0
        outputs.append(out_path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report = json.loads(outputs[0])
    verdict(
        7,
        ok and all(c["status"] == "pass" for c in report["checks"]),
        f"two verify runs produced byte-identical passing reports ({len(outputs[0])} bytes)",
    )
