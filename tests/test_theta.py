import math

import numpy as np
import pytest

from test_quadrature import reference_refine
from trophodge import curves, quadrature, theta
from trophodge.metric import KahlerForm, validate_kahler
from trophodge.superform import EdgeFunction, evaluate, is_regular
from trophodge.theta import (
    AnnulusDomain,
    annulus_integral,
    compare_tropical_complex,
    fubini_study_form,
    tropical_interval_integral,
)

DOM = (-math.inf, math.inf)


def fn(source):
    return EdgeFunction.from_expression(source, domain=DOM)


def test_annulus_domain_validation():
    with pytest.raises(ValueError):
        AnnulusDomain(1.0, 1.0)
    AnnulusDomain(-math.inf, 0.0)


def test_constant_over_unit_annulus():
    assert annulus_integral(fn("1"), AnnulusDomain(0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)


def test_fubini_study_over_punctured_disk():
    # the mass of the unit disk in the Fubini-Study metric is 1/2
    value = annulus_integral(fn("2*exp(2*x)/(1+exp(2*x))^2"), AnnulusDomain(-math.inf, 0.0))
    assert value == pytest.approx(0.5, abs=1e-7)


def test_vanishing_width_limit():
    value = annulus_integral(fn("1"), AnnulusDomain(0.0, 1e-9))
    assert abs(value) <= 1e-8


def test_compare_polynomial_on_finite_interval():
    result = compare_tropical_complex(fn("x^2"), (0.0, 1.0))
    assert result["passed"]
    assert result["tropical"] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert result["annulus"] == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_compare_fubini_study_on_whole_line():
    result = compare_tropical_complex(fn("2*exp(2*x)/(1+exp(2*x))^2"), (-math.inf, math.inf))
    assert result["passed"]
    assert result["tropical"] == pytest.approx(1.0, abs=1e-8)
    assert result["annulus"] == pytest.approx(1.0, abs=1e-6)


def test_compare_zero_form():
    result = compare_tropical_complex(fn("0"), (0.0, 2.0))
    assert result["tropical"] == 0.0 and result["annulus"] == 0.0


def test_generated_family_agreement():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(6):
        c = [float(v) for v in rng.uniform(-1, 1, 3)]
        source = f"({c[0]!r}+{c[1]!r}*x+{c[2]!r}*x^2)"
        result = compare_tropical_complex(fn(source), (-1.0, 0.5))
        worst = max(worst, result["residual"])
        decayed = f"{source}*exp(2*x)/(1+exp(2*x))^2"
        result = compare_tropical_complex(fn(decayed), (-math.inf, 1.0))
        worst = max(worst, result["residual"])
    assert worst <= 1e-6


def test_fubini_study_form_on_projective_line():
    tp1 = curves.projective_line()
    form = fubini_study_form(tp1)
    assert evaluate(form, "left", 0.0) == pytest.approx(0.5)
    assert evaluate(form, "right", 0.0) == pytest.approx(0.5)
    assert tropical_interval_integral(form.coefficients["left"], -math.inf, 0.0) == pytest.approx(
        0.5, abs=1e-9
    )


def test_fubini_study_is_kahler_but_not_regular():
    tp1 = curves.projective_line()
    form = fubini_study_form(tp1)
    g = KahlerForm(tp1, dict(form.coefficients))
    assert validate_kahler(tp1, g).passed
    assert not is_regular(form, tp1).passed


def _reference_annulus(form, domain):
    """The annulus integral with one integrand call per radial level."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, theta.ANGULAR_NODES, endpoint=False))
    xi, wi = quadrature.gauss_legendre(quadrature.NODES_PER_PANEL)

    def level_value(k):
        bounds = theta._radial_bounds(domain, quadrature.TAIL_LEVELS + 2 * k, 2 + k)
        half, mid = 0.5 * (bounds[1:] - bounds[:-1]), 0.5 * (bounds[1:] + bounds[:-1])
        magnitudes = np.abs((mid[:, None] + half[:, None] * xi[None, :]).ravel()[:, None] * phases[None, :])
        values = np.asarray(form(np.log(magnitudes.ravel())), dtype=float).reshape(magnitudes.shape)
        profile = (values / (2.0 * math.pi * magnitudes)).sum(axis=1) * (2.0 * math.pi / theta.ANGULAR_NODES)
        return float(np.sum((profile.reshape(len(half), len(xi)) @ wi) * half))

    return reference_refine(level_value, quadrature.TOL_INFINITE)


@pytest.mark.parametrize("source, domain", [
    ("1", (0.0, 1.0)),
    ("x^2", (-1.0, 0.5)),
    ("2*exp(2*x)/(1+exp(2*x))^2", (-math.inf, 0.0)),
    ("2*exp(2*x)/(1+exp(2*x))^2", (-math.inf, math.inf)),
])
def test_annulus_levels_match_the_level_by_level_reference_bitwise(source, domain):
    form, domain = fn(source), AnnulusDomain(*domain)
    fused, per_level = [], []
    value = annulus_integral(lambda x: fused.append(1) or form(x), domain)
    assert value == _reference_annulus(lambda x: per_level.append(1) or form(x), domain)
    assert len(fused) == len(per_level) - 1  # levels 0 and 1 share one call
