"""Comparison of tropical integrals with integrals over annuli in C*.

The correspondence carries a coefficient f on the real line to the
U(1)-invariant (1,1)-form (i/4pi) f(log|z|) dz^dzbar / |z|^2 on C*,
whose integral over the annulus e^a < |z| < e^b equals the tropical
integral of f over (a, b).  annulus_integral evaluates the genuine
two-dimensional polar integral (radial panels times an angular
trapezoid; the integrand is evaluated through z = r e^{i theta}), so
agreement with the one-dimensional tropical integral is a real
cross-check and any normalization error would surface as a residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import TropicalCurve
from .metric import KahlerForm
from .quadrature import TAIL_LEVELS, TOL_INFINITE, _integrate, _panel_grid, integrate_interval
from .superform import Superform

__all__ = [
    "AnnulusDomain",
    "annulus_integral",
    "tropical_interval_integral",
    "compare_tropical_complex",
    "fubini_study_form",
]

ANGULAR_NODES = 64


@dataclass(frozen=True)
class AnnulusDomain:
    """Annulus e^a < |z| < e^b; a = -inf gives the punctured disk."""

    inner_log_radius: float
    outer_log_radius: float

    def __post_init__(self):
        if not self.inner_log_radius < self.outer_log_radius:
            raise ValueError("need inner log-radius < outer log-radius")


def _radial_bounds(domain: AnnulusDomain, depth: int, splits: int) -> np.ndarray:
    """Radial panel boundaries, geometrically spaced in r.

    An infinite inner radius gets a closing panel [0, e^-depth]; an
    infinite outer radius is cut at e^depth, and deepening the cut is
    part of the refinement step.
    """
    lo_log = domain.inner_log_radius
    hi_log = domain.outer_log_radius
    closing = math.isinf(lo_log)
    if closing:
        lo_log = -float(depth)
    if math.isinf(hi_log):
        hi_log = float(depth)
    n = max(4, int(math.ceil((hi_log - lo_log) * splits)))
    bounds = np.exp(np.linspace(lo_log, hi_log, n + 1))
    if closing:
        bounds = np.concatenate([[0.0], bounds])
    return bounds


def annulus_integral(form, domain: AnnulusDomain) -> float:
    """Two-dimensional polar integral of the image of f d'x^d''x.

    ``form`` is the coefficient f: an EdgeFunction or a callable.  The
    integrand f(log|z|) / (2 pi |z|) is sampled at genuine complex points
    z = r e^{i theta}; the angular trapezoid has a fixed node count so
    that an implementation error breaking rotational invariance would
    show up as a residual, and the radial refinement doubles until two
    levels agree.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, ANGULAR_NODES, endpoint=False)
    phases = np.exp(1j * theta)
    angular_weight = 2.0 * math.pi / ANGULAR_NODES

    def radial_profile(radii):
        z = radii[:, None] * phases[None, :]
        magnitudes = np.abs(z)
        values = np.asarray(form(np.log(magnitudes.ravel())), dtype=float).reshape(magnitudes.shape)
        return (values / (2.0 * math.pi * magnitudes)).sum(axis=1) * angular_weight

    return _integrate(radial_profile, lambda k: _panel_grid(_radial_bounds(domain, TAIL_LEVELS + 2 * k, 2 + k)),
                      TOL_INFINITE)


def tropical_interval_integral(form, a: float, b: float) -> float:
    """One-dimensional tropical integral of the coefficient over (a, b)."""
    return integrate_interval(form, a, b)


def compare_tropical_complex(form, interval: tuple[float, float], tol: float = 1e-6) -> dict:
    """Residual between the tropical and the annulus value of one integral."""
    a, b = interval
    tropical = tropical_interval_integral(form, a, b)
    annulus = annulus_integral(form, AnnulusDomain(a, b))
    residual = abs(tropical - annulus)
    return {
        "tropical": tropical,
        "annulus": annulus,
        "residual": residual,
        "tol": tol,
        "passed": residual <= tol,
    }


def fubini_study_form(curve: TropicalCurve) -> Superform:
    """The Fubini-Study (1,1) form on a normalized projective line.

    The weight 2 e^{2x} / (1 + e^{2x})^2 is symmetric under x -> -x, so
    the chart transformation onto the second infinite edge reproduces
    the same source.  The form integrates to total mass 1 and is a
    Kahler weight, yet it is not regular: it has no tail-support bound.
    """
    return KahlerForm.fubini_study(curve).as_superform()
