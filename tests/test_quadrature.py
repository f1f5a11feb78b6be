import math

import numpy as np
import pytest

from trophodge.quadrature import (
    DivergenceError,
    gauss_legendre,
    integrate_finite,
    integrate_interval,
    integrate_lower_tail,
    integrate_upper_tail,
)


def test_gauss_legendre_exactness():
    nodes, weights = gauss_legendre(16)
    # degree-31 polynomial integrated exactly on [-1, 1]
    assert np.dot(weights, nodes**30) == pytest.approx(2.0 / 31.0, rel=1e-14)


def test_finite_polynomial():
    assert integrate_finite(lambda x: x**3 - x, -2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_finite_oscillatory():
    value = integrate_finite(lambda x: np.sin(7 * np.asarray(x)), 0.0, math.pi)
    assert value == pytest.approx(2.0 / 7.0, abs=1e-11)


def test_lower_tail_fubini_study_mass():
    fs = lambda x: 2 * np.exp(2 * np.asarray(x)) / (1 + np.exp(2 * np.asarray(x))) ** 2
    # antiderivative -1/(1+e^(2x)): mass over (-inf, 0] is 1/2
    assert integrate_lower_tail(fs, 0.0) == pytest.approx(0.5, abs=1e-10)
    # tail mass below -L is 1/(1+e^(2L))
    assert integrate_lower_tail(fs, -8.0) == pytest.approx(1.0 / (1.0 + math.exp(16.0)), rel=1e-8)


def test_lower_tail_second_moment_oracle():
    fs = lambda x: 2 * np.exp(2 * np.asarray(x)) / (1 + np.exp(2 * np.asarray(x))) ** 2
    moment = integrate_lower_tail(lambda x: np.asarray(x) ** 2 * fs(x), 0.0)
    assert moment == pytest.approx(math.pi**2 / 24.0, abs=1e-9)


def test_upper_tail_exponential():
    assert integrate_upper_tail(lambda x: np.exp(-np.asarray(x)), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-10
    )


def test_interval_doubly_infinite():
    gaussish = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    assert integrate_interval(gaussish, -math.inf, math.inf) == pytest.approx(
        math.sqrt(math.pi), rel=1e-9
    )


def test_divergence_of_constant_on_tail():
    with pytest.raises(DivergenceError):
        integrate_lower_tail(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.0)


def test_divergence_of_nonintegrable_pole():
    with pytest.raises(DivergenceError):
        integrate_finite(lambda x: 1.0 / np.abs(np.asarray(x, dtype=float)), -1.0, 0.0)


def test_zero_width_interval():
    assert integrate_finite(lambda x: np.asarray(x) ** 2, 1.0, 1.0) == 0.0

