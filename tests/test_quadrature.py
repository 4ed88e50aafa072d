import math

import numpy as np
import pytest

from casimag.quadrature import QuadratureError, adaptive_quad


def test_polynomial_single_panel():
    res = adaptive_quad(lambda x: x**4, 0.0, 1.0, rel_tol=1e-12)
    assert res.value == pytest.approx(0.2, rel=1e-14)


def test_damped_quadratic_matches_closed_form():
    # int_0^T y^2 e^-y dy = 2 - e^-T (T^2 + 2T + 2)
    t = 45.0
    exact = 2.0 - math.exp(-t) * (t * t + 2 * t + 2)
    res = adaptive_quad(lambda y: y * y * np.exp(-y), 0.0, t, rel_tol=1e-10)
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.error <= 1e-10 * abs(res.value)


def test_shifted_interval():
    lo, hi = 3.0, 48.0
    exact = (math.exp(-lo) * (lo * lo + 2 * lo + 2)
             - math.exp(-hi) * (hi * hi + 2 * hi + 2))
    res = adaptive_quad(lambda y: y * y * np.exp(-y), lo, hi, rel_tol=1e-10)
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_zero_integrand():
    res = adaptive_quad(lambda x: np.zeros_like(x), 0.0, 10.0)
    assert res.value == 0.0
    assert res.error == 0.0


def test_absolute_tolerance_short_circuits():
    res = adaptive_quad(lambda y: 1e-30 * np.exp(-y), 0.0, 45.0,
                        rel_tol=1e-12, abs_tol=1e-20)
    assert res.panels <= 8


def test_panel_budget_exhaustion_raises():
    f = lambda x: np.sin(1.0 / x)
    with pytest.raises(QuadratureError) as err:
        adaptive_quad(f, 1e-6, 1.0, rel_tol=1e-12, max_panels=16)
    assert err.value.achieved_error > 0.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: x, 1.0, 1.0)
