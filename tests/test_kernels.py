"""Backend parity and kernel correctness against the reflection module."""

import math

import numpy as np
import pytest

from casimag import MatsubaraContext, backend, matsubara_xi, nickel, refl_pair
from casimag import reflection
from casimag.constants import C_LIGHT

CTX = MatsubaraContext(temperature=300.0)
A = 0.5e-6

try:
    from casimag import _kernel as _kernel_cy
except ImportError:
    _kernel_cy = None

VARIANT_OF = {"drude": 0, "plasma": 1, "nonlocal": 2}


def kernel_args(model, l):
    mu = model.mu0 if l == 0 else 1.0
    return (VARIANT_OF[model.variant], model.omega_p, model.gamma, mu,
            model.v_t, model.v_l, 1.0, 0.0, 0.0)


def reference_summand(y, model, l):
    """Brute-force evaluation through the reflection module."""
    xi = matsubara_xi(l, CTX)
    out = np.empty_like(y)
    for i, yi in enumerate(y):
        q = yi / (2.0 * A)
        k = math.sqrt(max(q * q - (xi / C_LIGHT) ** 2, 0.0))
        r = refl_pair(l, k, model, CTX)
        damp = math.exp(-yi)
        x_tm = r.r_tm**2 * damp
        x_te = r.r_te**2 * damp
        out[i] = yi * yi * (x_tm / (1 - x_tm) + x_te / (1 - x_te))
    return out


@pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
@pytest.mark.parametrize("l", [0, 1, 7])
def test_kernel_matches_reflection_module(variant, l):
    model = nickel(variant)
    xi = matsubara_xi(l, CTX)
    y_lo = 2.0 * A * xi / C_LIGHT
    y = np.linspace(y_lo + 0.05, y_lo + 30.0, 101)
    got = backend.lifshitz_summand(y, xi, A, C_LIGHT, *kernel_args(model, l))
    expected = reference_summand(y, model, l)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.skipif(_kernel_cy is None, reason="compiled kernel unavailable")
@pytest.mark.parametrize("variant_code", [0, 1, 2, 3])
@pytest.mark.parametrize("xi", [0.0, 2.4677902551530606e14])
def test_compiled_and_python_backends_agree(variant_code, xi):
    ni = nickel("nonlocal")
    y = np.geomspace(1e-4, 44.0, 300)
    args = (variant_code, ni.omega_p, ni.gamma, 110.0 if xi == 0.0 else 1.0,
            ni.v_t, ni.v_l, 1.0, 0.7, -0.4)
    if variant_code == 2 and xi == 0.0 and ni.gamma == 0.0:
        pytest.skip("static nonlocal needs dissipation")
    a = _kernel_cy.lifshitz_summand(y, xi, A, C_LIGHT, *args)
    b = reflection.lifshitz_summand(y, xi, A, C_LIGHT, *args)
    np.testing.assert_allclose(a, b, rtol=1e-11)  # ulp-level libm differences


def test_fixed_reflection_analytic():
    y = np.array([0.5, 2.0, 10.0])
    got = backend.lifshitz_summand(y, 1e14, A, C_LIGHT, 3, 1.0, 0.0, 1.0,
                                   0.0, 0.0, 1.0, 0.5, -0.25)
    x_tm = 0.25 * np.exp(-y)
    x_te = 0.0625 * np.exp(-y)
    expected = y * y * (x_tm / (1 - x_tm) + x_te / (1 - x_te))
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_vacuum_hook_is_exactly_zero():
    y = np.linspace(0.1, 40.0, 50)
    got = backend.lifshitz_summand(y, 0.0, A, C_LIGHT, 3, 1.0, 0.0, 1.0,
                                   0.0, 0.0, 1.0, 0.0, 0.0)
    assert np.all(got == 0.0)


def test_no_overflow_at_extreme_arguments():
    # the bracket is formed as x/(1-x); exp(+y) is never evaluated
    y = np.array([100.0, 400.0, 700.0])
    got = backend.lifshitz_summand(y, 1e15, A, C_LIGHT, 3, 1.0, 0.0, 1.0,
                                   0.0, 0.0, 1.0, 1.0, -1.0)
    assert np.all(np.isfinite(got))
    assert np.all(got >= 0.0)


def test_interband_core_shifts_permittivity():
    # eps_core enters as the replacement of the leading unity
    ni = nickel("nonlocal")
    y = np.array([1.0, 3.0, 8.0])
    xi = matsubara_xi(1, CTX)
    base = backend.lifshitz_summand(y, xi, A, C_LIGHT, 2, ni.omega_p, ni.gamma,
                                    1.0, ni.v_t, ni.v_l, 1.0, 0.0, 0.0)
    shifted = backend.lifshitz_summand(y, xi, A, C_LIGHT, 2, ni.omega_p,
                                       ni.gamma, 1.0, ni.v_t, ni.v_l, 50.0,
                                       0.0, 0.0)
    assert np.all(shifted > base)  # larger eps reflects more
