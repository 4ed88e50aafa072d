"""Integrand-kernel correctness against the scalar reflection API."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from casimag import FixedReflection, MaterialModel, MatsubaraContext, \
    eps_pair, matsubara_xi, nickel, refl_pair
from casimag import reflection
from casimag.constants import C_LIGHT

CTX = MatsubaraContext(temperature=300.0)
A = 0.5e-6
VARIANTS = ["drude", "plasma", "nonlocal"]


def reference_summand(y, model, l, a=A, ctx=CTX):
    """Brute-force evaluation through the reflection module, node by node.

    ``a`` broadcasts against ``y``.
    """
    xi = matsubara_xi(l, ctx)
    y, a = np.broadcast_arrays(np.asarray(y, dtype=float), a)
    out = np.empty(y.shape)
    for i in np.ndindex(y.shape):
        yi = float(y[i])
        q = yi / (2.0 * float(a[i]))
        k = math.sqrt(max(q * q - (xi / C_LIGHT) ** 2, 0.0))
        r = refl_pair(l, k, model, ctx)
        damp = math.exp(-yi)
        x_tm = r.r_tm**2 * damp
        x_te = r.r_te**2 * damp
        out[i] = yi * yi * (x_tm / (1 - x_tm) + x_te / (1 - x_te))
    return out


def nodes_above_cut(l, a):
    """41 nodes y from just above y_lo = 2 a xi_l / c, broadcast over a."""
    xi = matsubara_xi(l, CTX)
    return 2.0 * a * xi / C_LIGHT + np.linspace(0.05, 30.0, 41)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [0, 1, 7])
def test_kernel_matches_reflection_module(variant, l):
    model = nickel(variant)
    xi = matsubara_xi(l, CTX)
    y_lo = 2.0 * A * xi / C_LIGHT
    y = np.linspace(y_lo + 0.05, y_lo + 30.0, 101)
    got = reflection.lifshitz_summand(y, xi, A, model)
    expected = reference_summand(y, model, l)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [0, 1, 7])
def test_kernel_broadcasts_over_separations(variant, l):
    # the pressure curve passes separations of shape (n, 1, 1) against
    # nodes of shape (n, panels, nodes)
    model = nickel(variant)
    a = np.array([100e-9, 420e-9, 3e-6])[:, None, None]
    y = nodes_above_cut(l, a)
    got = reflection.lifshitz_summand(y, matsubara_xi(l, CTX), a, model)
    assert got.shape == y.shape
    np.testing.assert_allclose(got, reference_summand(y, model, l, a),
                               rtol=1e-12)


@pytest.mark.parametrize("model,l", [
    *((nickel(v), 0) for v in VARIANTS),
    (FixedReflection(0.9, -0.7), 0),
    (FixedReflection(0.9, -0.7), 3),
], ids=[*VARIANTS, "fixed-static", "fixed-l3"])
def test_kernel_broadcasts_nodes_without_the_component_axis(model, l):
    # a static or fixed coefficient that is a float carries no axis of a;
    # nodes shaped (panels, nodes) still give one row per separation, with
    # the bits of nodes given the full shape
    a = np.geomspace(10e-9, 20e-6, 25)[:, None, None]
    y = np.linspace(0.05, 45.0, 63).reshape(3, 21)
    xi = matsubara_xi(l, CTX)
    got = reflection.lifshitz_summand(y, xi, a, model)
    full = reflection.lifshitz_summand(np.tile(y, (25, 1, 1)), xi, a, model)
    assert got.shape == full.shape == (25, 3, 21)
    assert np.array_equal(got, full)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("l", [1, 7])
def test_kernel_with_interband_core(variant, l, ni_table):
    model = nickel(variant, interband=ni_table)
    xi = matsubara_xi(l, CTX)
    assert model.core(xi) > 1.5
    y = nodes_above_cut(l, A)
    got = reflection.lifshitz_summand(y, xi, A, model)
    np.testing.assert_allclose(got, reference_summand(y, model, l),
                               rtol=1e-12)


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("v_over_c", [0.0, 0.03, 0.5])
@pytest.mark.parametrize("temperature", [1.0, 1000.0])
@pytest.mark.parametrize("a", [1e-9, 20e-6])
def test_kernel_matches_reflection_module_at_extreme_arguments(
        a, temperature, v_over_c, with_table, ni_table):
    # the kernel's numerator/denominator form in units of xi/c against
    # refl_pair, at l = 1 and at the first l with y_lo > 45
    table = ni_table if with_table else None
    model = replace(nickel("nonlocal", interband=table),
                    v_t=v_over_c * C_LIGHT, v_l=v_over_c * C_LIGHT)
    ctx = MatsubaraContext(temperature=temperature)
    y_1 = 2.0 * a * matsubara_xi(1, ctx) / C_LIGHT
    for l in (1, math.floor(45.0 / y_1) + 1):
        xi = matsubara_xi(l, ctx)
        y = 2.0 * a * xi / C_LIGHT + np.linspace(0.05, 30.0, 41)
        got = reflection.lifshitz_summand(y, xi, a, model)
        # both numerators cancel to about eps - 1, which is ~1e-6 at
        # 1 nm and y_lo > 45: an ulp of q then moves them by an ulp/(eps - 1)
        chi = model.core(xi) - 1.0 + model.omega_p**2 / (
            xi * (xi + model.gamma))
        rtol = max(1e-13, 10.0 * np.finfo(float).eps / chi)
        np.testing.assert_allclose(got, reference_summand(y, model, l, a, ctx),
                                   rtol=rtol, atol=0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_eps_pair_applies_the_model_core(variant, ni_table):
    # eps_pair reads the same core as the kernel and refl_pair: a tabled
    # model's permittivities carry its table
    m = nickel(variant, interband=ni_table)
    xi = matsubara_xi(1, CTX)
    core = m.core(xi)
    assert core > 1.5
    for k in (0.0, 1e6, 1e9):
        assert eps_pair(xi, k, m) == reflection.free_electron_eps(xi, k, m,
                                                                  core)
    if variant == "nonlocal":  # 742.06 without the core of 120.14
        assert eps_pair(xi, 1e6, m)[0] == pytest.approx(861.1976, rel=1e-6)


@pytest.mark.parametrize("core", [1.0, 7.5])
def test_nonlocal_permittivities_match_their_closed_forms(core):
    # eps_tr = core + W (1 + v_t k/xi), eps_l = core + W/(1 + v_l k/xi),
    # with unequal velocities so that a swap shows
    ni = nickel("nonlocal")
    m = MaterialModel(omega_p=ni.omega_p, gamma=ni.gamma, v_t=ni.v_t,
                      v_l=0.3 * ni.v_l, variant="nonlocal")
    for l in (1, 7, 60):
        xi = matsubara_xi(l, CTX)
        w = m.omega_p**2 / (xi * (xi + m.gamma))
        for k in (0.0, 1e5, 1e7, 1e9):
            eps_tr, eps_l = reflection.free_electron_eps(xi, k, m, core)
            assert eps_tr == pytest.approx(core + w * (1 + m.v_t * k / xi),
                                           rel=1e-14)
            assert eps_l == pytest.approx(core + w / (1 + m.v_l * k / xi),
                                          rel=1e-14)


def _zero_velocity_models():
    # (floats) the local variants; (columns) three components shaped
    # (C, 1, 1) as a pressure loop's component table holds them
    ni = nickel("drude")
    zeros = np.zeros((3, 1, 1))
    columns = SimpleNamespace(
        omega_p=ni.omega_p * np.array([0.5, 1.0, 2.0])[:, None, None],
        effective=(np.array([0.0, ni.gamma, 3.0 * ni.gamma])[:, None, None],
                   zeros, zeros))
    return {"drude": ni, "plasma": nickel("plasma"), "columns": columns}


@pytest.mark.parametrize("mu", [1.0, 110.0])
@pytest.mark.parametrize("core", [1.0, 7.5])
@pytest.mark.parametrize("name", ["drude", "plasma", "columns"])
def test_zero_velocities_give_the_local_pair_bit_for_bit(name, core, mu):
    # the one permittivity formula with v_t = v_l = 0 gives eps_tr = eps_l
    # = core + W, and on that pair the cross term is exactly zero, so the
    # coefficients are the Fresnel ones, bit for bit
    m = _zero_velocity_models()[name]
    gamma = m.effective[0]
    for l in (1, 7, 60):
        xi = matsubara_xi(l, CTX)
        eps = core + m.omega_p * m.omega_p / (xi * (xi + gamma))
        for k in (np.linspace(0.0, 30.0, 41), 0.0, 2.5):
            eps_tr, eps_l = reflection.free_electron_eps(xi, k, m, core,
                                                         xi / C_LIGHT)
            expected = np.broadcast_to(eps, np.broadcast(eps, k).shape)
            assert np.array_equal(eps_tr, expected)
            assert np.array_equal(eps_l, expected)
            k2 = k * k
            q = np.sqrt(k2 + 1.0)
            k_mu = np.sqrt(k2 + (expected if mu == 1.0 else mu * expected))
            got = reflection.matsubara_coefficients(q, k, k2, mu, eps_tr,
                                                    eps_l)
            for g, e in zip(got, (q * expected - k_mu, q * expected + k_mu,
                                  mu * q - k_mu, mu * q + k_mu)):
                assert np.array_equal(g, e)


README_GRID = np.geomspace(100e-9, 800e-9, 15)[:, None, None]


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("l", [1, 5, 40])
def test_local_variants_are_the_nonlocal_formula(l, with_table, ni_table):
    # at l >= 1 drude is the nonlocal formula with v_t = v_l = 0, and
    # plasma is that with gamma = 0 as well: bit for bit.  The formula
    # keeps the core of the physical gamma, as every variant does.
    table = ni_table if with_table else None
    ni = nickel("nonlocal", interband=table)
    xi = matsubara_xi(l, CTX)
    y = nodes_above_cut(l, README_GRID)
    for variant, gamma in (("drude", ni.gamma), ("plasma", 0.0)):
        local = nickel(variant, interband=table)
        params = MaterialModel(omega_p=ni.omega_p, gamma=gamma, mu0=ni.mu0,
                               variant="nonlocal")
        formula = SimpleNamespace(omega_p=params.omega_p,
                                  effective=params.effective, core=ni.core)
        got = reflection.lifshitz_summand(y, xi, README_GRID, local)
        expected = reflection.lifshitz_summand(y, xi, README_GRID, formula)
        assert got.shape == y.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("l", [1, 5, 40])
def test_interband_core_is_the_same_for_every_variant(l, ni_table):
    # the core subtracts the Drude background with the physical gamma,
    # also for the dissipationless variant
    xi = matsubara_xi(l, CTX)
    cores = {nickel(v, interband=ni_table).core(xi) for v in VARIANTS}
    assert len(cores) == 1


def test_fixed_reflection_analytic():
    y = np.array([0.5, 2.0, 10.0])
    got = reflection.lifshitz_summand(y, 1e14, A, FixedReflection(0.5, -0.25))
    x_tm = 0.25 * np.exp(-y)
    x_te = 0.0625 * np.exp(-y)
    expected = y * y * (x_tm / (1 - x_tm) + x_te / (1 - x_te))
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_vacuum_hook_is_exactly_zero():
    y = np.linspace(0.1, 40.0, 50)
    got = reflection.lifshitz_summand(y, 0.0, A, FixedReflection(0.0, 0.0))
    assert np.all(got == 0.0)


def test_no_overflow_at_extreme_arguments():
    # the bracket is formed as x/(1-x); exp(+y) is never evaluated
    y = np.array([100.0, 400.0, 700.0])
    got = reflection.lifshitz_summand(y, 1e15, A, FixedReflection(1.0, -1.0))
    assert np.all(np.isfinite(got))
    assert np.all(got >= 0.0)


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_material_kernel_has_no_overflow_at_extreme_arguments(variant,
                                                              with_table,
                                                              ni_table):
    # the occupation is formed as N^2 d/(D^2 - N^2 d); neither exp(+y) nor
    # r = N/D is ever evaluated
    model = nickel(variant, interband=ni_table if with_table else None)
    y = np.array([100.0, 400.0, 700.0])
    for l in (0, 1, 7):
        for a in (1e-9, A, 20e-6):
            got = reflection.lifshitz_summand(y, matsubara_xi(l, CTX), a,
                                              model)
            assert np.all(np.isfinite(got)), (l, a)
            assert np.all(got >= 0.0), (l, a)


def test_interband_core_shifts_permittivity(ni_table):
    # the core enters as the replacement of the leading unity
    y = np.array([1.0, 3.0, 8.0])
    xi = matsubara_xi(1, CTX)
    base = reflection.lifshitz_summand(y, xi, A, nickel("nonlocal"))
    shifted = reflection.lifshitz_summand(
        y, xi, A, nickel("nonlocal", interband=ni_table))
    assert np.all(shifted > base)  # larger eps reflects more
