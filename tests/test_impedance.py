import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import casimag
from casimag import (MaterialModel, MatsubaraContext, QuadratureError,
                     impedance_integral, impedance_pair, matsubara_xi,
                     nickel, quadrature, refl_from_impedance, refl_pair)
from casimag.constants import C_LIGHT

CTX = MatsubaraContext(temperature=300.0)
A_REF = 0.5e-6
L_GRID = (1, 2, 10, 100)
K_GRID = (0.0, 1.0 / (10 * A_REF), 1.0 / A_REF, 10.0 / A_REF)

# omega_p so small that eps = 1 to machine precision at Matsubara scales
VACUUM = MaterialModel(omega_p=1e-3, variant="drude")


def vacuum_impedance_te(l, k_perp):
    xi = matsubara_xi(l, CTX)
    q = math.sqrt(k_perp**2 + (xi / C_LIGHT) ** 2)
    return xi / (C_LIGHT * q)


def vacuum_impedance_tm(l, k_perp):
    # the TM impedance of free space is c q / xi; both polarizations then
    # reflect nothing through their respective Moebius transforms
    return 1.0 / vacuum_impedance_te(l, k_perp)


class TestVacuumLimit:
    @pytest.mark.parametrize("l", [1, 5])
    @pytest.mark.parametrize("k_perp", K_GRID)
    def test_closed_forms(self, l, k_perp):
        z = impedance_pair(l, k_perp, VACUUM, CTX)
        assert z.z_te == pytest.approx(vacuum_impedance_te(l, k_perp),
                                       rel=1e-12)
        assert z.z_tm == pytest.approx(vacuum_impedance_tm(l, k_perp),
                                       rel=1e-12)

    def test_normal_incidence_unity(self):
        z = impedance_pair(1, 0.0, VACUUM, CTX)
        assert z.z_te == pytest.approx(1.0, rel=1e-12)
        assert z.z_tm == pytest.approx(1.0, rel=1e-12)

    def test_integral_route(self):
        z = impedance_integral(3, 1e6, VACUUM, CTX)
        assert z.z_te == pytest.approx(vacuum_impedance_te(3, 1e6), rel=1e-9)
        assert z.z_tm == pytest.approx(vacuum_impedance_tm(3, 1e6), rel=1e-9)


class TestIntegralClosedEquivalence:
    """The k_z quadrature against the closed forms, <= 1e-8 relative."""

    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_sixteen_point_grid(self, variant):
        m = nickel(variant)
        for l in L_GRID:
            for k_perp in K_GRID:
                zc = impedance_pair(l, k_perp, m, CTX)
                zi = impedance_integral(l, k_perp, m, CTX)
                assert abs(zi.z_te / zc.z_te - 1.0) <= 1e-8, (l, k_perp, "TE")
                assert abs(zi.z_tm / zc.z_tm - 1.0) <= 1e-8, (l, k_perp, "TM")

    def test_magnetic_at_small_xi(self):
        # mu = 110 probed just above the static term via a low temperature
        ctx = MatsubaraContext(temperature=1.0)
        m = nickel("nonlocal")
        for k_perp in K_GRID:
            zc = impedance_pair(1, k_perp, m, ctx, mu_l=110.0)
            zi = impedance_integral(1, k_perp, m, ctx, mu_l=110.0)
            assert abs(zi.z_te / zc.z_te - 1.0) <= 1e-8
            assert abs(zi.z_tm / zc.z_tm - 1.0) <= 1e-8

    @seed(20261017)
    @settings(max_examples=150, deadline=None, database=None)
    @given(temperature=st.floats(1.0, 1000.0),
           l=st.integers(1, 500),
           k_perp=st.one_of(st.just(0.0),
                            st.floats(2.0, math.log10(3e9)).map(
                                lambda e: 10.0**e)),
           mu=st.floats(1.0, 500.0),
           variant=st.sampled_from(["drude", "plasma", "nonlocal"]))
    def test_reflection_sweep(self, temperature, l, k_perp, mu, variant):
        # k_perp << xi/c is where a k_perp-only tan-substitution scale fails
        ctx = MatsubaraContext(temperature=temperature)
        m = nickel(variant)
        closed = refl_pair(l, k_perp, m, ctx, mu_l=mu)
        via = refl_from_impedance(
            impedance_integral(l, k_perp, m, ctx, mu_l=mu), l, k_perp, ctx)
        assert abs(closed.r_tm) <= 1.0 and abs(closed.r_te) <= 1.0
        assert abs(via.r_tm - closed.r_tm) <= 1e-9
        assert abs(via.r_te - closed.r_te) <= 1e-9

    @pytest.mark.parametrize("mu", [1.0, 110.0])
    def test_local_oracle_for_tm_integral(self, mu):
        # local medium: Z_TM = sqrt(c^2 k^2 + mu eps xi^2)/(xi eps)
        m = nickel("drude")
        l, k_perp = 2, 1.0 / A_REF
        xi = matsubara_xi(l, CTX)
        eps = 1.0 + m.omega_p**2 / (xi * (xi + m.gamma))
        expected = math.sqrt((C_LIGHT * k_perp) ** 2
                             + mu * eps * xi * xi) / (xi * eps)
        assert impedance_integral(l, k_perp, m, CTX,
                                  mu_l=mu).z_tm == pytest.approx(expected,
                                                                 rel=1e-8)


class TestProperties:
    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_positivity(self, variant):
        m = nickel(variant)
        for l in L_GRID:
            for k_perp in K_GRID:
                z = impedance_pair(l, k_perp, m, CTX)
                assert z.z_te > 0.0
                assert z.z_tm > 0.0

    def test_te_plasma_below_drude(self):
        # the plasma permittivity is >= the Drude one pointwise, so Z_TE
        # is smaller
        for l in L_GRID:
            for k_perp in K_GRID:
                assert (impedance_pair(l, k_perp, nickel("plasma"), CTX).z_te
                        <= impedance_pair(l, k_perp, nickel("drude"),
                                          CTX).z_te)

    def test_unit_mu_matches_mu_free_expression(self):
        # closed TE form with mu = 1 equals xi/sqrt(c^2 k^2 + eps xi^2)
        m = nickel("drude")
        l, k_perp = 3, 2e6
        xi = matsubara_xi(l, CTX)
        eps = 1.0 + m.omega_p**2 / (xi * (xi + m.gamma))
        expected = xi / math.sqrt((C_LIGHT * k_perp) ** 2 + eps * xi * xi)
        assert impedance_pair(l, k_perp, m, CTX).z_te == pytest.approx(
            expected, rel=1e-14)

    def test_static_index_rejected(self):
        with pytest.raises(ValueError):
            impedance_pair(0, 1e6, nickel("drude"), CTX)
        with pytest.raises(ValueError):
            impedance_integral(0, 1e6, nickel("drude"), CTX)

    def test_pair_agrees_with_integral_route(self):
        m = nickel("nonlocal")
        closed = impedance_pair(2, 1e6, m, CTX)
        integral = impedance_integral(2, 1e6, m, CTX)
        assert integral.z_tm == pytest.approx(closed.z_tm, rel=1e-9)
        assert integral.z_te == pytest.approx(closed.z_te, rel=1e-9)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("route", [refl_pair, impedance_pair,
                                       impedance_integral])
    def test_rejects_unphysical_mu(self, route, mu):
        # the override, like MaterialModel.mu0, must be finite and >= 1
        with pytest.raises(ValueError, match="mu_l"):
            route(1, 1e6, nickel("drude"), CTX, mu_l=mu)


class TestIntegralRoute:
    def test_panel_budget_exhausted(self, monkeypatch):
        # a budget of one panel forbids every bisection of the k_z integrals
        monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
        with pytest.raises(QuadratureError):
            impedance_integral(2, 1e6, nickel("nonlocal"), CTX)

    def test_no_code_path_imports_scipy(self):
        # the package runs on NumPy alone: the CLI and the k_z oracle too
        src = os.path.dirname(os.path.dirname(casimag.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, casimag, casimag.cli\n"
                "casimag.impedance_integral(2, 1e6, casimag.nickel(), "
                "casimag.MatsubaraContext(temperature=300.0))\n"
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"
