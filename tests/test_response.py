import math

import numpy as np
import pytest

from casimag import (InterbandTable, MaterialModel, MatsubaraContext,
                     eps_core_kk, eps_drude, eps_longitudinal_nl, eps_plasma,
                     eps_transverse_nl, matsubara_xi, mu_at, nickel)
from casimag.constants import EV_TO_RAD_S
from casimag.response import drude_im_eps

CTX = MatsubaraContext(temperature=300.0)
XI1 = matsubara_xi(1, CTX)

NI = nickel("nonlocal")
NI_DRUDE = nickel("drude")


class TestMatsubaraXi:
    def test_zero_index_is_exactly_zero(self):
        assert matsubara_xi(0, CTX) == 0.0

    def test_first_frequency_at_300k(self):
        # 2 pi k_B T / hbar with CODATA constants
        assert XI1 == pytest.approx(2.467790255153061e14, rel=1e-13)

    def test_exactly_linear_in_index(self):
        assert matsubara_xi(2, CTX) == 2.0 * XI1
        assert matsubara_xi(7, CTX) == 7.0 * XI1

    def test_exactly_linear_in_temperature(self):
        ctx2 = MatsubaraContext(temperature=600.0)
        assert matsubara_xi(1, ctx2) == 2.0 * XI1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            matsubara_xi(-1, CTX)


class TestLocalPermittivities:
    def test_drude_unit_parameters(self):
        m = MaterialModel(omega_p=1.0, gamma=0.0)
        assert eps_drude(1.0, m) == 2.0

    def test_drude_high_frequency_limit(self):
        assert eps_drude(1e6 * NI.omega_p, NI) == pytest.approx(1.0, abs=1e-9)

    def test_drude_nickel_first_matsubara(self):
        # direct scalar arithmetic: 1 + wp^2/(xi1 (xi1 + gamma))
        assert eps_drude(XI1, NI) == pytest.approx(715.5080395356648,
                                                   rel=1e-12)

    def test_plasma_at_wp(self):
        m = MaterialModel(omega_p=2.0, variant="plasma")
        assert eps_plasma(2.0, m) == 2.0
        assert eps_plasma(4.0, m) == 1.25

    def test_plasma_nickel_first_matsubara(self):
        assert eps_plasma(XI1, NI) == pytest.approx(907.2952299555375,
                                                    rel=1e-12)

    def test_drude_without_dissipation_equals_plasma(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=0.0)
        for xi in (0.1 * XI1, XI1, 17.0 * XI1, 1e3 * XI1):
            assert eps_drude(xi, m) == eps_plasma(xi, m)

    def test_static_evaluation_rejected(self):
        for fn in (eps_drude, eps_plasma):
            with pytest.raises(ValueError):
                fn(0.0, NI)


class TestWavevectorDependence:
    def test_transverse_reduces_to_drude_at_zero_k(self):
        assert eps_transverse_nl(XI1, 0.0, NI) == eps_drude(XI1, NI)

    def test_longitudinal_reduces_to_drude_at_zero_k(self):
        assert eps_longitudinal_nl(XI1, 0.0, NI) == eps_drude(XI1, NI)

    def test_transverse_doubles_drude_excess(self):
        k = XI1 / NI.v_t  # v_t k / xi = 1
        expected = 1.0 + 2.0 * NI.omega_p**2 / (XI1 * (XI1 + NI.gamma))
        assert eps_transverse_nl(XI1, k, NI) == pytest.approx(expected,
                                                              rel=1e-14)

    def test_longitudinal_halves_drude_excess(self):
        k = XI1 / NI.v_l
        expected = 1.0 + 0.5 * NI.omega_p**2 / (XI1 * (XI1 + NI.gamma))
        assert eps_longitudinal_nl(XI1, k, NI) == pytest.approx(expected,
                                                                rel=1e-14)

    def test_transverse_nickel_value(self):
        # independent arithmetic at k = 1/(2a), a = 1 um
        assert eps_transverse_nl(XI1, 5e5, NI) == pytest.approx(
            728.7831521771475, rel=1e-12)

    def test_longitudinal_screening_limit(self):
        assert eps_longitudinal_nl(XI1, 1e18, NI) == pytest.approx(1.0,
                                                                   abs=1e-7)

    @pytest.mark.parametrize("xi_fac", [0.3, 1.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("k", [0.0, 1e5, 1e6, 1e7, 1e8])
    def test_ordering_longitudinal_drude_transverse(self, xi_fac, k):
        xi = xi_fac * XI1
        e_l = eps_longitudinal_nl(xi, k, NI)
        e_d = eps_drude(xi, NI)
        e_t = eps_transverse_nl(xi, k, NI)
        assert e_l <= e_d <= e_t
        if k > 0.0:
            assert e_l < e_d < e_t
        else:
            assert e_l == e_d == e_t
        assert e_l >= 1.0


def test_mu_enters_only_in_static_term():
    assert mu_at(0, NI) == 110.0
    assert mu_at(1, NI) == 1.0
    assert mu_at(50, NI) == 1.0


class TestModelValidation:
    def test_omega_p_positive(self):
        with pytest.raises(ValueError):
            MaterialModel(omega_p=0.0)

    def test_mu0_at_least_one(self):
        with pytest.raises(ValueError):
            MaterialModel(omega_p=1.0, mu0=0.5)

    def test_velocity_below_c(self):
        with pytest.raises(ValueError):
            MaterialModel(omega_p=1.0, v_t=3e8)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            MaterialModel(omega_p=1.0, variant="lorentz")

    @pytest.mark.parametrize("kwargs", [
        {"temperature": 0.0},
        {"temperature": 300.0, "l_max_cap": 5},
        {"temperature": math.nan},
        {"temperature": math.inf},
    ], ids=["zero-temperature", "cap-below-10", "nan-temperature",
            "inf-temperature"])
    def test_context_bounds(self, kwargs):
        with pytest.raises(ValueError):
            MatsubaraContext(**kwargs)

    @pytest.mark.parametrize("field", ["omega_p", "gamma", "mu0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        kwargs = {"omega_p": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MaterialModel(**kwargs)


class TestInterbandTable:
    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            InterbandTable(omega=(1.0,), im_eps=(1.0,))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            InterbandTable(omega=(1.0, 1.0, 2.0), im_eps=(1.0, 1.0, 1.0))

    def test_nonnegative_im(self):
        with pytest.raises(ValueError):
            InterbandTable(omega=(1.0, 2.0), im_eps=(1.0, -0.1))

    @pytest.mark.parametrize("omega,im_eps", [
        ((1.0, math.nan), (1.0, 1.0)),
        ((1.0, math.inf), (1.0, 1.0)),
        ((1.0, 2.0), (math.nan, 1.0)),
        ((1.0, 2.0), (1.0, math.inf)),
    ], ids=["omega-nan", "omega-inf", "im_eps-nan", "im_eps-inf"])
    def test_non_finite_values_rejected(self, omega, im_eps):
        with pytest.raises(ValueError, match="finite"):
            InterbandTable(omega=omega, im_eps=im_eps)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text("# comment line\nomega_ev,im_eps\n0.5,2.0\n1.0,1.5\n",
                        encoding="utf-8")
        table = InterbandTable.from_csv(path)
        assert table.omega == (0.5 * EV_TO_RAD_S, 1.0 * EV_TO_RAD_S)
        assert table.im_eps == (2.0, 1.5)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text("omega,im\n0.5,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            InterbandTable.from_csv(path)

    def test_csv_non_numeric(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text("omega_ev,im_eps\n0.5,two\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2"):
            InterbandTable.from_csv(path)

    def test_csv_error_names_file_line(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text("# comment line\n\nomega_ev,im_eps\n0.5,2.0\n"
                        "1.0,two\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 5: non-numeric"):
            InterbandTable.from_csv(path)


def _tent_table(omega0, half_width, height, floor=None):
    """Triangular absorption line at omega0; excess area = height*half_width."""
    lo = floor if floor is not None else omega0 * 1e-4
    return InterbandTable(
        omega=(lo, omega0 - half_width, omega0, omega0 + half_width),
        im_eps=(0.0, 0.0, height, 0.0))


class TestKramersKronigCore:
    def test_no_excess_gives_unity(self):
        # table strictly below the Drude background (dense grid so the
        # interpolation chords stay below it too): excess clamps to zero
        omega = tuple(np.geomspace(0.1 * XI1, 100.0 * XI1, 400))
        table = InterbandTable(
            omega=omega,
            im_eps=tuple(0.5 * drude_im_eps(w, NI) for w in omega))
        assert eps_core_kk(XI1, table, NI) == 1.0

    def test_narrow_line_weight_over_frequency(self):
        # excess area W at omega0 >> xi contributes (2/pi) W / omega0
        omega0 = 1e4 * XI1
        w_area = 0.01 * omega0  # height 1, half-width 0.01 omega0
        table = _tent_table(omega0, 0.01 * omega0, 1.0)
        expected = 1.0 + (2.0 / math.pi) * w_area / omega0
        assert eps_core_kk(XI1, table, NI) == pytest.approx(expected,
                                                            rel=5e-4)

    def test_against_dense_trapezoid(self):
        # independent oracle: trapezoid rule on 2e6 points
        omega0 = 50.0 * XI1
        hw = 5.0 * XI1
        table = _tent_table(omega0, hw, 2.0)
        xi = 3.0 * XI1
        w = np.linspace(table.omega[0], table.omega[-1], 2_000_001)
        excess = np.maximum(
            0.0, np.interp(w, table.omega, table.im_eps)
            - NI.omega_p**2 * NI.gamma / (w * (w * w + NI.gamma**2)))
        oracle = 1.0 + (2.0 / math.pi) * np.trapezoid(
            w * excess / (w * w + xi * xi), w)
        assert eps_core_kk(xi, table, NI) == pytest.approx(float(oracle),
                                                           rel=1e-6)

    def test_vanishes_at_high_frequency(self):
        table = _tent_table(1e4 * XI1, 100.0 * XI1, 1.0)
        assert eps_core_kk(1e12 * XI1, table, NI) == pytest.approx(1.0,
                                                                   abs=1e-9)

    def test_monotone_nonincreasing_in_xi(self, ni_table):
        values = [eps_core_kk(f * XI1, ni_table, NI)
                  for f in (1.0, 2.0, 5.0, 10.0, 50.0, 200.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > 50.0  # strong interband response at low xi

    def test_narrow_table_rejected(self):
        # heavy absorption persisting at the top edge: the extrapolated
        # tail would carry a large fraction of the integral
        table = InterbandTable(omega=(0.5 * XI1, 1.0 * XI1, 2.0 * XI1),
                               im_eps=(500.0, 500.0, 500.0))
        with pytest.raises(ValueError, match="too narrow"):
            eps_core_kk(XI1, table, NI)

    def test_static_rejected(self, ni_table):
        with pytest.raises(ValueError):
            eps_core_kk(0.0, ni_table, NI)
