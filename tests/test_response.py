import math

import numpy as np
import pytest

from casimag import (InterbandTable, MaterialModel, MatsubaraContext,
                     QuadratureError, eps_core_kk, eps_pair, matsubara_xi,
                     nickel, refl_pair, response)
from casimag.constants import EV_TO_RAD_S
from casimag.response import drude_im_eps

CTX = MatsubaraContext(temperature=300.0)
XI1 = matsubara_xi(1, CTX)

NI = nickel("nonlocal")
NI_DRUDE = nickel("drude")
NI_PLASMA = nickel("plasma")


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

    # an index is an integer >= 0: not a float, even 1.0, nor a bool
    @pytest.mark.parametrize("l", [-1, 1.5, 1.0, True, math.nan])
    def test_negative_index_rejected(self, l):
        with pytest.raises(ValueError):
            matsubara_xi(l, CTX)

    def test_numpy_integer_index(self):
        assert matsubara_xi(np.int64(7), CTX) == 7.0 * XI1


class TestLocalPermittivities:
    def test_drude_unit_parameters(self):
        m = MaterialModel(omega_p=1.0, gamma=0.0)
        assert eps_pair(1.0, 0.0, m)[0] == 2.0

    def test_drude_high_frequency_limit(self):
        assert eps_pair(1e6 * NI.omega_p, 0.0, NI_DRUDE)[0] == pytest.approx(
            1.0, abs=1e-9)

    def test_drude_nickel_first_matsubara(self):
        # direct scalar arithmetic: 1 + wp^2/(xi1 (xi1 + gamma))
        assert eps_pair(XI1, 0.0, NI_DRUDE)[0] == pytest.approx(
            715.5080395356648, rel=1e-12)

    def test_plasma_at_wp(self):
        m = MaterialModel(omega_p=2.0, variant="plasma")
        assert eps_pair(2.0, 0.0, m)[0] == 2.0
        assert eps_pair(4.0, 0.0, m)[0] == 1.25

    def test_plasma_nickel_first_matsubara(self):
        assert eps_pair(XI1, 0.0, NI_PLASMA)[0] == pytest.approx(
            907.2952299555375, rel=1e-12)

    def test_drude_without_dissipation_equals_plasma(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=0.0)
        p = MaterialModel(omega_p=NI.omega_p, gamma=0.0, variant="plasma")
        for xi in (0.1 * XI1, XI1, 17.0 * XI1, 1e3 * XI1):
            assert eps_pair(xi, 0.0, m) == eps_pair(xi, 0.0, p)

    def test_static_evaluation_rejected(self):
        for m in (NI_DRUDE, NI_PLASMA):
            with pytest.raises(ValueError):
                eps_pair(0.0, 0.0, m)


class TestWavevectorDependence:
    def test_transverse_reduces_to_drude_at_zero_k(self):
        assert eps_pair(XI1, 0.0, NI)[0] == eps_pair(XI1, 0.0, NI_DRUDE)[0]

    def test_longitudinal_reduces_to_drude_at_zero_k(self):
        assert eps_pair(XI1, 0.0, NI)[1] == eps_pair(XI1, 0.0, NI_DRUDE)[0]

    def test_transverse_doubles_drude_excess(self):
        k = XI1 / NI.v_t  # v_t k / xi = 1
        expected = 1.0 + 2.0 * NI.omega_p**2 / (XI1 * (XI1 + NI.gamma))
        assert eps_pair(XI1, k, NI)[0] == pytest.approx(expected, rel=1e-14)

    def test_longitudinal_halves_drude_excess(self):
        k = XI1 / NI.v_l
        expected = 1.0 + 0.5 * NI.omega_p**2 / (XI1 * (XI1 + NI.gamma))
        assert eps_pair(XI1, k, NI)[1] == pytest.approx(expected, rel=1e-14)

    def test_transverse_nickel_value(self):
        # independent arithmetic at k = 1/(2a), a = 1 um
        assert eps_pair(XI1, 5e5, NI)[0] == pytest.approx(
            728.7831521771475, rel=1e-12)

    def test_longitudinal_screening_limit(self):
        assert eps_pair(XI1, 1e18, NI)[1] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_negative_wavevector_rejected(self, variant):
        with pytest.raises(ValueError, match="k_perp"):
            eps_pair(XI1, -1e6, nickel(variant))

    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_wavevector_rejected(self, variant, k):
        # every variant takes the one formula, whose (W v_t/xi) k is nan at
        # k = inf even with v_t = 0: a non-finite k is an input error
        with pytest.raises(ValueError, match="k_perp must be finite"):
            eps_pair(XI1, k, nickel(variant))
        with pytest.raises(ValueError, match="k_perp must be finite"):
            refl_pair(1, k, nickel(variant), CTX)

    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    @pytest.mark.parametrize("xi", [math.inf, math.nan])
    def test_non_finite_xi_rejected(self, variant, xi):
        # a NaN xi would otherwise give (nan, nan) without an error
        with pytest.raises(ValueError, match="xi must be finite"):
            eps_pair(xi, 0.0, nickel(variant))

    @pytest.mark.parametrize("xi_fac", [0.3, 1.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("k", [0.0, 1e5, 1e6, 1e7, 1e8])
    def test_ordering_longitudinal_drude_transverse(self, xi_fac, k):
        xi = xi_fac * XI1
        e_l = eps_pair(xi, k, NI)[1]
        e_d = eps_pair(xi, 0.0, NI_DRUDE)[0]
        e_t = eps_pair(xi, k, NI)[0]
        assert e_l <= e_d <= e_t
        if k > 0.0:
            assert e_l < e_d < e_t
        else:
            assert e_l == e_d == e_t
        assert e_l >= 1.0


def test_mu_enters_only_in_static_term():
    # refl_pair's default permeability: mu0 = 110 at l = 0, where the
    # drude TE coefficient is (mu0 - 1)/(mu0 + 1); 1 above it
    assert refl_pair(0, 1e7, NI_DRUDE, CTX).r_te == pytest.approx(
        109.0 / 111.0, rel=1e-14)
    for l in (1, 50):
        assert refl_pair(l, 1e7, NI, CTX) == refl_pair(l, 1e7, NI, CTX,
                                                       mu_l=1.0)


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

    def test_effective_parameters_are_derived(self):
        # the l >= 1 permittivities see (gamma, v_t, v_l) per variant; the
        # stored gamma stays the physical relaxation rate
        assert NI.effective == (NI.gamma, NI.v_t, NI.v_l)
        assert NI_DRUDE.effective == (NI.gamma, 0.0, 0.0)
        assert NI_PLASMA.effective == (0.0, 0.0, 0.0)
        assert NI_PLASMA.gamma == 0.0436 * EV_TO_RAD_S
        with pytest.raises(TypeError):
            MaterialModel(omega_p=1.0, effective=(0.0, 0.0, 0.0))
        # not part of equality or hashing
        assert "effective" not in repr(NI)
        assert hash(NI_PLASMA) == hash(nickel("plasma"))

    @pytest.mark.parametrize("kwargs", [
        {"temperature": 0.0},
        {"temperature": 300.0, "l_max_cap": 5},
        {"temperature": math.nan},
        {"temperature": math.inf},
        {"temperature": True},
    ], ids=["zero-temperature", "cap-below-10", "nan-temperature",
            "inf-temperature", "bool-temperature"])
    def test_context_bounds(self, kwargs):
        with pytest.raises(ValueError):
            MatsubaraContext(**kwargs)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 10.5, 10.0, True],
                             ids=["nan", "inf", "fraction", "float", "bool"])
    def test_cap_must_be_an_int(self, cap):
        # a nan or inf cap would switch the term cap off, and a fractional
        # one would be reported as terms_used
        with pytest.raises(ValueError, match="l_max_cap must be an int"):
            MatsubaraContext(temperature=300.0, l_max_cap=cap)
        assert MatsubaraContext(300.0, 10).l_max_cap == 10

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

    @pytest.mark.parametrize("text,match", [
        ("", "empty CSV"),
        ("# only a comment\n\n", "empty CSV"),
        ("omega_ev,im_eps\n0.5,2.0\n\n# note\n\n1.0,two\n",
         "row 6: non-numeric"),
        ("omega_ev,im_eps\n0.5,2.0,\n", "row 2: expected 2 columns"),
        ("omega_ev,im_eps\r\n0.5,2.0\r\n1.0\r\n", "row 3: expected 2 columns"),
        ("omega_ev,im_eps\n# note\u2028 see\x0cbelow\n0.5,2.0\n1.0,two\n",
         "row 4: non-numeric"),
    ], ids=["empty", "comments-only", "gaps-keep-line-numbers",
            "trailing-comma", "crlf-short-row", "only-newlines-end-rows"])
    def test_csv_errors(self, tmp_path, text, match):
        path = tmp_path / "opt.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match=match):
            InterbandTable.from_csv(path)

    def test_csv_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text("\ufeffomega_ev,im_eps\n0.5,2.0\n1.0,1.5\n",
                        encoding="utf-8")
        assert InterbandTable.from_csv(path).im_eps == (2.0, 1.5)

    def test_csv_spaced_header_crlf_and_gaps(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_bytes(b"# comment\r\n omega_ev , im_eps \r\n0.5,2.0\r\n"
                         b"\r\n# between rows\r\n1.0, 1.5\r\n")
        table = InterbandTable.from_csv(path)
        assert table.omega == (0.5 * EV_TO_RAD_S, 1.0 * EV_TO_RAD_S)
        assert table.im_eps == (2.0, 1.5)


def _ni_drude(w):
    return drude_im_eps(w, NI.omega_p, NI.gamma)


def _tail(table, xi):
    """Closed-form KK tail of the (w_max/w)^3 extrapolation."""
    w_max = table.omega[-1]
    weight = max(0.0, table.im_eps[-1] - _ni_drude(w_max))
    b = xi / w_max
    return weight * (1.0 / b**2 - math.atan(b) / b**3)


def _trapezoid_core(table, xi, n=2_000_001):
    """eps_core from the trapezoid rule on n points uniform in ln w."""
    u = np.linspace(math.log(table.omega[0]), math.log(table.omega[-1]), n)
    w = np.exp(u)
    excess = np.maximum(0.0, np.interp(w, table.omega, table.im_eps)
                        - _ni_drude(w))
    integral = np.trapezoid(w * w * excess / (w * w + xi * xi), u)
    return 1.0 + (2.0 / math.pi) * (float(integral) + _tail(table, xi))


def _gauss_legendre_integrals(table, xis, sub):
    """Int w^2 eps''_ib(w) / (w^2 + xi^2) d(ln w) over the table range at
    each xi, from 20-point Gauss-Legendre in ln w on ``sub`` equal panels
    per piece; the pieces run between table rows and the sign changes of
    table - Drude, found by sampling and bisection."""
    omega, im_eps = np.asarray(table.omega), np.asarray(table.im_eps)

    def positive(u):
        w = np.exp(u)
        return np.interp(w, omega, im_eps) - _ni_drude(w) > 0.0

    def kink(a, b):
        pos_a = positive(a)
        for _ in range(100):
            if positive(0.5 * (a + b)) == pos_a:
                a = 0.5 * (a + b)
            else:
                b = 0.5 * (a + b)
        return a

    u = np.log(omega)
    samples = np.linspace(u[:-1], u[1:], 65, axis=1)
    pos = positive(samples)
    seg, j = np.nonzero(pos[:, 1:] != pos[:, :-1])
    kinks = [kink(samples[a, b], samples[a, b + 1]) for a, b in zip(seg, j)]
    edges = np.union1d(u, kinks)
    edges = np.concatenate([np.linspace(a, b, sub + 1)[:-1]
                            for a, b in zip(edges[:-1], edges[1:])]
                           + [edges[-1:]])
    x, wgl = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)[:, None]
    w = np.exp(0.5 * (edges[1:] + edges[:-1])[:, None] + half * x)
    excess = np.maximum(0.0, np.interp(w, omega, im_eps) - _ni_drude(w))
    weights = (w * w * excess * half * wgl).ravel()
    w2 = (w * w).ravel()
    return np.array([weights @ (1.0 / (w2 + xi * xi)) for xi in xis])


def _gauss_legendre_cores(table, xis, sub):
    """eps_core at each xi from ``_gauss_legendre_integrals``."""
    integrals = _gauss_legendre_integrals(table, xis, sub)
    return np.array([1.0 + (2.0 / math.pi) * (v + _tail(table, xi))
                     for v, xi in zip(integrals, xis)])


def _bisected_kinks(omega, im_eps):
    """Sign changes of the interpolated table minus the Drude background,
    each bracketed on a 1001-point log grid per segment and bisected 64
    times."""
    kinks = []
    for i in range(omega.size - 1):
        w0, v0 = omega[i], im_eps[i]
        s = np.diff(im_eps)[i] / np.diff(omega)[i]

        def g(w):
            return v0 + s * (w - w0) - _ni_drude(w)

        grid = np.geomspace(w0, omega[i + 1], 1001)
        j = np.flatnonzero(np.diff(g(grid) < 0.0))
        lo, hi = grid[j], grid[j + 1]
        lo_neg = g(lo) < 0.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            left = (g(mid) < 0.0) == lo_neg
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        kinks.append(0.5 * (lo + hi))
    return np.concatenate(kinks)


def _coarse_table():
    """3 rows over 6 decades, crossing the Drude background once."""
    return InterbandTable(omega=(0.01 * XI1, 10.0 * XI1, 1e4 * XI1),
                          im_eps=(0.0, 50.0, 1e-3))


def _kinked_table():
    """table - Drude is negative at both ends of the first segment and
    positive inside it (two kinks), then crosses zero once inside each of
    the next two segments."""
    omega = (XI1, 100.0 * XI1, 200.0 * XI1, 2000.0 * XI1)
    return InterbandTable(
        omega=omega,
        im_eps=(0.5 * _ni_drude(omega[0]), 0.5 * _ni_drude(omega[1]),
                2.0 * _ni_drude(omega[2]), 0.0))


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
            im_eps=tuple(0.5 * drude_im_eps(w, NI.omega_p, NI.gamma)
                         for w in omega))
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
                                                           rel=1e-10)

    def test_matsubara_frequencies_against_dense_reference(self, ni_table):
        # every xi of the README config (l = 1..120 at 300 K); the
        # reference is checked against its own 2x refinement first
        xis = [matsubara_xi(l, CTX) for l in range(1, 121)]
        ref = _gauss_legendre_cores(ni_table, xis, 4)
        np.testing.assert_allclose(_gauss_legendre_cores(ni_table, xis, 2),
                                   ref, rtol=1e-14, atol=0.0)
        got = [eps_core_kk(xi, ni_table, NI) for xi in xis]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_excess_kinks_inside_segments(self):
        table = _kinked_table()
        for xi in (XI1, 30.0 * XI1):
            assert eps_core_kk(xi, table, NI) == pytest.approx(
                _trapezoid_core(table, xi), rel=1e-11)

    def test_kinks_match_bisection(self):
        # the Newton kinks against 64-step bisection, on the kinked table
        # and on seeded segments crossing the background once or twice,
        # steeply enough that rounding in g blurs each sign change over
        # about an ulp at most
        rng = np.random.default_rng(16)
        n = 40
        w0 = 10.0 ** rng.uniform(12.0, 16.0, n)
        w1 = w0 * np.exp(rng.uniform(0.02, 0.5, n))
        f = np.where(rng.random(n) < 0.5, 0.5, 2.0)
        one = [((a, b), (f_ * _ni_drude(a), _ni_drude(b) / f_))
               for a, b, f_ in zip(w0, w1, f)]
        # both ends at half the background: the chord clears it inside
        w0 = 10.0 ** rng.uniform(15.0, 18.0, n)
        w1 = w0 * rng.uniform(3.0, 6.0, n)
        two = [((a, b), (0.5 * _ni_drude(a), 0.5 * _ni_drude(b)))
               for a, b in zip(w0, w1)]
        t = _kinked_table()
        kinked = [(t.omega, t.im_eps)]
        for tables, count in ((kinked, 4), (one, 1), (two, 2)):
            for omega, im_eps in tables:
                omega, im_eps = np.array(omega), np.array(im_eps)
                got = np.sort(response._excess_zeros(omega, im_eps,
                                                     NI.omega_p, NI.gamma))
                ref = _bisected_kinks(omega, im_eps)
                assert got.size == ref.size == count
                assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))

    def test_node_budget(self, ni_table):
        # four Gauss nodes per panel, one panel per segment of the 600-row
        # table (its segments are narrower than KK_PANEL_WIDTH) or per
        # piece between kinks
        w2, _, _ = response._kk_nodes(ni_table, NI.omega_p, NI.gamma)
        assert w2.size <= 2188

    def test_coarse_table_split_into_panels(self):
        # the segments are split into panels no wider than KK_PANEL_WIDTH
        table = _coarse_table()
        for xi in (XI1, 30.0 * XI1):
            assert eps_core_kk(xi, table, NI) == pytest.approx(
                _trapezoid_core(table, xi), rel=1e-11)

    @pytest.mark.parametrize("name", ["session", "coarse", "kinked"])
    def test_a_priori_bound_keeps_its_margin_and_holds(self, name, ni_table):
        # panels at most KK_PANEL_WIDTH wide with every kink a breakpoint:
        # the bound stays >= 1000x below KK_QUAD_TOL, and it covers the
        # true error of the fixed nodes over the whole Matsubara range
        table = {"session": ni_table, "coarse": _coarse_table(),
                 "kinked": _kinked_table()}[name]
        w2, wg, bound = response._kk_nodes(table, NI.omega_p, NI.gamma)
        assert 0.0 < bound <= 1e-12
        xis = np.geomspace(1e10, 1e19, 200)
        ref = _gauss_legendre_integrals(table, xis, 4)
        got = np.array([np.vdot(wg, 1.0 / (w2 + xi * xi)) for xi in xis])
        assert np.all(np.abs(got - ref) <= bound * ref)

    def test_panels_too_wide_raise(self, monkeypatch):
        # one panel per segment of the coarse table misses KK_QUAD_TOL;
        # the fixed nodes are never refined, so the core must raise
        monkeypatch.setattr(response, "KK_PANEL_WIDTH", 100.0)
        with pytest.raises(QuadratureError, match="xi = "):
            eps_core_kk(XI1, _coarse_table(), NI)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # below the table's a-priori error bound: the core must raise, not
        # return
        monkeypatch.setattr(response, "KK_QUAD_TOL", 1e-20)
        table = _tent_table(50.0 * XI1, 5.0 * XI1, 2.0)
        with pytest.raises(QuadratureError, match="on its fixed nodes"):
            eps_core_kk(XI1, table, NI)

    def test_overflowing_table_raises(self):
        # w^2 eps'' overflows: a non-finite estimate is never returned
        table = InterbandTable(omega=(XI1, 2.0 * XI1),
                               im_eps=(1e300, 1e300))
        with pytest.raises(QuadratureError):
            eps_core_kk(XI1, table, NI)

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

    @pytest.mark.parametrize("xi", [math.nan, math.inf])
    def test_non_finite_xi_rejected(self, ni_table, xi):
        # an input error, not the non-convergence of QuadratureError
        with pytest.raises(ValueError, match="xi must be finite"):
            eps_core_kk(xi, ni_table, NI)
