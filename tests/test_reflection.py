import math

import pytest

from casimag import (ImpedancePair, MaterialModel, MatsubaraContext,
                     impedance_integral, impedance_pair, matsubara_xi,
                     nickel, refl_fresnel, refl_from_impedance, refl_pair)
from casimag.constants import C_LIGHT

CTX = MatsubaraContext(temperature=300.0)
NI = nickel("nonlocal")


def test_vacuum_impedances_give_zero_reflection():
    l, k_perp = 1, 2e6
    xi = matsubara_xi(l, CTX)
    cq = C_LIGHT * math.sqrt(k_perp**2 + (xi / C_LIGHT) ** 2)
    r = refl_from_impedance(ImpedancePair(z_tm=cq / xi, z_te=xi / cq), l,
                            k_perp, CTX)
    assert r.r_tm == pytest.approx(0.0, abs=1e-15)
    assert r.r_te == pytest.approx(0.0, abs=1e-15)


def test_vanishing_impedance_is_ideal_metal():
    r = refl_from_impedance(ImpedancePair(z_tm=1e-15, z_te=1e-15), 1, 2e6,
                            CTX)
    assert r.r_tm == pytest.approx(1.0, abs=1e-9)
    assert r.r_te == pytest.approx(-1.0, abs=1e-9)


class TestPathEquivalence:
    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    @pytest.mark.parametrize("l,k_perp", [(1, 2e6), (1, 1e6), (5, 5e5),
                                          (20, 2e7)])
    def test_closed_equals_impedance_route(self, variant, l, k_perp):
        m = nickel(variant)
        direct = refl_pair(l, k_perp, m, CTX)
        via_z = refl_from_impedance(impedance_pair(l, k_perp, m, CTX), l,
                                    k_perp, CTX)
        assert direct.r_tm == pytest.approx(via_z.r_tm, rel=1e-12)
        assert direct.r_te == pytest.approx(via_z.r_te, rel=1e-12)

    def test_closed_equals_integral_route(self):
        l, k_perp = 1, 1e6  # k_perp = 1/(2a) at a = 0.5 um
        direct = refl_pair(l, k_perp, NI, CTX)
        via = refl_from_impedance(impedance_integral(l, k_perp, NI, CTX), l,
                                  k_perp, CTX)
        assert via.r_tm == pytest.approx(direct.r_tm, rel=1e-8)
        assert via.r_te == pytest.approx(direct.r_te, rel=1e-8)


class TestLocalLimits:
    def test_zero_velocities_reduce_to_fresnel(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=110.0,
                          v_t=0.0, v_l=0.0, variant="nonlocal")
        for l, k_perp in ((1, 2e6), (3, 5e5)):
            xi = matsubara_xi(l, CTX)
            eps = 1.0 + m.omega_p**2 / (xi * (xi + m.gamma))
            a = refl_pair(l, k_perp, m, CTX)
            b = refl_fresnel(l, k_perp, eps, 1.0, CTX)
            assert a.r_tm == pytest.approx(b.r_tm, rel=1e-14)
            assert a.r_te == pytest.approx(b.r_te, rel=1e-14)

    def test_deviation_scales_linearly_in_velocity(self):
        l, k_perp = 1, 2e6
        xi = matsubara_xi(l, CTX)
        eps = 1.0 + NI.omega_p**2 / (xi * (xi + NI.gamma))
        fres = refl_fresnel(l, k_perp, eps, 1.0, CTX)

        def deviation(scale):
            m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=110.0,
                              v_t=scale * NI.v_t, v_l=scale * NI.v_l,
                              variant="nonlocal")
            r = refl_pair(l, k_perp, m, CTX)
            return max(abs(r.r_tm - fres.r_tm), abs(r.r_te - fres.r_te))

        d1, d2, d4 = deviation(1.0), deviation(0.5), deviation(0.25)
        assert d2 / d1 == pytest.approx(0.5, abs=0.1)
        assert d4 / d2 == pytest.approx(0.5, abs=0.1)


class TestFresnel:
    def test_vacuum(self):
        r = refl_fresnel(1, 2e6, 1.0, 1.0, CTX)
        assert r.r_tm == 0.0
        assert r.r_te == 0.0

    def test_symmetry(self):
        r = refl_fresnel(1, 2e6, 8.0, 8.0, CTX)
        assert r.r_tm == pytest.approx(r.r_te, rel=1e-14)

    def test_ideal_metal(self):
        r = refl_fresnel(1, 2e6, 1e10, 1.0, CTX)
        assert r.r_tm == pytest.approx(1.0, abs=1e-4)
        assert r.r_te == pytest.approx(-1.0, abs=1e-4)

    # the checks of refl_pair: k_perp finite and >= 0; and eps_l, mu_l
    # finite and >= 1
    @pytest.mark.parametrize("k_perp, eps_l, mu_l", [
        (2e6, 0.9, 1.0), (-2e6, 8.0, 1.0), (math.nan, 8.0, 1.0),
        (math.inf, 8.0, 1.0), (2e6, math.nan, 1.0), (2e6, math.inf, 1.0),
        (2e6, 8.0, 0.9), (2e6, 8.0, math.nan), (2e6, 8.0, math.inf),
    ])
    def test_rejects_unphysical(self, k_perp, eps_l, mu_l):
        with pytest.raises(ValueError):
            refl_fresnel(1, k_perp, eps_l, mu_l, CTX)

    # a negative impedance gives |r| > 1 (r_TM = 1.0013 at l = 1 and
    # k_perp = 1e6 for Z_TM = -1e-3), a NaN or infinite one a NaN r
    @pytest.mark.parametrize("z", [-1e-3, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["z_tm", "z_te"])
    def test_impedance_route_rejects_unphysical_impedance(self, which, z):
        pair = {"z_tm": 1.0, "z_te": 1.0, which: z}
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            refl_from_impedance(ImpedancePair(**pair), 1, 1e6, CTX)
        # Z = 0 is the ideal metal
        r = refl_from_impedance(ImpedancePair(**{**pair, which: 0.0}), 1,
                                1e6, CTX)
        assert abs(r.r_tm) <= 1.0 and abs(r.r_te) <= 1.0

    @pytest.mark.parametrize("k_perp", [-2e6, math.nan, math.inf])
    def test_impedance_route_rejects_unphysical_k_perp(self, k_perp):
        with pytest.raises(ValueError, match="k_perp"):
            refl_from_impedance(ImpedancePair(1.0, 1.0), 1, k_perp, CTX)


@pytest.mark.parametrize("route", [
    lambda l: refl_pair(l, 2e6, NI, CTX),
    lambda l: impedance_pair(l, 2e6, NI, CTX),
    lambda l: impedance_integral(l, 2e6, NI, CTX),
    lambda l: refl_fresnel(l, 2e6, 8.0, 1.0, CTX),
    lambda l: refl_from_impedance(ImpedancePair(1.0, 1.0), l, 2e6, CTX),
], ids=["refl_pair", "impedance_pair", "impedance_integral", "refl_fresnel",
        "refl_from_impedance"])
def test_non_integer_index_rejected(route):
    # 1.5 is no Matsubara index: every route derives xi in matsubara_xi
    with pytest.raises(ValueError, match="Matsubara index"):
        route(1.5)


class TestStaticCoefficients:
    def test_no_longitudinal_velocity_gives_full_tm(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=110.0,
                          v_t=NI.v_t, v_l=0.0, variant="nonlocal")
        assert refl_pair(0, 2e6, m, CTX).r_tm == 1.0

    def test_nonmagnetic_local_te_vanishes(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=1.0,
                          v_t=0.0, v_l=NI.v_l, variant="nonlocal")
        assert refl_pair(0, 2e6, m, CTX).r_te == 0.0

    def test_nickel_values(self):
        # direct arithmetic: B = mu0 wp^2 v_t/(gamma c^2) and the square
        # root form at k = 1/(2a), a = 1 um
        r = refl_pair(0, 5e5, NI, CTX)
        assert r.r_tm == pytest.approx(0.9999889947707385, rel=1e-12)
        assert r.r_te == pytest.approx(-0.10845746089626337, rel=1e-12)

    def test_te_limit_at_zero_wavevector(self):
        assert refl_pair(0, 0.0, NI, CTX).r_te == -1.0

    def test_zero_wavevector_without_transverse_velocity(self):
        # B = 0 at k = 0: the dissipative local pair, not 0/0
        m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=110.0,
                          v_t=0.0, v_l=NI.v_l, variant="nonlocal")
        r = refl_pair(0, 0.0, m, CTX)
        assert (r.r_tm, r.r_te) == (1.0, 109.0 / 111.0)

    @pytest.mark.parametrize("k_perp", [0.0, 5e5, 1e8])
    def test_no_transverse_velocity_gives_dissipative_te(self, k_perp):
        # B = 0: the TE coefficient is (mu - 1)/(mu + 1) at every k
        m = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=110.0,
                          v_t=0.0, v_l=NI.v_l, variant="nonlocal")
        assert refl_pair(0, k_perp, m, CTX).r_te == 109.0 / 111.0

    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_permeability_override(self, variant):
        m = nickel(variant)
        assert refl_pair(0, 5e5, m, CTX, mu_l=110.0) == \
            refl_pair(0, 5e5, m, CTX)
        # a magnetic surface pushes the static TE coefficient up
        assert refl_pair(0, 5e5, m, CTX, mu_l=1.0).r_te < \
            refl_pair(0, 5e5, m, CTX).r_te

    def test_tm_independent_of_permeability(self):
        m1 = MaterialModel(omega_p=NI.omega_p, gamma=NI.gamma, mu0=1.0,
                           v_t=NI.v_t, v_l=NI.v_l, variant="nonlocal")
        for k in (1e5, 1e6, 1e7):
            assert refl_pair(0, k, m1, CTX).r_tm == \
                refl_pair(0, k, NI, CTX).r_tm

    def test_dissipationless_rejected(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=0.0, mu0=110.0,
                          v_t=NI.v_t, v_l=NI.v_l, variant="nonlocal")
        with pytest.raises(ValueError, match="plasma"):
            refl_pair(0, 1e6, m, CTX)

    def test_dissipationless_rejected_at_zero_wavevector(self):
        # the B = 0 limit at k = 0 does not bypass the gamma check
        m = MaterialModel(omega_p=NI.omega_p, gamma=0.0, mu0=110.0,
                          variant="nonlocal")
        with pytest.raises(ValueError, match="plasma"):
            refl_pair(0, 0.0, m, CTX)


class TestStaticLocalCoefficients:
    def test_dissipative_te(self):
        r = refl_pair(0, 2e6, nickel("drude"), CTX)
        assert r.r_tm == 1.0
        assert r.r_te == pytest.approx(109.0 / 111.0, rel=1e-15)

    def test_dissipationless_te_large_wavevector(self):
        m = MaterialModel(omega_p=NI.omega_p, gamma=0.0, mu0=1.0,
                          variant="plasma")
        assert refl_pair(0, 1e12, m, CTX).r_te == pytest.approx(
            0.0, abs=1e-6)

    def test_dissipationless_te_normal_incidence(self):
        assert refl_pair(0, 0.0, nickel("plasma"), CTX).r_te == -1.0


def test_static_continuity_of_closed_form():
    """The l = 1 coefficients converge to the static ones as T -> 0.

    The permeability is pinned to its static value through the override so
    that the limit is taken at fixed mu.
    """
    k = 1e6
    static = refl_pair(0, k, NI, CTX)
    devs = []
    for temp in (1e-1, 1e-3):
        ctx = MatsubaraContext(temperature=temp)
        r = refl_pair(1, k, NI, ctx, mu_l=110.0)
        devs.append(max(abs(r.r_tm - static.r_tm),
                        abs(r.r_te - static.r_te)))
    assert devs[1] < devs[0]
    assert devs[1] < 1e-4


@pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
def test_boundedness_on_dense_grid(variant):
    m = nickel(variant)
    for l in (0, 1, 2, 5, 10, 50, 200):
        for k in (0.0, 1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 1e8, 1e9):
            if l == 0 and k == 0.0 and variant == "plasma":
                pass  # r_te = -1 exactly, still bounded
            r = refl_pair(l, k, m, CTX)
            assert abs(r.r_tm) <= 1.0, (variant, l, k)
            assert abs(r.r_te) <= 1.0, (variant, l, k)
