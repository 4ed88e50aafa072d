"""Permittivities, reflection coefficients and the pressure-integrand kernel.

The one Python implementation of the physics on the imaginary frequency
axis.  The NumPy kernel is ``free_electron_eps`` (the permittivity pair),
``static_coefficients`` (exact l = 0 limits per variant, since the
permittivities are singular at xi = 0), ``matsubara_coefficients``
(l >= 1) and ``lifshitz_summand`` built from them.  These take raw
parameters, broadcast over arrays or Python floats, and check nothing;
``casimag.backend`` falls back to ``lifshitz_summand`` when its compiled
twin in ``_kernel.pyx`` (same variant codes, same formulas) is missing.
The scalar API (``eps_*``, ``refl_*``) validates its inputs and computes
through the kernel.  On the imaginary axis every coefficient is real with
|r| <= 1.

Variant codes: 0 = dissipative local, 1 = dissipationless local,
2 = wavevector-dependent, 3 = fixed reflection coefficients (test hook).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .response import DRUDE, NONLOCAL, PLASMA, MaterialModel, \
    MatsubaraContext, _check_xi, eps_core_at, matsubara_xi, mu_at

VARIANT_DRUDE = 0
VARIANT_PLASMA = 1
VARIANT_NONLOCAL = 2
VARIANT_FIXED = 3

VARIANT_CODE = {
    DRUDE: VARIANT_DRUDE,
    PLASMA: VARIANT_PLASMA,
    NONLOCAL: VARIANT_NONLOCAL,
}


def free_electron_eps(xi, k, variant, omega_p, gamma, v_t, v_l, core):
    """(eps_tr, eps_l) of the conduction electrons at (i xi, k), xi > 0.

    Dissipative: core + wp^2/(xi(xi+gamma)) for both; dissipationless:
    core + wp^2/xi^2 for both; wavevector-dependent:
    core + W (1 + v_t k/xi) and core + W/(1 + v_l k/xi) with
    W = wp^2/(xi(xi+gamma)).  ``core`` replaces the leading unity.
    """
    if variant == VARIANT_NONLOCAL:
        w = omega_p * omega_p / (xi * (xi + gamma))
        return (core + w * (1.0 + v_t * k / xi),
                core + w / (1.0 + v_l * k / xi))
    if variant == VARIANT_DRUDE:
        w = omega_p * omega_p / (xi * (xi + gamma))
    else:
        w = omega_p * omega_p / (xi * xi)
    eps = core + w
    return eps, eps


def static_coefficients(k, variant, omega_p, gamma, mu, v_t, v_l, c):
    """(r_TM, r_TE) of the static term at wavevector k > 0.

    Dissipative: r_TM = 1, r_TE = (mu - 1)/(mu + 1).  Dissipationless:
    r_TM = 1, r_TE = (mu k - sqrt(k^2 + mu wp^2/c^2))
    / (mu k + sqrt(k^2 + mu wp^2/c^2)).  Wavevector-dependent:
    r_TM = wp^2/(2 v_l gamma k + wp^2),
    r_TE = (mu sqrt(k) - sqrt(k + B))/(mu sqrt(k) + sqrt(k + B)) with
    B = mu wp^2 v_t/(gamma c^2).  Only r_TE feels the permeability.
    """
    if variant == VARIANT_DRUDE:
        return 1.0, (mu - 1.0) / (mu + 1.0)
    if variant == VARIANT_PLASMA:
        root = np.sqrt(k * k + mu * (omega_p / c) ** 2)
        return 1.0, (mu * k - root) / (mu * k + root)
    wp2 = omega_p * omega_p
    b = mu * wp2 * v_t / (gamma * c * c)
    sk = np.sqrt(k)
    skb = np.sqrt(k + b)
    return (wp2 / (2.0 * v_l * gamma * k + wp2),
            (mu * sk - skb) / (mu * sk + skb))


def matsubara_coefficients(q, k, xi_c2, mu, eps_tr, eps_l):
    """(r_TM, r_TE) at l >= 1 for a k-only response.

    With xi_c2 = xi^2/c^2, q = sqrt(k^2 + xi_c2) and
    k_mu = sqrt(k^2 + mu eps_tr xi_c2):

    r_TM = (q eps_tr - k_mu - k (eps_tr - eps_l)/eps_l)
         / (q eps_tr + k_mu + k (eps_tr - eps_l)/eps_l),
    r_TE = (q mu - k_mu) / (q mu + k_mu).

    For a local variant (eps_tr = eps_l) this is the Fresnel form.
    """
    k_mu = np.sqrt(k * k + mu * eps_tr * xi_c2)
    cross = k * (eps_tr - eps_l) / eps_l
    return ((q * eps_tr - k_mu - cross) / (q * eps_tr + k_mu + cross),
            (q * mu - k_mu) / (q * mu + k_mu))


def lifshitz_summand(y, xi, a, c, variant, omega_p, gamma, mu,
                     v_t, v_l, eps_core, r_tm_fixed, r_te_fixed):
    """Integrand factor y^2 sum_pol x/(1-x), x = r^2 exp(-y), at y = 2 a q_l.

    ``y`` is an array of quadrature nodes (all > 0); ``xi`` is the
    Matsubara frequency (0.0 selects the static-term coefficients); ``mu``
    is the permeability at this l.  Returns an array of the same shape.
    """
    y = np.asarray(y, dtype=float)
    q = y / (2.0 * a)
    if variant == VARIANT_FIXED:
        r_tm, r_te = r_tm_fixed, r_te_fixed
    elif xi == 0.0:
        r_tm, r_te = static_coefficients(q, variant, omega_p, gamma, mu,
                                         v_t, v_l, c)
    else:
        xi_c2 = (xi / c) ** 2
        k = np.sqrt(np.maximum(q * q - xi_c2, 0.0))
        eps_tr, eps_l = free_electron_eps(xi, k, variant, omega_p, gamma,
                                          v_t, v_l, eps_core)
        r_tm, r_te = matsubara_coefficients(q, k, xi_c2, mu, eps_tr, eps_l)

    damp = np.exp(-y)
    x_tm = r_tm * r_tm * damp
    x_te = r_te * r_te * damp
    return y * y * (x_tm / (1.0 - x_tm) + x_te / (1.0 - x_te))


def _check_k(k_perp: float) -> None:
    if k_perp < 0.0:
        raise ValueError("k_perp must be >= 0")


def _eps(xi: float, k_perp: float, variant: int, m: MaterialModel,
         core: float) -> tuple[float, float]:
    return free_electron_eps(xi, k_perp, variant, m.omega_p, m.gamma,
                             m.v_t, m.v_l, core)


def eps_drude(xi: float, m: MaterialModel, core: float = 1.0) -> float:
    """Dissipative free-electron permittivity core + wp^2/(xi(xi+gamma))."""
    _check_xi(xi)
    return _eps(xi, 0.0, VARIANT_DRUDE, m, core)[0]


def eps_plasma(xi: float, m: MaterialModel, core: float = 1.0) -> float:
    """Dissipationless free-electron permittivity core + wp^2/xi^2."""
    _check_xi(xi)
    return _eps(xi, 0.0, VARIANT_PLASMA, m, core)[0]


def eps_transverse_nl(xi: float, k_perp: float, m: MaterialModel,
                      core: float = 1.0) -> float:
    """Transverse permittivity with wavevector dependence.

    core + [wp^2/(xi(xi+gamma))] * (1 + v_t k_perp / xi).  Reduces to the
    dissipative local form at k_perp = 0 and always lies at or above it.
    """
    _check_xi(xi)
    _check_k(k_perp)
    return _eps(xi, k_perp, VARIANT_NONLOCAL, m, core)[0]


def eps_longitudinal_nl(xi: float, k_perp: float, m: MaterialModel,
                        core: float = 1.0) -> float:
    """Longitudinal permittivity with wavevector dependence.

    core + [wp^2/(xi(xi+gamma))] / (1 + v_l k_perp / xi).  Reduces to the
    dissipative local form at k_perp = 0 and is screened toward ``core``
    for large v_l * k_perp / xi.
    """
    _check_xi(xi)
    _check_k(k_perp)
    return _eps(xi, k_perp, VARIANT_NONLOCAL, m, core)[1]


def eps_pair(xi: float, k_perp: float, m: MaterialModel,
             core: float = 1.0) -> tuple[float, float]:
    """(transverse, longitudinal) permittivity of ``m`` at (i xi, k_perp)."""
    _check_xi(xi)
    if m.variant == NONLOCAL:
        _check_k(k_perp)
    return _eps(xi, k_perp, VARIANT_CODE[m.variant], m, core)


@dataclass(frozen=True)
class ReflectionPair:
    """TM and TE reflection coefficients at one (l, k_perp) point."""

    r_tm: float
    r_te: float
    l: int
    k_perp: float


def refl_nonlocal_closed(l: int, k_perp: float, m: MaterialModel,
                         ctx: MatsubaraContext,
                         mu_l: float | None = None) -> ReflectionPair:
    """Closed-form coefficients for a k_perp-only response at l >= 1 (see
    ``matsubara_coefficients``); ``mu_l`` overrides the permeability."""
    if l < 1:
        raise ValueError("closed-form route requires l >= 1; use "
                         "refl_zero_freq / refl_zero_freq_local at l = 0")
    _check_k(k_perp)
    xi = matsubara_xi(l, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    eps_tr, eps_l = eps_pair(xi, k_perp, m, eps_core_at(xi, m))
    xi_c2 = (xi / C_LIGHT) ** 2
    r_tm, r_te = matsubara_coefficients(math.sqrt(k_perp**2 + xi_c2), k_perp,
                                        xi_c2, mu, eps_tr, eps_l)
    return ReflectionPair(r_tm=float(r_tm), r_te=float(r_te), l=l,
                          k_perp=k_perp)


def _static_pair(k_perp: float, variant: int,
                 m: MaterialModel) -> ReflectionPair:
    r_tm, r_te = static_coefficients(k_perp, variant, m.omega_p, m.gamma,
                                     m.mu0, m.v_t, m.v_l, C_LIGHT)
    return ReflectionPair(r_tm=float(r_tm), r_te=float(r_te), l=0,
                          k_perp=k_perp)


def refl_zero_freq(k_perp: float, m: MaterialModel,
                   ctx: MatsubaraContext) -> ReflectionPair:
    """Static-term coefficients of the wavevector-dependent response (see
    ``static_coefficients``).

    Requires gamma > 0 (for a dissipationless model use the plasma
    variant).  At k_perp = 0 the TE limit is returned: -1 for B > 0.
    """
    if m.variant != NONLOCAL:
        raise ValueError("refl_zero_freq applies to the nonlocal variant; "
                         "use refl_zero_freq_local for local models")
    if m.gamma <= 0.0:
        raise ValueError("static nonlocal coefficients are singular at "
                         "gamma = 0; use the plasma variant instead")
    _check_k(k_perp)
    if k_perp == 0.0 and m.v_t == 0.0:
        # B = 0 makes the square-root form 0/0; its k -> 0 limit is the
        # dissipative local pair
        return _static_pair(k_perp, VARIANT_DRUDE, m)
    return _static_pair(k_perp, VARIANT_NONLOCAL, m)


def refl_zero_freq_local(k_perp: float, m: MaterialModel,
                         ctx: MatsubaraContext) -> ReflectionPair:
    """Static-term coefficients of the local variants (see
    ``static_coefficients``): xi^2 eps -> 0 (drude) or wp^2 (plasma)."""
    _check_k(k_perp)
    if m.variant == NONLOCAL:
        raise ValueError("refl_zero_freq_local applies to local variants; "
                         "use refl_zero_freq for the nonlocal model")
    return _static_pair(k_perp, VARIANT_CODE[m.variant], m)


def refl_static(k_perp: float, m: MaterialModel,
                ctx: MatsubaraContext) -> ReflectionPair:
    """Static coefficients dispatched on the model variant."""
    if m.variant == NONLOCAL:
        return refl_zero_freq(k_perp, m, ctx)
    return refl_zero_freq_local(k_perp, m, ctx)


def refl_fresnel(l: int, k_perp: float, eps_l: float, mu_l: float,
                 ctx: MatsubaraContext) -> ReflectionPair:
    """Fresnel coefficients of a local medium (an independent oracle for
    ``matsubara_coefficients``):

    r_TM = (q eps - k_mu)/(q eps + k_mu),
    r_TE = (q mu - k_mu)/(q mu + k_mu),
    k_mu = sqrt(k_perp^2 + mu eps xi^2/c^2).
    """
    if l < 1:
        raise ValueError("Fresnel route requires l >= 1")
    if eps_l < 1.0 or mu_l < 1.0:
        raise ValueError("eps_l and mu_l must be >= 1 on the imaginary axis")
    xi = matsubara_xi(l, ctx)
    xi_c2 = (xi / C_LIGHT) ** 2
    q = math.sqrt(k_perp**2 + xi_c2)
    k_mu = math.sqrt(k_perp**2 + mu_l * eps_l * xi_c2)
    r_tm = (q * eps_l - k_mu) / (q * eps_l + k_mu)
    r_te = (q * mu_l - k_mu) / (q * mu_l + k_mu)
    return ReflectionPair(r_tm=r_tm, r_te=r_te, l=l, k_perp=k_perp)


def refl_pair(l: int, k_perp: float, m: MaterialModel,
              ctx: MatsubaraContext) -> ReflectionPair:
    """Reflection coefficients at any l >= 0, dispatching the static term."""
    if l == 0:
        return refl_static(k_perp, m, ctx)
    return refl_nonlocal_closed(l, k_perp, m, ctx)
