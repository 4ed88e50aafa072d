"""Permittivities, reflection coefficients and the pressure-integrand kernel.

The one Python implementation of the physics on the imaginary frequency
axis.  The NumPy kernel is ``free_electron_eps`` (the permittivity pair),
``static_coefficients`` (exact l = 0 limits per variant, since the
permittivities are singular at xi = 0), ``matsubara_coefficients``
(l >= 1) and ``lifshitz_summand`` built from them.  The kernel reads the
MaterialModel, broadcasts over arrays or Python floats, and checks
nothing; ``lifshitz_summand`` is the one integrand of the pressure
quadrature.  The scalar API validates its inputs and computes through the
kernel: ``eps_pair`` is the permittivity pair and ``refl_pair`` the
coefficients at any Matsubara index.  ``FixedReflection`` stands in for a
material model with constant coefficients.  On the imaginary axis every
coefficient is real with |r| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .response import DRUDE, PLASMA, MaterialModel, \
    MatsubaraContext, _check_xi, eps_core_at, matsubara_xi, mu_at


@dataclass(frozen=True)
class FixedReflection:
    """Test hook: constant reflection coefficients for every (l, k_perp).

    FixedReflection(1.0, -1.0) is the ideal metal; FixedReflection(0, 0)
    is an empty interface with zero pressure.  |r| > 1 and NaN are
    rejected.  A pressure loop runs a FixedReflection alone.
    """

    r_tm: float
    r_te: float

    def __post_init__(self):
        for name in ("r_tm", "r_te"):
            if not abs(getattr(self, name)) <= 1.0:
                raise ValueError(f"|{name}| must not exceed 1")


def free_electron_eps(xi, k, m, core):
    """(eps_tr, eps_l) of the conduction electrons of ``m`` at (i xi, k).

    core + W (1 + v_t k/xi) and core + W/(1 + v_l k/xi) with
    W = wp^2/(xi(xi+gamma)), on the model's effective (gamma, v_t, v_l):
    drude has zero velocities, plasma zero gamma too.  ``core`` replaces
    the leading unity.  With v_t = v_l = 0 the pair is local and one
    object is returned twice (``eps_tr is eps_l``); the shortcut is exact.
    Velocity arrays (one entry per component) take the general formula,
    which gives the same bits for a component with zero velocities.
    """
    gamma, v_t, v_l = m.effective
    w = m.omega_p * m.omega_p / (xi * (xi + gamma))
    if not isinstance(v_t, np.ndarray) and v_t == 0.0 and v_l == 0.0:
        eps = core + w
        return eps, eps
    # scalar factors first, so an array k costs two and four passes
    return (core + w) + (w * v_t / xi) * k, core + w / (1.0 + (v_l / xi) * k)


def static_coefficients(k, m, mu):
    """(r_TM, r_TE) of the static term of ``m`` at wavevector k > 0.

    Dissipative: r_TM = 1, r_TE = (mu - 1)/(mu + 1).  Dissipationless:
    r_TM = 1, r_TE = (mu k - sqrt(k^2 + mu wp^2/c^2))
    / (mu k + sqrt(k^2 + mu wp^2/c^2)).  Wavevector-dependent:
    r_TM = wp^2/(2 v_l gamma k + wp^2),
    r_TE = (mu sqrt(k) - sqrt(k + B))/(mu sqrt(k) + sqrt(k + B)) with
    B = mu wp^2 v_t/(gamma c^2), which is the dissipative (mu - 1)/(mu + 1)
    at B = 0.  Only r_TE feels the permeability.  The wavevector-dependent
    pair requires gamma > 0.
    """
    if m.variant == DRUDE:
        return 1.0, (mu - 1.0) / (mu + 1.0)
    if m.variant == PLASMA:
        root = np.sqrt(k * k + mu * (m.omega_p / C_LIGHT) ** 2)
        return 1.0, (mu * k - root) / (mu * k + root)
    if m.gamma <= 0.0:
        raise ValueError("static nonlocal coefficients are singular at "
                         "gamma = 0; use the plasma variant instead")
    wp2 = m.omega_p * m.omega_p
    r_tm = wp2 / (2.0 * m.v_l * m.gamma * k + wp2)
    b = mu * wp2 * m.v_t / (m.gamma * C_LIGHT * C_LIGHT)
    if b == 0.0:  # the square-root form is 0/0 at k = 0
        return r_tm, (mu - 1.0) / (mu + 1.0)
    sk = np.sqrt(k)
    skb = np.sqrt(k + b)
    return r_tm, (mu * sk - skb) / (mu * sk + skb)


def matsubara_coefficients(q, k, k2, xi_c2, mu, eps_tr, eps_l):
    """(r_TM, r_TE) at l >= 1 for a k-only response.

    With xi_c2 = xi^2/c^2, q = sqrt(k^2 + xi_c2), k2 = k^2 and
    k_mu = sqrt(k^2 + mu eps_tr xi_c2):

    r_TM = (q eps_tr - k_mu - k (eps_tr - eps_l)/eps_l)
         / (q eps_tr + k_mu + k (eps_tr - eps_l)/eps_l),
    r_TE = (q mu - k_mu) / (q mu + k_mu).

    For a local variant (``eps_tr is eps_l``) the cross term is zero and
    skipped: this is the Fresnel form.  The arrays are updated in place
    where the operands allow, which keeps fewer temporaries alive and gives
    the same bits, since IEEE addition and multiplication commute.
    """
    k_mu = np.sqrt(k2 + (mu * xi_c2) * eps_tr)
    if eps_tr is not eps_l:
        cross = eps_tr - eps_l
        cross *= k
        cross /= eps_l
        cross += k_mu
    else:
        cross = k_mu
    sum_ = q * eps_tr
    r_tm = sum_ - cross
    sum_ += cross
    r_tm /= sum_
    sum_ = q * mu
    r_te = sum_ - k_mu
    sum_ += k_mu
    r_te /= sum_
    return r_tm, r_te


def _occupation(r, damp):
    """x/(1 - x) with x = r^2 damp."""
    x = r * r * damp
    x /= 1.0 - x
    return x


def lifshitz_summand(y, xi, a, model, mu, eps_core):
    """Integrand factor y^2 sum_pol x/(1-x), x = r^2 exp(-y), at y = 2 a q_l.

    ``y`` is an array of quadrature nodes (all > 0); ``xi`` is the
    Matsubara frequency (0.0 selects the static-term coefficients);
    ``model`` is a MaterialModel or a FixedReflection; ``mu`` and
    ``eps_core`` are the permeability and the interband core at this l.
    Above the static term, ``model`` may be anything with the ``omega_p``
    and ``effective`` that ``free_electron_eps`` reads, and those, ``mu``
    and ``eps_core`` may be arrays that broadcast like ``a``: one entry
    per component of a multi-model pressure loop.
    Returns an array of the broadcast shape of ``y`` and ``a``.
    """
    y = np.asarray(y, dtype=float)
    q = y / (2.0 * a)
    if isinstance(model, FixedReflection):
        r_tm, r_te = model.r_tm, model.r_te
    elif xi == 0.0:
        r_tm, r_te = static_coefficients(q, model, mu)
    else:
        xi_c2 = (xi / C_LIGHT) ** 2
        k2 = q * q
        k2 -= xi_c2
        np.maximum(k2, 0.0, out=k2)
        k = np.sqrt(k2)
        eps_tr, eps_l = free_electron_eps(xi, k, model, eps_core)
        r_tm, r_te = matsubara_coefficients(q, k, k2, xi_c2, mu, eps_tr,
                                            eps_l)
        del k2, k, eps_tr, eps_l  # fewer live temporaries below
    del q

    damp = np.negative(y)
    np.exp(damp, out=damp)
    out = _occupation(r_tm, damp)
    out += _occupation(r_te, damp)
    out *= y
    out *= y
    return out


def _check_k(k_perp: float) -> None:
    if k_perp < 0.0:
        raise ValueError("k_perp must be >= 0")


def eps_pair(xi: float, k_perp: float, m: MaterialModel,
             core: float = 1.0) -> tuple[float, float]:
    """(transverse, longitudinal) permittivity of ``m`` at (i xi, k_perp).

    See ``free_electron_eps``; zero velocities give equal entries.
    Requires xi > 0 and k_perp >= 0.
    """
    _check_xi(xi)
    _check_k(k_perp)
    return free_electron_eps(xi, k_perp, m, core)


@dataclass(frozen=True)
class ReflectionPair:
    """TM and TE reflection coefficients at one (l, k_perp) point."""

    r_tm: float
    r_te: float
    l: int
    k_perp: float


def refl_pair(l: int, k_perp: float, m: MaterialModel,
              ctx: MatsubaraContext,
              mu_l: float | None = None) -> ReflectionPair:
    """Reflection coefficients of ``m`` at any l >= 0.

    l = 0 uses the exact static limits (``static_coefficients``); l >= 1
    the closed forms (``matsubara_coefficients``) with the interband core.
    ``mu_l`` overrides the permeability ``mu_at(l, m)``.  The static
    nonlocal coefficients require gamma > 0 (for a dissipationless model
    use the plasma variant); at k_perp = 0 their TE limit is -1 for B > 0,
    and the dissipative local pair for v_t = 0.
    """
    _check_k(k_perp)
    xi = matsubara_xi(l, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    if l == 0:
        r_tm, r_te = static_coefficients(k_perp, m, mu)
    else:
        eps_tr, eps_l = free_electron_eps(xi, k_perp, m, eps_core_at(xi, m))
        xi_c2 = (xi / C_LIGHT) ** 2
        k2 = k_perp * k_perp
        r_tm, r_te = matsubara_coefficients(math.sqrt(k2 + xi_c2), k_perp,
                                            k2, xi_c2, mu, eps_tr, eps_l)
    return ReflectionPair(r_tm=float(r_tm), r_te=float(r_te), l=l,
                          k_perp=k_perp)


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
