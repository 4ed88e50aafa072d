"""Surface impedances of a magnetic metal halfspace at Matsubara frequencies.

Two routes are provided for the TE and TM impedances at (i xi_l, k_perp):

* a numerical integral over the normal wavevector component k_z, valid for
  a response depending on the full wavevector (the generic route), and
* closed forms, exact whenever the permittivities depend on k_perp only,
  which holds for every variant implemented here.

The two routes agreeing to <= 1e-8 relative is the correctness check that
stands in for the underlying boundary-value derivation.

For xi_l > 0 and eps >= 1, mu >= 1 both impedances are real and positive;
the k_z integrands have strictly positive denominators, so no pole handling
is required on the imaginary frequency axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT
from .quadrature import QuadratureError
from .reflection import ReflectionPair, eps_pair
from .response import MaterialModel, MatsubaraContext, eps_core_at, \
    matsubara_xi, mu_at

KZ_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ImpedancePair:
    """TE and TM surface impedances at one (l, k_perp) point."""

    z_tm: float
    z_te: float
    l: int
    k_perp: float


def _check_positive_args(l: int, k_perp: float) -> None:
    if l < 1:
        raise ValueError("impedances are defined for l >= 1 (xi_l > 0); "
                         "the static term enters through the reflection layer")
    if k_perp < 0.0:
        raise ValueError("k_perp must be >= 0")


def _model_eps(l: int, k_perp: float, m: MaterialModel,
               ctx: MatsubaraContext) -> tuple[float, float, float]:
    """(xi_l, eps_tr, eps_l) with the interband core applied for l >= 1."""
    xi = matsubara_xi(l, ctx)
    core = eps_core_at(xi, m)
    eps_tr, eps_l = eps_pair(xi, k_perp, m, core)
    return xi, eps_tr, eps_l


def _tan_sub_quad(f, scale: float) -> float:
    """Integrate f over [0, inf) via k_z = scale*tan(theta).

    The substitution makes the 1/k_z^2 tails of the impedance integrands
    exactly resolvable on the finite interval [0, pi/2].  Callers pass
    scale = max(k_perp, xi/c): the integrands vary on the k_z scale
    sqrt(k_perp^2 + mu eps xi^2/c^2), and a scale set by k_perp alone
    crowds them into theta ~ pi/2 when k_perp << xi/c.
    """
    from scipy.integrate import quad  # deferred: no CLI path needs scipy

    def g(theta):
        t = math.tan(theta)
        kz = scale * t
        return f(kz) * scale * (1.0 + t * t)

    res = quad(g, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=KZ_QUAD_TOL,
               limit=200, full_output=1)
    val, err = res[0], res[1]
    if len(res) > 3:
        raise QuadratureError("k_z impedance integral did not converge", err)
    return val


def z_te_integral(l: int, k_perp: float, m: MaterialModel,
                  ctx: MatsubaraContext, mu_l: float | None = None) -> float:
    """TE impedance by numerical k_z integration.

    Z_TE = (c xi mu / pi) Int dk_z / (mu eps_tr xi^2 + c^2 (k_perp^2+k_z^2)),
    the integral running over the whole real k_z axis (computed as twice
    the half-axis integral by evenness).
    """
    _check_positive_args(l, k_perp)
    xi, eps_tr, _ = _model_eps(l, k_perp, m, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    c = C_LIGHT

    def f(kz):
        den = mu * eps_tr * xi * xi + c * c * (k_perp * k_perp + kz * kz)
        if den <= 0.0:
            raise ValueError("nonpositive TE denominator: unphysical eps/mu")
        return 1.0 / den

    scale = max(k_perp, xi / c)
    return (c * xi * mu / math.pi) * 2.0 * _tan_sub_quad(f, scale)


def z_tm_integral(l: int, k_perp: float, m: MaterialModel,
                  ctx: MatsubaraContext, mu_l: float | None = None) -> float:
    """TM impedance by numerical k_z integration.

    Z_TM = (c xi mu / pi) Int dk_z/k^2 [ k_perp^2/(mu xi^2 eps_l)
           + k_z^2/(mu xi^2 eps_tr + c^2 k^2) ],  k^2 = k_perp^2 + k_z^2.
    """
    _check_positive_args(l, k_perp)
    xi, eps_tr, eps_l = _model_eps(l, k_perp, m, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    c = C_LIGHT

    def f(kz):
        ksq = k_perp * k_perp + kz * kz
        den_tr = mu * xi * xi * eps_tr + c * c * ksq
        if den_tr <= 0.0 or eps_l <= 0.0:
            raise ValueError("nonpositive TM denominator: unphysical eps/mu")
        return (k_perp * k_perp / (mu * xi * xi * eps_l)
                + kz * kz / den_tr) / ksq

    scale = max(k_perp, xi / c)
    return (c * xi * mu / math.pi) * 2.0 * _tan_sub_quad(f, scale)


def z_te_closed(l: int, k_perp: float, m: MaterialModel,
                ctx: MatsubaraContext, mu_l: float | None = None) -> float:
    """Closed-form TE impedance, exact for k_perp-only response:

    Z_TE = xi mu / sqrt(c^2 k_perp^2 + mu eps_tr xi^2).
    """
    _check_positive_args(l, k_perp)
    xi, eps_tr, _ = _model_eps(l, k_perp, m, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    return xi * mu / math.sqrt((C_LIGHT * k_perp) ** 2
                               + mu * eps_tr * xi * xi)


def z_tm_closed(l: int, k_perp: float, m: MaterialModel,
                ctx: MatsubaraContext, mu_l: float | None = None) -> float:
    """Closed-form TM impedance, exact for k_perp-only response:

    Z_TM = (1/xi) [ c k_perp/eps_l
                    + (sqrt(c^2 k_perp^2 + mu eps_tr xi^2) - c k_perp)/eps_tr ].
    """
    _check_positive_args(l, k_perp)
    xi, eps_tr, eps_l = _model_eps(l, k_perp, m, ctx)
    mu = mu_at(l, m) if mu_l is None else mu_l
    ck = C_LIGHT * k_perp
    root = math.sqrt(ck * ck + mu * eps_tr * xi * xi)
    return (ck / eps_l + (root - ck) / eps_tr) / xi


def z_local(l: int, k_perp: float, eps_l: float, mu_l: float,
            ctx: MatsubaraContext) -> ImpedancePair:
    """Impedances of a local medium with scalar permittivity eps_l:

    Z_TE = xi mu / sqrt(c^2 k_perp^2 + mu eps xi^2),
    Z_TM = sqrt(c^2 k_perp^2 + mu eps xi^2) / (xi eps).
    """
    _check_positive_args(l, k_perp)
    if eps_l < 1.0:
        raise ValueError("eps_l must be >= 1 on the imaginary axis")
    xi = matsubara_xi(l, ctx)
    root = math.sqrt((C_LIGHT * k_perp) ** 2 + mu_l * eps_l * xi * xi)
    return ImpedancePair(z_tm=root / (xi * eps_l), z_te=xi * mu_l / root,
                         l=l, k_perp=k_perp)


def impedance_pair(l: int, k_perp: float, m: MaterialModel,
                   ctx: MatsubaraContext, mu_l: float | None = None,
                   method: str = "closed") -> ImpedancePair:
    """Both impedances at (l, k_perp) by the chosen route."""
    if method == "closed":
        z_tm = z_tm_closed(l, k_perp, m, ctx, mu_l)
        z_te = z_te_closed(l, k_perp, m, ctx, mu_l)
    elif method == "integral":
        z_tm = z_tm_integral(l, k_perp, m, ctx, mu_l)
        z_te = z_te_integral(l, k_perp, m, ctx, mu_l)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ImpedancePair(z_tm=z_tm, z_te=z_te, l=l, k_perp=k_perp)


def refl_from_impedance(z: ImpedancePair, l: int, k_perp: float,
                        ctx: MatsubaraContext) -> ReflectionPair:
    """Reflection coefficients from surface impedances:

    r_TM = (c q - xi Z_TM)/(c q + xi Z_TM),
    r_TE = (c q Z_TE - xi)/(c q Z_TE + xi),   q = sqrt(k_perp^2 + xi^2/c^2).
    """
    if l < 1:
        raise ValueError("impedance route requires l >= 1")
    xi = matsubara_xi(l, ctx)
    cq = C_LIGHT * math.sqrt(k_perp**2 + (xi / C_LIGHT) ** 2)
    r_tm = (cq - xi * z.z_tm) / (cq + xi * z.z_tm)
    r_te = (cq * z.z_te - xi) / (cq * z.z_te + xi)
    return ReflectionPair(r_tm=r_tm, r_te=r_te, l=l, k_perp=k_perp)


def refl_via_impedance(l: int, k_perp: float, m: MaterialModel,
                       ctx: MatsubaraContext,
                       mu_l: float | None = None) -> ReflectionPair:
    """Coefficients through the closed-form impedances (algebraically
    identical to refl_nonlocal_closed; kept as an independent code path)."""
    z = ImpedancePair(z_tm=z_tm_closed(l, k_perp, m, ctx, mu_l),
                      z_te=z_te_closed(l, k_perp, m, ctx, mu_l),
                      l=l, k_perp=k_perp)
    return refl_from_impedance(z, l, k_perp, ctx)
