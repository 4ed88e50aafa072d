"""Surface impedances of a magnetic metal halfspace at Matsubara frequencies.

Two routes give the TM and TE impedances at (i xi_l, k_perp), each as one
``ImpedancePair``:

* ``impedance_integral``, a numerical integral over the normal wavevector
  component k_z, valid for a response depending on the full wavevector
  (the generic route), on the package's one quadrature driver
  ``quadrature.adaptive_quad``, and
* ``impedance_pair``, the closed forms, exact whenever the permittivities
  depend on k_perp only, which holds for every variant implemented here.

The two routes agreeing to <= 1e-8 relative is the correctness check that
stands in for the underlying boundary-value derivation.  Both take the
permittivities from ``reflection.eps_pair``.  ``refl_from_impedance``
turns impedances into reflection coefficients; on ``impedance_pair`` it
is an independent oracle for ``reflection.refl_pair`` at l >= 1.

For xi_l > 0 and eps >= 1, mu >= 1 both impedances are real and positive;
the k_z integrands have strictly positive denominators, so no pole handling
is required on the imaginary frequency axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .quadrature import adaptive_quad
from .reflection import ReflectionPair, _check_k, _permeability, eps_pair
from .response import MaterialModel, MatsubaraContext, matsubara_xi

KZ_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ImpedancePair:
    """TE and TM surface impedances at one (l, k_perp) point."""

    z_tm: float
    z_te: float


def _model_eps(l: int, k_perp: float, m: MaterialModel,
               ctx: MatsubaraContext, mu_l: float | None
               ) -> tuple[float, float, float, float]:
    """Validated (xi_l, mu, eps_tr, eps_l), with ``mu_l`` overriding the
    permeability 1."""
    if l < 1:
        raise ValueError("impedances are defined for l >= 1 (xi_l > 0); "
                         "the static term enters through the reflection layer")
    xi = matsubara_xi(l, ctx)
    return (xi, _permeability(l, m, mu_l)) + eps_pair(xi, k_perp, m)


def impedance_integral(l: int, k_perp: float, m: MaterialModel,
                       ctx: MatsubaraContext,
                       mu_l: float | None = None) -> ImpedancePair:
    """Both impedances at (l, k_perp) by numerical k_z integration:

    Z_TE = (c xi mu / pi) Int dk_z / D,
    Z_TM = (c xi mu / pi) Int dk_z/k^2 [ k_perp^2/(mu xi^2 eps_l)
           + k_z^2/D ],
    D = mu eps_tr xi^2 + c^2 k^2,  k^2 = k_perp^2 + k_z^2,

    each integral running over the whole real k_z axis (computed as twice
    the half-axis integral by evenness), as the two components of one
    ``adaptive_quad`` to KZ_QUAD_TOL relative over theta in [0, pi/2],
    k_z = scale tan(theta).  The substitution resolves the 1/k_z^2 tails
    exactly; scale = max(k_perp, xi/c), as the integrands vary on the k_z
    scale sqrt(k_perp^2 + mu eps xi^2/c^2), which k_perp alone crowds into
    theta ~ pi/2 when k_perp << xi/c.  The independent check of
    ``impedance_pair``.
    """
    xi, mu, eps_tr, eps_l = _model_eps(l, k_perp, m, ctx, mu_l)
    c = C_LIGHT
    kp2 = k_perp * k_perp
    bulk = mu * eps_tr * xi * xi
    scale = max(k_perp, xi / c)

    def integrands(theta):
        t = np.tan(theta)
        kz2 = (scale * t) ** 2
        ksq = kp2 + kz2
        te = 1.0 / (bulk + c * c * ksq)
        tm = (kp2 / (mu * xi * xi * eps_l) + kz2 * te) / ksq
        return np.stack((tm, te)) * (scale * (1.0 + t * t))

    z_tm, z_te = adaptive_quad(integrands, 0.0, 0.5 * math.pi,
                               rel_tol=KZ_QUAD_TOL).value
    factor = (c * xi * mu / math.pi) * 2.0
    return ImpedancePair(z_tm=factor * float(z_tm),
                         z_te=factor * float(z_te))


def impedance_pair(l: int, k_perp: float, m: MaterialModel,
                   ctx: MatsubaraContext,
                   mu_l: float | None = None) -> ImpedancePair:
    """Both impedances at (l, k_perp) in closed form, exact for a
    k_perp-only response:

    Z_TE = xi mu / R,
    Z_TM = (1/xi) [ c k_perp/eps_l + (R - c k_perp)/eps_tr ],
    R = sqrt(c^2 k_perp^2 + mu eps_tr xi^2).
    """
    xi, mu, eps_tr, eps_l = _model_eps(l, k_perp, m, ctx, mu_l)
    ck = C_LIGHT * k_perp
    root = math.sqrt(ck * ck + mu * eps_tr * xi * xi)
    return ImpedancePair(z_tm=(ck / eps_l + (root - ck) / eps_tr) / xi,
                         z_te=xi * mu / root)


def refl_from_impedance(z: ImpedancePair, l: int, k_perp: float,
                        ctx: MatsubaraContext) -> ReflectionPair:
    """Reflection coefficients from surface impedances Z_TM and Z_TE,
    which must be finite and >= 0, as on the imaginary axis (Z = 0 is the
    ideal metal):

    r_TM = (c q - xi Z_TM)/(c q + xi Z_TM),
    r_TE = (c q Z_TE - xi)/(c q Z_TE + xi),   q = sqrt(k_perp^2 + xi^2/c^2).
    """
    if l < 1:
        raise ValueError("impedance route requires l >= 1")
    _check_k(k_perp)
    if not (0.0 <= z.z_tm < math.inf and 0.0 <= z.z_te < math.inf):
        raise ValueError("z_tm and z_te must be finite and >= 0 on the "
                         "imaginary axis")
    xi = matsubara_xi(l, ctx)
    cq = C_LIGHT * math.sqrt(k_perp**2 + (xi / C_LIGHT) ** 2)
    r_tm = (cq - xi * z.z_tm) / (cq + xi * z.z_tm)
    r_te = (cq * z.z_te - xi) / (cq * z.z_te + xi)
    return ReflectionPair(r_tm=r_tm, r_te=r_te)
