"""Material models, the Matsubara context and the interband response.

A MaterialModel holds the free-electron parameters of one response
variant: dissipative, dissipationless, or wavevector-dependent through
characteristic velocities of the order of the Fermi velocity (its
permittivities are in ``reflection.py``).  The interband contribution is
reconstructed from tabulated absorption data by a Kramers-Kronig
transform, evaluated at purely imaginary frequencies ``omega = i*xi`` with
``xi > 0``.  The static (``xi = 0``) limit is handled analytically by the
reflection layer.

Every function in this module is pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN, PI, ev_to_rad_s
from .csvio import read_numeric_csv
from .quadrature import adaptive_quad

DRUDE = "drude"
PLASMA = "plasma"
NONLOCAL = "nonlocal"
VARIANTS = (DRUDE, PLASMA, NONLOCAL)

# Free-electron parameters of Ni: plasma frequency 4.89 eV, relaxation
# 0.0436 eV (room temperature), static permeability 110, Fermi velocity
# 1.31e6 m/s from a spherical Fermi surface.
NI_OMEGA_P_EV = 4.89
NI_GAMMA_EV = 0.0436
NI_MU0 = 110.0
NI_V_FERMI = 1.31e6


@dataclass(frozen=True)
class InterbandTable:
    """Tabulated imaginary part of the permittivity, Im eps(omega).

    ``omega`` is in rad/s, strictly increasing, at least two rows;
    ``im_eps`` is dimensionless and nonnegative; every value is finite.
    The table represents measured absorption of the real metal, including
    its free-electron part; the Drude background is subtracted downstream
    when the interband excess is formed.
    """

    omega: tuple[float, ...]
    im_eps: tuple[float, ...]

    def __post_init__(self):
        if len(self.omega) < 2:
            raise ValueError("interband table needs at least 2 rows")
        if len(self.omega) != len(self.im_eps):
            raise ValueError("interband table columns differ in length")
        if not all(map(math.isfinite, (*self.omega, *self.im_eps))):
            raise ValueError("interband table values must be finite")
        if any(w2 <= w1 for w1, w2 in zip(self.omega, self.omega[1:])):
            raise ValueError("interband table omega must be strictly increasing")
        if self.omega[0] <= 0.0:
            raise ValueError("interband table omega must be positive")
        if any(v < 0.0 for v in self.im_eps):
            raise ValueError("interband table im_eps must be nonnegative")

    @classmethod
    def from_rows_ev(cls, rows) -> "InterbandTable":
        """Build from (omega_ev, im_eps) pairs."""
        omega = tuple(ev_to_rad_s(float(w)) for w, _ in rows)
        im_eps = tuple(float(v) for _, v in rows)
        return cls(omega=omega, im_eps=im_eps)

    @classmethod
    def from_csv(cls, path) -> "InterbandTable":
        """Read a CSV file with header ``omega_ev,im_eps``.

        Lines starting with ``#`` are comments.  omega_ev must be strictly
        increasing.
        """
        return cls.from_rows_ev(read_numeric_csv(path, "omega_ev,im_eps"))


@dataclass(frozen=True)
class MaterialModel:
    """Free-electron material parameters and the chosen response variant.

    omega_p, gamma are angular frequencies in rad/s; mu0 is the static
    magnetic permeability; v_t, v_l are the transverse/longitudinal
    characteristic velocities in m/s of the wavevector-dependent response
    (ignored by the local variants).  ``interband`` optionally supplies
    measured absorption data from which the bound-electron core is
    reconstructed; it replaces the leading "1" of the free-electron
    permittivities at nonzero Matsubara frequencies.
    """

    omega_p: float
    gamma: float = 0.0
    mu0: float = 1.0
    v_t: float = 0.0
    v_l: float = 0.0
    interband: InterbandTable | None = None
    variant: str = DRUDE

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise ValueError("omega_p must be finite and > 0")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        if not 1.0 <= self.mu0 < math.inf:
            raise ValueError("mu0 must be finite and >= 1")
        for name in ("v_t", "v_l"):
            v = getattr(self, name)
            if not 0.0 <= v < C_LIGHT:
                raise ValueError(f"{name} must be in [0, c)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def nickel(variant: str = NONLOCAL, interband: InterbandTable | None = None,
           v_over_vf: float = 7.0) -> MaterialModel:
    """Ni at room temperature with v_t = v_l = v_over_vf * v_F."""
    v = v_over_vf * NI_V_FERMI
    return MaterialModel(
        omega_p=ev_to_rad_s(NI_OMEGA_P_EV),
        gamma=ev_to_rad_s(NI_GAMMA_EV),
        mu0=NI_MU0,
        v_t=v,
        v_l=v,
        interband=interband,
        variant=variant,
    )


@dataclass(frozen=True)
class MatsubaraContext:
    """Temperature and series policy for one run.

    ``temperature`` (K) is the one source of the temperature for every
    Matsubara frequency and pressure prefactor; ``l_max_cap`` optionally
    overrides the separation-derived cap on the number of Matsubara terms
    (None = derive it from the separation at evaluation time).
    """

    temperature: float
    l_max_cap: int | None = None

    def __post_init__(self):
        if not 0.0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and > 0")
        if self.l_max_cap is not None and self.l_max_cap < 10:
            raise ValueError("l_max_cap must be >= 10")


def matsubara_xi(l: int, ctx: MatsubaraContext) -> float:
    """Matsubara angular frequency xi_l = 2 pi k_B T l / hbar, in rad/s.

    Exactly 0 for l = 0 and exactly linear in both l and T.
    """
    if l < 0:
        raise ValueError("Matsubara index must be >= 0")
    return 2.0 * PI * K_BOLTZMANN * ctx.temperature * l / HBAR


def _check_xi(xi: float) -> None:
    if xi <= 0.0:
        raise ValueError("xi must be > 0 (the static term is handled "
                         "analytically by the reflection layer)")


def mu_at(l: int, m: MaterialModel) -> float:
    """Magnetic permeability at xi_l: mu0 in the static term, 1 otherwise.

    mu(i xi) of a ferromagnet decays to 1 far below the first Matsubara
    frequency, so magnetic properties enter only through l = 0.
    """
    if l < 0:
        raise ValueError("Matsubara index must be >= 0")
    return m.mu0 if l == 0 else 1.0


def drude_im_eps_raw(omega: float, omega_p: float, gamma: float) -> float:
    return omega_p**2 * gamma / (omega * (omega**2 + gamma**2))


def drude_im_eps(omega: float, m: MaterialModel) -> float:
    """Im eps of the dissipative free-electron response at real omega > 0.

    wp^2 gamma / (omega (omega^2 + gamma^2)); the background subtracted
    from tabulated absorption data to isolate the interband excess.
    """
    return drude_im_eps_raw(omega, m.omega_p, m.gamma)


def eps_core_kk(xi: float, table: InterbandTable, m: MaterialModel,
                quad_tol: float = 1e-9, tail_rel_tol: float = 1e-3) -> float:
    """Bound-electron core at imaginary frequency from absorption data.

    Forms the interband excess eps''_ib(w) = max(0, table(w) - Drude
    background), then evaluates

        eps_core(i xi) = 1 + (2/pi) Int_0^inf w eps''_ib(w) / (w^2 + xi^2) dw.

    Below the table range the excess is taken as 0 (the free-electron part
    is already subtracted); above it the excess is extrapolated as
    eps''_ib(w_max) (w_max/w)^3 and that tail is integrated in closed form.
    A table whose extrapolated tail would contribute more than
    ``tail_rel_tol`` of the integral is rejected as too narrow.

    The result replaces the leading "1" of the free-electron
    permittivities at the same xi.
    """
    _check_xi(xi)
    return _eps_core_cached(xi, table, m.omega_p, m.gamma,
                            quad_tol, tail_rel_tol)


@functools.lru_cache(maxsize=4096)
def _eps_core_cached(xi, table, omega_p, gamma, quad_tol, tail_rel_tol):
    omega = np.asarray(table.omega)
    im_eps = np.asarray(table.im_eps)

    def integrand_log(u):
        # log substitution w = e^u flattens the many-decade table range
        w = np.exp(np.asarray(u))
        drude = omega_p**2 * gamma / (w * (w * w + gamma * gamma))
        excess = np.maximum(0.0, np.interp(w, omega, im_eps) - drude)
        return w * w * excess / (w * w + xi * xi)

    w_lo, w_hi = float(omega[0]), float(omega[-1])
    decades = max(1, math.ceil(math.log10(w_hi / w_lo)))
    res = adaptive_quad(integrand_log, math.log(w_lo), math.log(w_hi),
                        rel_tol=quad_tol, initial_panels=8 * decades,
                        max_panels=20000)
    total = res.value

    # Closed-form tail of the (w_max/w)^3 extrapolation: substituting
    # t = w_max/w gives W Int_0^1 t^2/(1 + b^2 t^2) dt with b = xi/w_max.
    w_tail = max(0.0, float(im_eps[-1]) - drude_im_eps_raw(w_hi, omega_p, gamma))
    b = xi / w_hi
    if b < 1e-6:
        tail = w_tail * (1.0 / 3.0 - b * b / 5.0)
    else:
        tail = w_tail * (1.0 / b**2 - math.atan(b) / b**3)

    if tail > tail_rel_tol * (total + tail):
        raise ValueError(
            "interband table range too narrow: extrapolated tail is "
            f"{tail / (total + tail):.2e} of the integral "
            f"(limit {tail_rel_tol:.1e})")
    return 1.0 + (2.0 / PI) * (total + tail)


def eps_core_at(xi: float, m: MaterialModel) -> float:
    """Interband core of ``m`` at xi, or 1.0 when no table is attached."""
    if m.interband is None:
        return 1.0
    return eps_core_kk(xi, m.interband, m)
