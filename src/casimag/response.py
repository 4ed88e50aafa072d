"""Material models, the Matsubara context and the interband response.

A MaterialModel holds the free-electron parameters of one response
variant: dissipative, dissipationless, or wavevector-dependent through
characteristic velocities of the order of the Fermi velocity (its
permittivities are ``reflection.eps_pair``).  The model supplies what
changes with the Matsubara term: the permeability mu0, which enters only
the static term, and the interband core ``MaterialModel.core(xi)``, which
replaces the leading "1" of the permittivities above it.  The core is
reconstructed from tabulated absorption data by a Kramers-Kronig
transform, evaluated at purely imaginary frequencies ``omega = i*xi`` with
``xi > 0``.  The static (``xi = 0``) limit is handled analytically by the
reflection layer.

Every function in this module is pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN, PI, ev_to_rad_s
from .csvio import read_numeric_csv
from .quadrature import QuadratureError, _nodes

DRUDE = "drude"
PLASMA = "plasma"
NONLOCAL = "nonlocal"
VARIANTS = (DRUDE, PLASMA, NONLOCAL)

# Free-electron parameters of Ni: plasma frequency 4.89 eV, relaxation
# 0.0436 eV (room temperature), static permeability 110, Fermi velocity
# 1.31e6 m/s, not derived from omega_p (a spherical Fermi surface with
# omega_p = 4.89 eV gives n = 1.73e28 m^-3 and v_F = 9.27e5 m/s).
NI_OMEGA_P_EV = 4.89
NI_GAMMA_EV = 0.0436
NI_MU0 = 110.0
NI_V_FERMI = 1.31e6

# relative tolerance of the KK quadrature, the largest share of the KK
# integral the extrapolated tail may carry before a table is rejected, and
# the widest KK panel in ln w (at 0.15 the |K9 - G4| estimate on a test
# table exceeds the 1e-12 of the integral its margin test allows)
KK_QUAD_TOL = 1e-9
KK_TAIL_REL_TOL = 1e-3
KK_PANEL_WIDTH = 0.1

# 9-point Kronrod extension of 4-point Gauss (nodes on [-1, 1]) for the
# KK core's fixed panels, whose error is far below the tolerance already
_XGK = np.array([
    -0.9765602507375731, -0.8611363115940526, -0.64028621749631,
    -0.33998104358485626, 0.0,
    0.33998104358485626, 0.64028621749631, 0.8611363115940526,
    0.9765602507375731,
])
# Kronrod weights, and Kronrod minus the 4-point Gauss weights, which sit
# on the odd Kronrod nodes
_WGK = np.array([
    0.06297737366547301, 0.17005360533572272, 0.26679834045228445,
    0.32694918960145164, 0.34644298189013634,
    0.32694918960145164, 0.26679834045228445, 0.17005360533572272,
    0.06297737366547301,
])
_WDIFF = _WGK.copy()
_WDIFF[1::2] -= [0.34785484513745385, 0.6521451548625461,
                 0.6521451548625461, 0.34785484513745385]


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
    _hash: int = field(init=False, repr=False, compare=False)

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
        # the KK caches key on the table: hash its floats once, not per call
        object.__setattr__(self, "_hash", hash((self.omega, self.im_eps)))

    def __hash__(self):
        return self._hash

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
    characteristic velocities in m/s of the wavevector-dependent response.
    ``interband`` optionally supplies measured absorption data from which
    the bound-electron core (``core``) is reconstructed; it replaces the
    leading "1" of the free-electron permittivities at nonzero Matsubara
    frequencies.  The permeability enters only the static term, as mu0.

    ``effective`` is derived: the (gamma, v_t, v_l) of the l >= 1
    permittivities, (gamma, 0, 0) for drude and (0, 0, 0) for plasma, so
    the variant picks only the static pair.  ``gamma`` stays the physical
    relaxation rate, with which the interband core subtracts the Drude part.
    """

    omega_p: float
    gamma: float = 0.0
    mu0: float = 1.0
    v_t: float = 0.0
    v_l: float = 0.0
    interband: InterbandTable | None = None
    variant: str = DRUDE
    effective: tuple[float, float, float] = field(init=False, repr=False,
                                                  compare=False)

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
        effective = {DRUDE: (self.gamma, 0.0, 0.0), PLASMA: (0.0, 0.0, 0.0),
                     NONLOCAL: (self.gamma, self.v_t, self.v_l)}
        object.__setattr__(self, "effective", effective[self.variant])

    def core(self, xi: float) -> float:
        """Interband core at xi > 0, or 1.0 when no table is attached."""
        if self.interband is None:
            return 1.0
        return eps_core_kk(xi, self.interband, self)


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


def drude_im_eps(omega, omega_p: float, gamma: float):
    """Im eps of the dissipative free-electron response at real omega > 0.

    wp^2 gamma / (omega (omega^2 + gamma^2)), for a float or an array
    ``omega``; the background subtracted from tabulated absorption data to
    isolate the interband excess.
    """
    return omega_p**2 * gamma / (omega * (omega**2 + gamma**2))


def eps_core_kk(xi: float, table: InterbandTable, m: MaterialModel) -> float:
    """Bound-electron core at imaginary frequency from absorption data.

    Forms the interband excess eps''_ib(w) = max(0, table(w) - Drude
    background), then evaluates

        eps_core(i xi) = 1 + (2/pi) Int_0^inf w eps''_ib(w) / (w^2 + xi^2) dw.

    Below the table range the excess is taken as 0 (the free-electron part
    is already subtracted); above it the excess is extrapolated as
    eps''_ib(w_max) (w_max/w)^3 and that tail is integrated in closed form.
    A table whose extrapolated tail would contribute more than
    ``KK_TAIL_REL_TOL`` of the integral is rejected as too narrow.

    Over the table range the integral runs in u = ln w on G4/K9 panels:
    one per table segment, with breakpoints at the zero crossings of
    table - Drude (the kinks of the max) and no panel wider than
    ``KK_PANEL_WIDTH``.  The nodes and the xi-independent weights
    w^2 eps''_ib(w) du are built once per (table, omega_p, gamma), so each
    xi costs one weighted sum of 1/(w_n^2 + xi^2) on these fixed nodes.
    Within a panel the integrand is analytic for |Im u| < pi/2 (its poles
    lie at ln xi +- i pi/2 and ln gamma +- i pi/2), so on panels at most
    0.1 wide the G4 error falls like rho^-8 with rho >= 62, and no panel
    is refined.  The summed per-panel |K9 - G4| estimate checks that
    margin: above ``KK_QUAD_TOL`` of the integral, or with a non-finite
    integral, it raises ``QuadratureError``.

    The result replaces the leading "1" of the free-electron
    permittivities at the same xi.
    """
    _check_xi(xi)
    return _eps_core_cached(xi, table, m.omega_p, m.gamma)


def _newton(f, df, lo, hi):
    """Points where f changes sign between lo and hi (arrays), to machine
    precision; f(lo) and f(hi) must differ in sign.  A Newton step that
    would leave the shrinking sign bracket bisects it instead."""
    lo_neg = f(lo) < 0.0
    x = 0.5 * (lo + hi)
    for _ in range(64 if x.size else 0):
        fx = f(x)
        left = (fx < 0.0) == lo_neg
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        step = x - fx / df(x)
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        step = np.where(fx == 0.0, x, step)
        x, dx = step, np.abs(step - x)
        if np.all(dx <= np.spacing(x)):
            break
    return x


def _excess_zeros(omega, im_eps, omega_p, gamma):
    """Zero crossings of the interpolated table minus the Drude background
    inside table segments: the kinks of the KK excess.

    On a segment g = linear interpolant - background is concave (the
    background is convex in w), so it has at most two zeros: one where its
    end values differ in sign, two where both are negative but its maximum
    is positive.
    """
    w0, w1 = omega[:-1], omega[1:]
    slope = np.diff(im_eps) / np.diff(omega)
    c = omega_p**2 * gamma

    def g(i):
        v, s, x = im_eps[i], slope[i], w0[i]
        return lambda w: v + s * (w - x) - drude_im_eps(w, omega_p, gamma)

    def dg(i):
        s = slope[i]
        return lambda w: s + c * (3.0 * w * w + gamma**2) / (
            w * (w * w + gamma**2)) ** 2

    def d2g(w):
        return -2.0 * c * (6.0 * w**4 + 3.0 * (gamma * w) ** 2 + gamma**4) / (
            w * (w * w + gamma**2)) ** 3

    neg0 = im_eps[:-1] < drude_im_eps(w0, omega_p, gamma)
    neg1 = im_eps[1:] < drude_im_eps(w1, omega_p, gamma)
    one = np.flatnonzero(neg0 != neg1)
    zeros = [_newton(g(one), dg(one), w0[one], w1[one])]
    # both ends negative: bracket the maximum where g' falls through 0
    two = np.flatnonzero(neg0 & neg1)
    two = two[(dg(two)(w0[two]) > 0.0) & (dg(two)(w1[two]) < 0.0)]
    peak = _newton(dg(two), d2g, w0[two], w1[two])
    above = g(two)(peak) > 0.0
    two, peak = two[above], peak[above]
    zeros += [_newton(g(two), dg(two), w0[two], peak),
              _newton(g(two), dg(two), peak, w1[two])]
    return np.concatenate(zeros)


@functools.lru_cache(maxsize=16)
def _kk_nodes(table, omega_p, gamma):
    """G4/K9 nodes of ``table``'s KK integral in u = ln w, as (w^2, Kronrod
    weights, Kronrod - Gauss weights), each of shape (panels, 9), with
    w^2 eps''_ib(w) and the panel's half-width folded into the weights.
    Table rows and excess kinks are breakpoints, segments are split evenly
    to at most ``KK_PANEL_WIDTH``, and panels without excess are dropped."""
    omega = np.asarray(table.omega)
    im_eps = np.asarray(table.im_eps)
    # Python's sort: NumPy's sort kernels would add ~1 MB of resident code
    edges = np.array(sorted({*np.log(omega).tolist(), *np.log(
        _excess_zeros(omega, im_eps, omega_p, gamma)).tolist()}))
    width = np.diff(edges)
    n = np.ceil(width / KK_PANEL_WIDTH).astype(int)
    start = np.repeat(np.cumsum(n) - n, n)
    lo = (np.repeat(edges[:-1], n)
          + (np.arange(n.sum()) - start) * np.repeat(width / n, n))
    hi = np.append(lo[1:], edges[-1])
    half, u = _nodes(lo, hi, _XGK)
    w = np.exp(u)
    w2 = w * w
    excess = np.maximum(0.0, np.interp(w, omega, im_eps)
                        - drude_im_eps(w, omega_p, gamma))
    with np.errstate(over="ignore"):  # a non-finite integral raises later
        f = w2 * excess * half[:, None]
    wk = f * _WGK
    keep = wk.any(axis=1)
    nodes = w2[keep], wk[keep], (f * _WDIFF)[keep]
    for a in nodes:
        a.setflags(write=False)  # shared by every call through the cache
    return nodes


@functools.lru_cache(maxsize=4096)
def _eps_core_cached(xi, table, omega_p, gamma):
    w2, wk, wd = _kk_nodes(table, omega_p, gamma)
    r = w2 + xi * xi
    np.reciprocal(r, out=r)  # the only node-sized temporary of this xi
    total = float(np.vdot(wk, r))
    err = float(np.abs(np.einsum("pn,pn->p", wd, r)).sum())
    if not (math.isfinite(total) and err <= KK_QUAD_TOL * total):
        raise QuadratureError(
            f"KK quadrature at xi = {xi:.6e} rad/s missed its relative "
            f"tolerance {KK_QUAD_TOL:.1e} on its fixed nodes", err)

    # Closed-form tail of the (w_max/w)^3 extrapolation: substituting
    # t = w_max/w gives W Int_0^1 t^2/(1 + b^2 t^2) dt with b = xi/w_max.
    w_hi = table.omega[-1]
    w_tail = max(0.0, table.im_eps[-1] - drude_im_eps(w_hi, omega_p, gamma))
    b = xi / w_hi
    if b < 1e-6:
        tail = w_tail * (1.0 / 3.0 - b * b / 5.0)
    else:
        tail = w_tail * (1.0 / b**2 - math.atan(b) / b**3)

    if tail > KK_TAIL_REL_TOL * (total + tail):
        raise ValueError(
            "interband table range too narrow: extrapolated tail is "
            f"{tail / (total + tail):.2e} of the integral "
            f"(limit {KK_TAIL_REL_TOL:.1e})")
    return 1.0 + (2.0 / PI) * (total + tail)
