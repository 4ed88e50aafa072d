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

Every function in this module is safe for concurrent use: a race on the
KK node sets an ``InterbandTable`` keeps at worst builds equal ones twice.
"""

from __future__ import annotations

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
# integral the extrapolated tail may carry before a table is rejected, the
# widest KK panel in ln w, and the half-width beta in Im ln w of the strip
# on which the error bound of the fixed nodes is taken (beta < pi/4 keeps
# w^2 + xi^2 away from 0 there).  At width 0.05 the bound on the 3-row
# test table is 1.6e-12 of the integral, at 0.04 it is 2.8e-13; the
# 600-row tables have narrower segments, so the width leaves them alone.
KK_QUAD_TOL = 1e-9
KK_TAIL_REL_TOL = 1e-3
KK_PANEL_WIDTH = 0.04
KK_STRIP = 0.65

# 4-point Gauss-Legendre rule on [-1, 1] for the KK core's fixed panels
_XG = np.array([-0.8611363115940526, -0.33998104358485626,
                0.33998104358485626, 0.8611363115940526])
_WG = np.array([0.34785484513745385, 0.6521451548625461,
                0.6521451548625461, 0.34785484513745385])


@dataclass(frozen=True)
class InterbandTable:
    """Tabulated imaginary part of the permittivity, Im eps(omega).

    ``omega`` is in rad/s, strictly increasing, at least two rows;
    ``im_eps`` is dimensionless and nonnegative; every value is finite.
    The table represents measured absorption of the real metal, including
    its free-electron part; the Drude background is subtracted downstream
    when the interband excess is formed.  Equality and the hash are the
    dataclass's, on the two columns; the KK node sets the table keeps per
    (omega_p, gamma) are outside them and repr.
    """

    omega: tuple[float, ...]
    im_eps: tuple[float, ...]
    _kk: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False)

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
    characteristic velocities in m/s of the wavevector-dependent response.
    ``interband`` optionally supplies measured absorption data from which
    the bound-electron core (``core``) is reconstructed; it replaces the
    leading "1" of the free-electron permittivities at nonzero Matsubara
    frequencies.  The permeability enters only the static term, as mu0:
    mu(i xi_l) = 1 at every l >= 1 is the paper's assumption, and the
    repository cites no source for Ni's magnetic relaxation.  A Debye
    relaxation mu(i xi) = 1 + (mu0 - 1)/(1 + xi/omega_r) moves the README
    pressures by -1.8e-4 (f_r = omega_r/2pi = 1 GHz) and -1.8e-3 (10 GHz)
    at 300 K, and by -3.4e-4 to -6.4e-4 and -2.5e-3 to -5.8e-3 at 10 K.

    The variant picks parameters at every l, both derived: ``effective``,
    the (gamma, v_t, v_l) of the l >= 1 permittivities, (gamma, 0, 0) for
    drude and (0, 0, 0) for plasma; and ``static_params``, the (a, b, p)
    of the static pair (``reflection.static_coefficients``), (0, 0, 0)
    for drude, (0, 0, wp^2/c^2) for plasma and (2 v_l gamma/wp^2,
    wp^2 v_t/(gamma c^2), 0) for nonlocal, with b = inf at gamma = 0.
    ``gamma`` stays the physical relaxation rate, with which the interband
    core subtracts the Drude part.
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
    static_params: tuple[float, float, float] = field(
        init=False, repr=False, compare=False)

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
        g, wp2 = self.gamma, self.omega_p * self.omega_p
        b = wp2 * self.v_t / (g * C_LIGHT**2) if g > 0.0 else math.inf
        effective, static = {  # of the variant
            DRUDE: ((g, 0.0, 0.0), (0.0, 0.0, 0.0)),
            PLASMA: ((0.0, 0.0, 0.0), (0.0, 0.0, (self.omega_p / C_LIGHT)**2)),
            NONLOCAL: ((g, self.v_t, self.v_l),
                       (2.0 * self.v_l * g / wp2, b, 0.0))}[self.variant]
        object.__setattr__(self, "effective", effective)
        object.__setattr__(self, "static_params", static)

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

    ``temperature`` (K, finite and > 0, not a bool) is the one source of
    the temperature for every Matsubara frequency and pressure prefactor;
    ``l_max_cap``, an int >= 10, optionally overrides the
    separation-derived cap on the number of Matsubara terms (None =
    derive it from the separation when summing).
    """

    temperature: float
    l_max_cap: int | None = None

    def __post_init__(self):
        t = self.temperature
        if isinstance(t, bool) or not 0.0 < t < math.inf:
            raise ValueError("temperature must be finite and > 0")
        cap = self.l_max_cap
        if cap is not None and not (type(cap) is int and cap >= 10):
            raise ValueError("l_max_cap must be an int >= 10")


def matsubara_xi(l: int, ctx: MatsubaraContext) -> float:
    """Matsubara angular frequency xi_l = 2 pi k_B T l / hbar, in rad/s.

    Exactly 0 for l = 0 and exactly linear in both l and T.  ``l`` is an
    integer >= 0, such as a NumPy integer; a float or a bool is rejected.
    """
    if isinstance(l, bool) or not hasattr(l, "__index__") or l < 0:
        raise ValueError(f"Matsubara index must be an integer >= 0, got {l!r}")
    return 2.0 * PI * K_BOLTZMANN * ctx.temperature * l / HBAR


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be finite and > 0, got {xi!r} (the static "
                         "term is handled analytically by the reflection "
                         "layer)")


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

    Over the table range the integral runs in u = ln w on 4-point Gauss
    (G4) panels: one per table segment, with breakpoints at the zero
    crossings of table - Drude (the kinks of the max) and no panel wider
    than ``KK_PANEL_WIDTH``.  The nodes and the xi-independent weights
    w^2 eps''_ib(w) du are built on first use and kept by the table per
    (omega_p, gamma), so each xi costs one weighted sum of 1/(w_n^2 + xi^2)
    on these fixed nodes.  With them comes an a-priori bound on the
    relative error of that sum which holds at every xi (``_g4_bound``); no
    panel is refined and no error is estimated per xi.  A bound above
    ``KK_QUAD_TOL``, or a non-finite integral, raises ``QuadratureError``
    naming xi; an xi that is not finite and > 0 raises ValueError.

    The result replaces the leading "1" of the free-electron
    permittivities at the same xi.
    """
    _check_xi(xi)
    key = omega_p, gamma = m.omega_p, m.gamma
    if key not in table._kk:
        table._kk[key] = _kk_nodes(table, omega_p, gamma)
    w2, wg, bound = table._kk[key]
    r = w2 + xi * xi
    np.reciprocal(r, out=r)  # the only node-sized temporary of this xi
    total = float(np.vdot(wg, r))
    if not (math.isfinite(total) and bound <= KK_QUAD_TOL):
        raise QuadratureError(
            f"KK quadrature at xi = {xi:.6e} rad/s missed its relative "
            f"tolerance {KK_QUAD_TOL:.1e} on its fixed nodes", bound * total)

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


def _kk_nodes(table, omega_p, gamma):
    """G4 nodes of ``table``'s KK integral in u = ln w, as (w^2, weights,
    bound): w^2 and the weights have shape (panels, 4), with w^2
    eps''_ib(w), the Gauss weights and the panel's half-width folded into
    the weights, and ``bound`` bounds the relative error of their sum at
    any xi > 0 (``_g4_bound``).  Table rows and excess kinks are breakpoints,
    segments are split evenly to at most ``KK_PANEL_WIDTH``, and panels
    without excess are dropped."""
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
    half, u = _nodes(lo, hi, _XG)
    w = np.exp(u)
    w2 = w * w
    excess = np.maximum(0.0, np.interp(w, omega, im_eps)
                        - drude_im_eps(w, omega_p, gamma))
    with np.errstate(over="ignore"):  # a non-finite integral raises later
        f = w2 * excess * half[:, None]
    wg = f * _WG
    keep = wg.any(axis=1)
    w2, wg = w2[keep], wg[keep]
    for a in (w2, wg):
        a.setflags(write=False)  # shared by every xi of the table
    with np.errstate(all="ignore"):  # a non-finite bound raises later
        bound = _g4_bound(omega, im_eps, omega_p, gamma, lo[keep],
                          half[keep], (excess * _WG).sum(axis=1)[keep]
                          * half[keep])
    return w2, wg, bound


def _g4_bound(omega, im_eps, omega_p, gamma, lo, half, g4):
    """Bound on the relative error, at every xi > 0, of the G4 sum of the KK
    integral on the ascending panels [lo, lo + 2 half] in u = ln w, on each
    of which the excess is positive, with G4 integral ``g4``.

    On a panel the integrand is E(w) phi(u), where E is the table's linear
    interpolant minus the Drude background and phi = w^2/(w^2 + xi^2) =
    1/(1 + t e^(-2iy)) with u = x + iy and t = xi^2 e^(-2x).  Since
    |1 + t e^(i theta)|^2 - cos(theta) (1 + t)^2 = (1 - cos theta)(1 + t^2)
    >= 0, on the strip |y| <= beta = ``KK_STRIP`` < pi/4 both phi and the
    Drude term's w^2/(w^2 + gamma^2) are at most 1/sqrt(cos 2 beta) times
    their value at the real point x.  The panel's Bernstein ellipse of
    semi-minor axis beta, rho = beta/h + sqrt((beta/h)^2 + 1) for
    half-width h, lies in the strip and reaches |x - c| <= d = sqrt(beta^2
    + h^2) around the centre c.  There |E| <= M, with M the interpolant at
    e^c, plus |slope| e^c (e^d - 1), plus the Drude term at e^(c - d) over
    sqrt(cos 2 beta); and |E phi| <= M phi(c + d) / sqrt(cos 2 beta).  The
    G4 error on the panel is then at most e = h (64/15) M rho^-6/(rho^2 -
    1) phi(c + d) / sqrt(cos 2 beta) (Trefethen, SIAM Rev. 50, 67 (2008),
    Thm 4.5, for 4 points), and e <= D phi(lo) with D = that factor times
    e^(2(h + d)), because phi(x + s) <= e^(2s) phi(x).  The exact integral
    is at least J phi(lo) summed over the panels, with J = max(0, g4 - h
    (64/15) M rho^-6/(rho^2 - 1)), since E >= 0 and phi rises with x.

    phi = sigma(2(x - ln xi)) with the logistic sigma, and min(1, e^z)/2 <=
    sigma(z) <= min(1, e^z), so the relative error is at most twice
    sum D_p m_p / sum J_p m_p with m_p = min(1, e^(2(lo_p - L))), L = ln
    xi.  Between consecutive lo this ratio is monotone in e^(-2L), so its
    supremum over L is taken at L = lo_j, where it reads (prefix sum with
    weights e^(2(lo_p - lo_j)) + suffix sum from panel j up) of D over the
    same of J, or as L -> inf.  Both sums are cumulative sums over the
    ascending panels, the suffix sums over them reversed.
    """
    if not lo.size:
        return 0.0
    beta = KK_STRIP
    sec = 1.0 / math.sqrt(math.cos(2.0 * beta))
    ratio = beta / half
    rho = ratio + np.sqrt(ratio * ratio + 1.0)
    d = np.hypot(beta, half)
    c = lo + half
    wc = np.exp(c)
    seg = np.clip(np.searchsorted(omega, wc, side="right") - 1,
                  0, omega.size - 2)
    slope = np.diff(im_eps)[seg] / np.diff(omega)[seg]
    size = (np.abs(im_eps[seg] + slope * (wc - omega[seg]))
            + np.abs(slope) * wc * np.expm1(d)
            + sec * drude_im_eps(wc * np.exp(-d), omega_p, gamma))
    err = half * (64.0 / 15.0) * size * rho**-6 / (rho * rho - 1.0)
    upper = sec * err * np.exp(2.0 * (half + d))  # D
    lower = np.maximum(0.0, g4 - err)  # J
    weight = np.exp(2.0 * (lo - lo[-1]))  # below 1, so nothing overflows

    def at_edges(v):
        below = np.cumsum(v * weight)
        return (np.append(0.0, below[:-1]) / weight
                + np.cumsum(v[::-1])[::-1]), below[-1]

    (num, num_inf), (den, den_inf) = at_edges(upper), at_edges(lower)
    return 2.0 * float(max((num / den).max(), num_inf / den_inf))
