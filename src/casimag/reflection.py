"""Permittivities, reflection coefficients and the pressure-integrand kernel.

The one Python implementation of the physics on the imaginary frequency
axis.  The NumPy kernel is ``free_electron_eps`` (the permittivity pair),
``static_coefficients`` (the exact l = 0 pair, since the permittivities
are singular at xi = 0), ``matsubara_coefficients`` (l >= 1, as
numerators and denominators) and ``lifshitz_summand`` built from them,
each one formula for every variant on the parameters the variant picks
(``MaterialModel.effective`` and ``static_params``).  The kernel
broadcasts over arrays or Python floats and checks nothing but the
static gamma = 0 singularity; ``lifshitz_summand`` is the one integrand
of the pressure quadrature, and takes each term's permeability and
interband core from its model: mu0 in the static term, 1 and
``model.core(xi)`` above it.
The scalar API validates its inputs and computes through the kernel:
``eps_pair`` is the permittivity pair, with the model's core, and
``refl_pair`` the coefficients at any Matsubara index.
``FixedReflection`` stands in for a material model with constant
coefficients.  On the imaginary axis every coefficient is real with
|r| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .response import MaterialModel, MatsubaraContext, _check_xi, \
    matsubara_xi


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


def free_electron_eps(xi, k, m, core, k_unit=1.0, out=(None, None)):
    """(eps_tr, eps_l) of the conduction electrons of ``m`` at (i xi, k).

    core + W (1 + v_t k/xi) and core + W/(1 + v_l k/xi) with
    W = wp^2/(xi(xi+gamma)), on the model's effective (gamma, v_t, v_l):
    drude has zero velocities, plasma zero gamma too, and every variant
    takes this one formula.  ``core`` replaces the leading unity; k is in
    units of ``k_unit`` (by default 1/m).  Zero velocities give both
    entries equal to core + W, bit for bit: the local pair.  ``out`` holds
    the arrays eps_tr and eps_l are written into (None: new ones).
    """
    gamma, v_t, v_l = m.effective
    w = m.omega_p * m.omega_p / (xi * (xi + gamma))
    # per-component factors first, so an array k costs two and four passes
    unit = k_unit / xi
    b_t, b_l = v_t * unit, v_l * unit
    o_tr, o_l = out
    eps_tr = np.multiply(w * b_t, k, out=o_tr)
    eps_tr = np.add(core + w, eps_tr, out=o_tr)
    eps_l = np.multiply(b_l, k, out=o_l)
    eps_l = np.add(1.0, eps_l, out=o_l)
    eps_l = np.divide(w, eps_l, out=o_l)
    return eps_tr, np.add(core, eps_l, out=o_l)


def static_coefficients(k, m, mu):
    """(r_TM, r_TE) of the static term of ``m`` at wavevector k >= 0.

    One formula for every variant, on the ``static_params`` (a, b, p) of
    ``m`` (see MaterialModel): r_TM = 1/(1 + a k), r_TE = (mu k - R)/
    (mu k + R), R = sqrt(k (k + mu b) + mu p).  ``m`` may hold arrays that
    broadcast like k, as a pair table does.  At a float k = 0, r_TE is -1
    if b or p is nonzero, else (mu - 1)/(mu + 1).  b = inf (the nonlocal
    variant at gamma = 0) is a ValueError.
    """
    a, b, p = m.static_params
    if np.any(b == math.inf):
        raise ValueError("static nonlocal coefficients are singular at "
                         "gamma = 0; use the plasma variant instead")
    r_tm = 1.0 / (1.0 + a * k)
    if not np.ndim(k) and k == 0.0:  # the ratio below is 0/0 at b, p = 0
        return r_tm, -1.0 if b or p else (mu - 1.0) / (mu + 1.0)
    root = np.sqrt(k * (k + mu * b) + mu * p)
    return r_tm, (mu * k - root) / (mu * k + root)


def matsubara_coefficients(q, k, k2, mu, eps_tr, eps_l, out=(None,) * 5):
    """(N_TM, D_TM, N_TE, D_TE) at l >= 1 for a k-only response; r = N/D.

    Wavevectors are in units of xi/c: q = sqrt(k^2 + 1), k2 = k^2 and
    k_mu = sqrt(k^2 + mu eps_tr), and

    r_TM = (q eps_tr - k_mu - k (eps_tr - eps_l)/eps_l)
         / (q eps_tr + k_mu + k (eps_tr - eps_l)/eps_l),
    r_TE = (q mu - k_mu) / (q mu + k_mu).

    For a local pair (eps_tr == eps_l) the cross term is exactly zero and
    this is the Fresnel form, bit for bit.  mu = 1 skips its products, and
    q +- k_mu are formed in place; neither changes a bit.  ``out`` holds
    the arrays D_TE, the cross term, D_TM, N_TM and N_TE are written into
    (None: new ones); they may be k2 if of their shape, any array, eps_tr,
    eps_l and the cross term's, each read last before it is written.
    """
    o_kmu, o_cross, o_dtm, o_ntm, o_nte = out
    k_mu = np.add(k2, eps_tr if mu == 1.0 else mu * eps_tr, out=o_kmu)
    k_mu = np.sqrt(k_mu, out=o_kmu)
    cross = np.subtract(eps_tr, eps_l, out=o_cross)
    cross *= k
    cross /= eps_l
    cross += k_mu
    d_tm = np.multiply(q, eps_tr, out=o_dtm)
    n_tm = np.subtract(d_tm, cross, out=o_ntm)
    d_tm += cross
    if mu != 1.0:
        q = mu * q
    n_te = np.subtract(q, k_mu, out=o_nte)
    k_mu += q
    return n_tm, d_tm, n_te, k_mu


def work_rows(m: int) -> int:
    """Floats per node of y that a ``lifshitz_summand`` call of m models
    takes of its work buffer, y's included; its docstring has the rows."""
    return 7 if m == 1 else 4 + 4 * m


def _occupation(n, d, damp):
    """x/(1 - x), x = (n/d)^2 damp, as n^2 damp/(d^2 - n^2 damp) in place."""
    n *= n
    n *= damp
    d *= d
    d -= n
    n /= d
    return n


def lifshitz_summand(y, xi, a, model, work=None):
    """Integrand factor y^2 sum_pol x/(1-x), x = r^2 exp(-y), at y = 2 a q_l.

    ``y`` is an array of quadrature nodes (all > 0); ``xi`` is the
    Matsubara frequency (0.0 selects the static-term coefficients, with
    permeability ``model.mu0``); ``model`` is a MaterialModel or a
    FixedReflection.  The variant enters only as parameters: in the static
    term ``static_coefficients`` reads the model's ``static_params`` and
    ``mu0``; above it the permeability is 1, the interband core is
    ``model.core(xi)``, the permittivities read ``omega_p`` and
    ``effective``, wavevectors are in units of xi/c (q = y/y_lo,
    y_lo = 2 a xi/c) and r = N/D is never formed: x/(1-x) is
    N^2 d/(D^2 - N^2 d), d = exp(-y).  ``model`` may be anything with the
    fields that this reads, and those may be arrays with a model axis in
    front of y's, as in a pressure loop's grid: (M, 1, 1, 1, 1) columns
    against y of shape (1, B, S, panels, nodes) and (S, 1, 1) separations
    ``a``.  Only what depends on the model then takes that axis (see
    ``work``).  Such a model may also carry ``xi``, the frequencies of a
    block of Matsubara indices (a float, or a (B, 1, 1, 1) column), which
    then replaces the argument above the static term: a block is one
    call, with its first frequency as ``xi``.  Its ``core`` may then
    return a float or an array of the fields' shape with the block's
    axis, such as (M, B, 1, 1, 1).
    Returns an array of the broadcast shape of ``y``, ``a`` and the model.

    ``work`` is None or a flat float buffer, whose first y.size floats the
    caller may fill with y.  Above the static term the kernel writes every
    node-sized intermediate after them (``work_rows`` floats per node in
    all): q (later exp(-y)), k^2 and k of the shape of y broadcast with
    ``a``, then eps_tr, eps_l, the cross term and D_TE of the full
    broadcast shape; one model writes D_TE into k^2's row.  The result is
    one of these rows, valid until the next call with the same ``work``;
    with None the call allocates one such buffer, so the result is a new
    array.  The same ufuncs run in the same order, to the same bits.
    """
    y = np.asarray(y, dtype=float)
    d_tm = d_te = 1.0
    fixed = isinstance(model, FixedReflection)
    both = np.broadcast(y, a)
    shape = both.shape
    if fixed or xi == 0.0:
        # a float coefficient carries no axis of a, so y takes them all
        if y.shape != shape:
            y = np.broadcast_to(y, shape)
        if fixed:
            n_tm, n_te = model.r_tm, model.r_te
        else:
            n_tm, n_te = static_coefficients(y / (2.0 * a), model, model.mu0)
        damp = None
    else:
        full = np.broadcast(both, model.omega_p)
        n, m = both.size, full.size // both.size
        work = np.empty(work_rows(m) * n) if work is None else work
        at, rows = y.size + 3 * n, (work_rows(m) - 4) // m
        q, k2, k = work[y.size:at].reshape((3,) + shape)
        own = work[at:at + rows * m * n].reshape((rows,) + full.shape)
        eps_tr, eps_l, cross = own[:3]
        d_te = own[3] if rows > 3 else k2.reshape(full.shape)
        xi = getattr(model, "xi", xi)  # a block's frequencies
        np.multiply(y, (0.5 * C_LIGHT / xi) / a, out=q)  # y/y_lo
        np.multiply(q, q, out=k2)
        k2 -= 1.0
        np.maximum(k2, 0.0, out=k2)
        np.sqrt(k2, out=k)
        free_electron_eps(xi, k, model, model.core(xi), xi / C_LIGHT,
                          (eps_tr, eps_l))
        # each row is written once its last reader has run
        n_tm, d_tm, n_te, d_te = matsubara_coefficients(
            q, k, k2, 1.0, eps_tr, eps_l, (d_te, cross, eps_tr, eps_l, cross))
        damp = q

    damp = np.negative(y, out=damp)
    np.exp(damp, out=damp)
    out = _occupation(n_tm, d_tm, damp)
    out += _occupation(n_te, d_te, damp)
    out *= y
    out *= y
    return out


def _check_k(k_perp: float) -> None:
    if not 0.0 <= k_perp < math.inf:
        raise ValueError("k_perp must be finite and >= 0")


def eps_pair(xi: float, k_perp: float,
             m: MaterialModel) -> tuple[float, float]:
    """(transverse, longitudinal) permittivity of ``m`` at (i xi, k_perp),
    with the model's interband core ``m.core(xi)``.

    See ``free_electron_eps``; zero velocities give equal entries.
    Requires a finite xi > 0 and a finite k_perp >= 0.
    """
    _check_xi(xi)
    _check_k(k_perp)
    return free_electron_eps(xi, k_perp, m, m.core(xi))


def _permeability(l: int, m: MaterialModel, mu_l: float | None) -> float:
    """The permeability of term l: ``m.mu0`` at l = 0 and 1 above it, or
    the override ``mu_l``, which must be finite and >= 1 like ``m.mu0``."""
    if mu_l is None:
        return m.mu0 if l == 0 else 1.0
    if not 1.0 <= mu_l < math.inf:
        raise ValueError("mu_l must be finite and >= 1")
    return mu_l


@dataclass(frozen=True)
class ReflectionPair:
    """TM and TE reflection coefficients at one (l, k_perp) point."""

    r_tm: float
    r_te: float


def refl_pair(l: int, k_perp: float, m: MaterialModel,
              ctx: MatsubaraContext,
              mu_l: float | None = None) -> ReflectionPair:
    """Reflection coefficients of ``m`` at any l >= 0.

    l = 0 uses the exact static pair (``static_coefficients``); l >= 1
    the closed forms (``matsubara_coefficients``) on ``eps_pair``.
    ``mu_l`` (finite, >= 1) overrides the permeability: ``m.mu0`` in the
    static term, 1 above it.  The static nonlocal coefficients require
    gamma > 0 (for a dissipationless model use the plasma variant); at
    k_perp = 0 the static TE limit is -1 for a nonzero b or p, and the
    dissipative local pair for v_t = 0.
    """
    _check_k(k_perp)
    xi = matsubara_xi(l, ctx)
    mu = _permeability(l, m, mu_l)
    if l == 0:
        r_tm, r_te = static_coefficients(k_perp, m, mu)
    else:
        eps_tr, eps_l = eps_pair(xi, k_perp, m)
        k = k_perp * C_LIGHT / xi  # in units of xi/c
        k2 = k * k
        n_tm, d_tm, n_te, d_te = matsubara_coefficients(
            math.sqrt(k2 + 1.0), k, k2, mu, eps_tr, eps_l)
        r_tm, r_te = n_tm / d_tm, n_te / d_te
    return ReflectionPair(r_tm=float(r_tm), r_te=float(r_te))


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
    _check_k(k_perp)
    if not (1.0 <= eps_l < math.inf and 1.0 <= mu_l < math.inf):
        raise ValueError("eps_l and mu_l must be finite and >= 1 on the "
                         "imaginary axis")
    xi = matsubara_xi(l, ctx)
    xi_c2 = (xi / C_LIGHT) ** 2
    q = math.sqrt(k_perp**2 + xi_c2)
    k_mu = math.sqrt(k_perp**2 + mu_l * eps_l * xi_c2)
    r_tm = (q * eps_l - k_mu) / (q * eps_l + k_mu)
    r_te = (q * mu_l - k_mu) / (q * mu_l + k_mu)
    return ReflectionPair(r_tm=r_tm, r_te=r_te)
