"""A textbook float reference for the Matsubara terms of the pressure.

Written again from the formulas, not from the package's kernel:

    P = -(k_B T/(8 pi a^3)) sum'_l t_l,
    t_l = Int_{y_lo}^inf y^2 sum_pol x/(1 - x) dy,  x = r_pol^2 exp(-y),

with y = 2 a q_l, y_lo = 2 a xi_l/c and the prime halving l = 0.  Each
t_l is an explicit loop body: y = y_lo + s^2 on fixed composite
Gauss-Legendre panels in s (``EDGES``, ``NODES`` points each), graded
towards s = 0, where the static nonlocal r_TE turns on the scale
sqrt(2 a mu b) in s.  Above l = 0, r comes from the closed-form
impedances Z_TM and Z_TE with mu = 1; at l = 0 from the static pairs in
the paper's sqrt(k) forms (``static_pair``).  The reference shares only
``MaterialModel`` (its parameters, ``effective`` and ``core``) and the
physical constants with the package; it imports nothing from
``reflection``, ``lifshitz`` or ``quadrature``.

Accuracy, measured against itself on 100 uniformly random points of the
domain of ``test_textbook.py``'s sweep, every term of each at
series_tol = 1e-12 (down to terms 6e-13 of the static one): with every
panel halved and s running to sqrt(80), or with 60 points per panel, no
term moved by more than 1.5e-13 of itself.  ``pressure`` at
quad_tol = 1e-12 agreed with it to 1.6e-13 on the same terms.
"""

import math

import numpy as np

from casimag.constants import C_LIGHT, HBAR, K_BOLTZMANN, PI

# panel edges in s; y = y_lo + s^2 runs to y_lo + 60, where exp(-60) is
# 9e-27 of the integrand's scale
EDGES = (0.0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0, 1.5,
         2.0, 2.75, 3.5, 4.5, 5.75, math.sqrt(60.0))
NODES = 40


def nodes(edges=EDGES, n=NODES):
    """(s, weights) of the composite n-point Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    half = 0.5 * (hi - lo)
    return ((lo + half * (x + 1.0)).ravel(), (half * w).ravel())


def static_pair(k, m, mu):
    """(r_TM, r_TE) at l = 0 and wavevector k >= 0, as the paper writes
    them: dissipative (1, (mu - 1)/(mu + 1)); dissipationless (1,
    (mu k - sqrt(k^2 + mu wp^2/c^2))/(mu k + sqrt(k^2 + mu wp^2/c^2)));
    wavevector-dependent (wp^2/(2 v_l gamma k + wp^2),
    (mu sqrt(k) - sqrt(k + B))/(mu sqrt(k) + sqrt(k + B))) with
    B = mu wp^2 v_t/(gamma c^2), the dissipative TE coefficient at B = 0.
    """
    one = np.ones_like(k, dtype=float)
    wp2 = m.omega_p * m.omega_p
    if m.variant == "drude":
        return one, (mu - 1.0) / (mu + 1.0) * one
    if m.variant == "plasma":
        root = np.sqrt(k * k + mu * wp2 / C_LIGHT**2)
        return one, (mu * k - root) / (mu * k + root)
    r_tm = wp2 / (2.0 * m.v_l * m.gamma * k + wp2)
    big_b = mu * wp2 * m.v_t / (m.gamma * C_LIGHT**2)
    if big_b == 0.0:
        return r_tm, (mu - 1.0) / (mu + 1.0) * one
    sk, skb = np.sqrt(k), np.sqrt(k + big_b)
    return r_tm, (mu * sk - skb) / (mu * sk + skb)


def matsubara_pair(xi, k, m):
    """(r_TM, r_TE) at xi > 0 and wavevector k from the closed-form
    impedances of a k-only response, mu = 1:

    Z_TE = xi/R, Z_TM = (c k/eps_l + (R - c k)/eps_tr)/xi,
    R = sqrt(c^2 k^2 + eps_tr xi^2),
    r_TM = (c q - xi Z_TM)/(c q + xi Z_TM), r_TE = (c q Z_TE - xi)/
    (c q Z_TE + xi), with eps_tr = core + W (1 + v_t k/xi), eps_l =
    core + W/(1 + v_l k/xi) and W = wp^2/(xi (xi + gamma)) on the
    model's effective (gamma, v_t, v_l).
    """
    gamma, v_t, v_l = m.effective
    core = m.core(xi)
    w = m.omega_p**2 / (xi * (xi + gamma))
    k_xi = k / xi
    eps_tr = core + w * (1.0 + v_t * k_xi)
    eps_l = core + w / (1.0 + v_l * k_xi)
    ck = C_LIGHT * k
    ck2 = ck * ck
    root = np.sqrt(ck2 + eps_tr * (xi * xi))
    z_tm = (ck / eps_l + (root - ck) / eps_tr) / xi
    z_te = xi / root
    cq = np.sqrt(ck2 + xi * xi)
    xz, cz = xi * z_tm, cq * z_te
    return (cq - xz) / (cq + xz), (cz - xi) / (cz + xi)


def terms(m, a, temperature, n, edges=EDGES, points=NODES, first=0):
    """[(l, term)] for l = first, ..., n - 1: each term in Pa, the 1/2 of
    l = 0 included, as ``pressure(..., keep_terms=True).per_term`` lists
    them."""
    s, w = nodes(edges, points)
    s2, dy = s * s, 2.0 * s * w  # y - y_lo, and the weights of dy
    pref = -K_BOLTZMANN * temperature / (8.0 * PI * a**3)
    out = []
    for l in range(first, n):
        xi = 2.0 * PI * K_BOLTZMANN * temperature * l / HBAR
        y_lo = 2.0 * a * xi / C_LIGHT
        y = y_lo + s2
        if l == 0:
            r_tm, r_te = static_pair(s2 / (2.0 * a), m, m.mu0)
        else:
            # k = sqrt(q^2 - (xi/c)^2), with q - xi/c = s^2/(2 a)
            k = s * np.sqrt((y / (2.0 * a) + xi / C_LIGHT) / (2.0 * a))
            r_tm, r_te = matsubara_pair(xi, k, m)
        damp = np.exp(-y)
        x_tm, x_te = r_tm**2 * damp, r_te**2 * damp
        f = x_tm / (1.0 - x_tm) + x_te / (1.0 - x_te)
        t = float(np.sum(dy * y * y * f))
        out.append((l, pref * (0.5 if l == 0 else 1.0) * t))
    return out
