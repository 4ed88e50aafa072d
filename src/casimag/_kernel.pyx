# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled evaluation of the pressure-integrand kernel.

Scalar-loop twin of ``reflection.lifshitz_summand``; same variant codes,
same formulas.  Kept free of Python calls inside the loop.
"""

from libc.math cimport exp, sqrt

import numpy as np

VARIANT_DRUDE = 0
VARIANT_PLASMA = 1
VARIANT_NONLOCAL = 2
VARIANT_FIXED = 3


def lifshitz_summand(y, double xi, double a, double c, int variant,
                     double omega_p, double gamma, double mu,
                     double v_t, double v_l, double eps_core,
                     double r_tm_fixed, double r_te_fixed):
    """Integrand factor y^2 sum_pol x/(1-x), x = r^2 exp(-y), at y = 2 a q_l."""
    y_arr = np.ascontiguousarray(y, dtype=np.float64)
    out = np.empty_like(y_arr)
    cdef double[::1] yv = y_arr
    cdef double[::1] ov = out
    cdef Py_ssize_t i, n = yv.shape[0]
    cdef double q, k, ksq, xi_c2, w, eps_tr, eps_l, k_mu, cross
    cdef double r_tm, r_te, wp2, b, sk, skb, root, damp, x_tm, x_te
    cdef double inv_2a = 1.0 / (2.0 * a)

    xi_c2 = 0.0
    if xi > 0.0:
        xi_c2 = (xi / c) * (xi / c)
    wp2 = omega_p * omega_p

    for i in range(n):
        q = yv[i] * inv_2a
        if variant == 3:
            r_tm = r_tm_fixed
            r_te = r_te_fixed
        elif xi == 0.0:
            k = q
            if variant == 0:
                r_tm = 1.0
                r_te = (mu - 1.0) / (mu + 1.0)
            elif variant == 1:
                r_tm = 1.0
                root = sqrt(k * k + mu * (omega_p / c) * (omega_p / c))
                r_te = (mu * k - root) / (mu * k + root)
            else:
                r_tm = wp2 / (2.0 * v_l * gamma * k + wp2)
                b = mu * wp2 * v_t / (gamma * c * c)
                sk = sqrt(k)
                skb = sqrt(k + b)
                r_te = (mu * sk - skb) / (mu * sk + skb)
        else:
            ksq = q * q - xi_c2
            if ksq < 0.0:
                ksq = 0.0
            k = sqrt(ksq)
            if variant == 2:
                w = wp2 / (xi * (xi + gamma))
                eps_tr = eps_core + w * (1.0 + v_t * k / xi)
                eps_l = eps_core + w / (1.0 + v_l * k / xi)
            else:
                if variant == 0:
                    w = wp2 / (xi * (xi + gamma))
                else:
                    w = wp2 / (xi * xi)
                eps_tr = eps_core + w
                eps_l = eps_tr
            k_mu = sqrt(k * k + mu * eps_tr * xi_c2)
            cross = k * (eps_tr - eps_l) / eps_l
            r_tm = (q * eps_tr - k_mu - cross) / (q * eps_tr + k_mu + cross)
            r_te = (q * mu - k_mu) / (q * mu + k_mu)

        damp = exp(-yv[i])
        x_tm = r_tm * r_tm * damp
        x_te = r_te * r_te * damp
        ov[i] = yv[i] * yv[i] * (x_tm / (1.0 - x_tm) + x_te / (1.0 - x_te))

    return out
