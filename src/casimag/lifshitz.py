"""Casimir pressure between identical parallel plates.

The pressure is the Matsubara sum of transverse-wavevector integrals

    P(a, T) = -(k_B T / pi) sum'_l Int_0^inf q_l k dk
              sum_pol [ r_pol^(-2) exp(2 a q_l) - 1 ]^(-1),

the prime halving the l = 0 term.  Substituting y = 2 a q_l turns each
integral into (1/(8 a^3)) Int y^2 sum_pol x/(1-x) dy with x = r^2 e^(-y),
which is evaluated by adaptive Gauss-Kronrod quadrature on the NumPy
kernel ``reflection.lifshitz_summand``; the bracket is always formed as
x/(1-x) with x in [0, 1), so no growing exponential is ever computed.

The static term uses the exact zero-frequency reflection coefficients of
the model variant; all terms with l >= 1 use unit permeability.  When the
model carries an interband table, the bound-electron core replaces the
leading "1" of the permittivities for l >= 1 (the static coefficients
depend only on the free-electron parameters).

Every Matsubara frequency is ``matsubara_xi(l, ctx)`` and every prefactor
uses ``ctx.temperature``: the MatsubaraContext is the one source of the
temperature.  Terms are summed serially in ascending l; results are
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .quadrature import adaptive_quad
from .reflection import VARIANT_CODE, VARIANT_FIXED, lifshitz_summand
from .response import MaterialModel, MatsubaraContext, eps_core_at, \
    matsubara_xi, mu_at

# exp(-45) ~ 3e-20: relative truncation error of the y integral
Y_CUT = 45.0


@dataclass(frozen=True)
class FixedReflection:
    """Test hook: constant reflection coefficients for every (l, k_perp).

    FixedReflection(1.0, -1.0) is the ideal metal; FixedReflection(0, 0)
    is an empty interface with zero pressure.  |r| > 1 is rejected.
    """

    r_tm: float
    r_te: float

    def __post_init__(self):
        for name in ("r_tm", "r_te"):
            if not abs(getattr(self, name)) <= 1.0:
                raise ValueError(f"|{name}| must not exceed 1")


@dataclass(frozen=True)
class PressureQuery:
    """One pressure evaluation: geometry, model, tolerances.

    The temperature comes from the MatsubaraContext it is evaluated with.
    """

    separation: float
    model: MaterialModel | FixedReflection
    quad_tol: float = 1e-9
    series_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.separation < math.inf:
            raise ValueError("separation must be finite and > 0")
        for name in ("quad_tol", "series_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-4:
                raise ValueError(f"{name} must be in (0, 1e-4]")


@dataclass(frozen=True)
class PressureResult:
    """Pressure in Pa (negative = attraction) with convergence metadata."""

    pressure: float
    terms_used: int
    series_tail_bound: float
    quad_error: float
    per_term: tuple | None = None


class SeriesConvergenceError(RuntimeError):
    """Matsubara sum did not converge within the term cap."""

    def __init__(self, message: str, partial: PressureResult):
        super().__init__(
            f"{message}: partial sum {partial.pressure:.6e} Pa after "
            f"{partial.terms_used} terms, tail bound "
            f"{partial.series_tail_bound:.3e} Pa")
        self.partial = partial


def _kernel_args(model, l: int, xi: float) -> tuple:
    """(variant, omega_p, gamma, mu, v_t, v_l, eps_core, r_tm, r_te)."""
    if isinstance(model, FixedReflection):
        return (VARIANT_FIXED, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0,
                model.r_tm, model.r_te)
    eps_core = eps_core_at(xi, model) if l >= 1 else 1.0
    return (VARIANT_CODE[model.variant], model.omega_p, model.gamma,
            mu_at(l, model), model.v_t, model.v_l, eps_core, 0.0, 0.0)


def _term_integral(l: int, xi: float, a: float, model,
                   quad_tol: float) -> tuple[float, float]:
    """(t_l, error estimate) of the y integral for one Matsubara index."""
    c = C_LIGHT
    args = _kernel_args(model, l, xi)

    if l == 0:
        # substitute y = u^2: resolves the sqrt(k) cusp of the static TE
        # coefficient at small wavevectors
        def f(u):
            u = np.asarray(u)
            return 2.0 * u * lifshitz_summand(u * u, 0.0, a, c, *args)

        res = adaptive_quad(f, 0.0, math.sqrt(Y_CUT), rel_tol=quad_tol)
        return res.value, res.error

    y_lo = 2.0 * a * xi / c

    def f(y):
        return lifshitz_summand(y, xi, a, c, *args)

    res = adaptive_quad(f, y_lo, y_lo + Y_CUT, rel_tol=quad_tol,
                        initial_panels=6)
    return res.value, res.error


def _prefactor(a: float, ctx: MatsubaraContext) -> float:
    return -K_BOLTZMANN * ctx.temperature / (8.0 * math.pi * a**3)


def _term_cap(a: float, ctx: MatsubaraContext) -> int:
    """Highest Matsubara index the sum may use before giving up."""
    if ctx.l_max_cap is not None:
        return ctx.l_max_cap
    scale = C_LIGHT * HBAR / (4.0 * math.pi * a
                              * K_BOLTZMANN * ctx.temperature)
    return math.ceil(20.0 * scale) + 100


def pressure_term(l: int, a: float, model, ctx: MatsubaraContext,
                  quad_tol: float = 1e-9) -> float:
    """Contribution of a single Matsubara index to the pressure, in Pa.

    Includes the 1/2 weight of the l = 0 term.
    """
    xi = matsubara_xi(l, ctx)
    t_l, _ = _term_integral(l, xi, a, model, quad_tol)
    weight = 0.5 if l == 0 else 1.0
    return _prefactor(a, ctx) * weight * t_l


def pressure(q: PressureQuery, ctx: MatsubaraContext,
             keep_terms: bool = False) -> PressureResult:
    """Casimir pressure for the query, in Pa (negative = attraction).

    The Matsubara sum stops once the geometric tail estimate has stayed
    below series_tol * |partial sum| for three consecutive indices; the
    final tail estimate is reported in the result.  Raises
    SeriesConvergenceError (carrying the partial result) if the cap on the
    number of terms is reached first.
    """
    a = q.separation
    pref = _prefactor(a, ctx)
    cap = _term_cap(a, ctx)

    t0, err0 = _term_integral(0, 0.0, a, q.model, q.quad_tol)
    accum = 0.5 * t0
    quad_err = 0.5 * err0
    terms = [(0, pref * 0.5 * t0)] if keep_terms else None

    tail = math.inf
    consecutive = 0
    prev_t = None
    l = 1
    while l < cap:  # terms_used (count incl. l = 0) never exceeds the cap
        xi = matsubara_xi(l, ctx)
        t_l, err_l = _term_integral(l, xi, a, q.model, q.quad_tol)
        accum += t_l
        quad_err += err_l
        if keep_terms:
            terms.append((l, pref * t_l))

        if t_l == 0.0:
            tail = 0.0
        elif prev_t is not None and 0.0 < t_l < prev_t:
            ratio = t_l / prev_t
            tail = t_l * ratio / (1.0 - ratio)
        else:
            tail = math.inf
        prev_t = t_l

        if tail <= q.series_tol * accum:
            consecutive += 1
            if consecutive >= 3:
                return PressureResult(
                    pressure=pref * accum,
                    terms_used=l + 1,
                    series_tail_bound=abs(pref) * tail,
                    quad_error=abs(pref) * quad_err,
                    per_term=tuple(terms) if keep_terms else None)
        else:
            consecutive = 0
        l += 1

    partial = PressureResult(
        pressure=pref * accum,
        terms_used=cap,
        series_tail_bound=abs(pref) * tail if math.isfinite(tail) else math.inf,
        quad_error=abs(pref) * quad_err,
        per_term=tuple(terms) if keep_terms else None)
    raise SeriesConvergenceError(
        f"Matsubara sum not converged within {cap} terms", partial)


def pressure_ratio_table(a_grid, models, ctx: MatsubaraContext,
                         quad_tol: float = 1e-9,
                         series_tol: float = 1e-8) -> list[dict]:
    """Pressure per model and all pairwise ratios on a separation grid.

    ``models`` is a sequence of (name, model) pairs.  Each returned row
    maps 'a' to the separation, 'p_<name>' to the pressure,
    'terms_<name>' to the number of Matsubara terms used and
    'ratio_<n1>_over_<n2>' to every pairwise ratio (first-listed over
    later-listed).
    """
    models = list(models)
    if not models or len(a_grid) == 0:
        raise ValueError("need at least one model and one separation")
    rows = []
    for a in a_grid:
        row = {"a": float(a)}
        for name, model in models:
            res = pressure(PressureQuery(separation=float(a), model=model,
                                         quad_tol=quad_tol,
                                         series_tol=series_tol), ctx)
            row[f"p_{name}"] = res.pressure
            row[f"terms_{name}"] = res.terms_used
        for i, (n1, _) in enumerate(models):
            for n2, _ in models[i + 1:]:
                row[f"ratio_{n1}_over_{n2}"] = row[f"p_{n1}"] / row[f"p_{n2}"]
        rows.append(row)
    return rows
