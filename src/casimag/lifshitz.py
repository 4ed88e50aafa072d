"""Casimir pressure between identical parallel plates.

The pressure is the Matsubara sum of transverse-wavevector integrals

    P(a, T) = -(k_B T / pi) sum'_l Int_0^inf q_l k dk
              sum_pol [ r_pol^(-2) exp(2 a q_l) - 1 ]^(-1),

the prime halving the l = 0 term.  Substituting y = 2 a q_l turns each
integral into (1/(8 a^3)) Int y^2 sum_pol x/(1-x) dy with x = r^2 e^(-y),
which is evaluated by adaptive Gauss-Kronrod quadrature on the NumPy
kernel ``reflection.lifshitz_summand``; the bracket is always formed as
x/(1-x) with x in [0, 1), so no growing exponential is ever computed.
Every term integrates in s with y = y_lo + s^2 over [0, sqrt(Y_CUT)],
y_lo = 2 a xi_l / c (zero for the static term): the substitution removes
the square-root cusp at the lower endpoint, so a term usually converges
on its first round of panels.

``pressure_curve`` holds the one Matsubara loop.  It evaluates a whole
separation grid of one model together: at each l the permeability and the
interband core are computed once, and one vector-valued quadrature covers
every separation whose sum has not yet converged, so each refinement
round is one kernel call with one scalar xi and arrays of separations.
A single ``pressure`` is a one-point curve.
The kernel takes the model itself: a MaterialModel, or a
``reflection.FixedReflection`` (re-exported here) with constant
coefficients.  Its coefficients are those of ``reflection.refl_pair``.

The static term uses the exact zero-frequency reflection coefficients of
the model variant; all terms with l >= 1 use unit permeability.  When the
model carries an interband table, the bound-electron core replaces the
leading "1" of the permittivities for l >= 1 (the static coefficients
depend only on the free-electron parameters).

Every Matsubara frequency is ``matsubara_xi(l, ctx)`` and every prefactor
uses ``ctx.temperature``: the MatsubaraContext is the one source of the
temperature.  The terms of every separation are summed in ascending l,
each separation keeping its own tail rule and term cap; results are
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .quadrature import adaptive_quad
from .reflection import FixedReflection, lifshitz_summand
from .response import MaterialModel, MatsubaraContext, eps_core_at, \
    matsubara_xi, mu_at

# exp(-45) ~ 3e-20: relative truncation error of the y integral
Y_CUT = 45.0
# upper limit of every term's integral in s, y = y_lo + s^2
S_CUT = math.sqrt(Y_CUT)
# panels of the first quadrature round of every term
INITIAL_PANELS = 8


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


def _term_integrals(l: int, xi: float, a: np.ndarray, model,
                    quad_tol: float) -> tuple[list, list]:
    """(t_l, error estimates) of the y integral at every separation in a."""
    # permeability and interband core once per term, not per kernel call
    if isinstance(model, FixedReflection):
        mu = eps_core = 1.0
    else:
        mu = mu_at(l, model)
        eps_core = 1.0 if l == 0 else eps_core_at(xi, model)

    # substitute y = y_lo + s^2: removes the sqrt(y - y_lo) cusp of
    # k = sqrt(q^2 - xi^2/c^2) at the lower endpoint for l >= 1, and the
    # sqrt(k) cusp of the static TE coefficient at small wavevectors
    a = a[:, None, None]  # separations x (panels, nodes)
    y_lo = a * (2.0 * xi / C_LIGHT)

    def f(s):
        out = lifshitz_summand(y_lo + s * s, xi, a, model, mu, eps_core)
        out *= 2.0 * s
        return out

    res = adaptive_quad(f, 0.0, S_CUT, rel_tol=quad_tol,
                        initial_panels=INITIAL_PANELS)
    return res.value.tolist(), res.error.tolist()


def _prefactor(a: float, ctx: MatsubaraContext) -> float:
    return -K_BOLTZMANN * ctx.temperature / (8.0 * math.pi * a**3)


def _term_cap(a: float, ctx: MatsubaraContext) -> int:
    """Highest Matsubara index the sum may use before giving up."""
    if ctx.l_max_cap is not None:
        return ctx.l_max_cap
    scale = C_LIGHT * HBAR / (4.0 * math.pi * a
                              * K_BOLTZMANN * ctx.temperature)
    return math.ceil(20.0 * scale) + 100


class _MatsubaraSum:
    """Running Matsubara sum of one separation, with its tail rule."""

    def __init__(self, q: PressureQuery, ctx: MatsubaraContext,
                 keep_terms: bool):
        self.a = q.separation
        self.series_tol = q.series_tol
        self.pref = _prefactor(self.a, ctx)
        self.cap = _term_cap(self.a, ctx)
        self.accum = 0.0
        self.quad_err = 0.0
        self.terms = [] if keep_terms else None
        self.tail = math.inf
        self.consecutive = 0
        self.prev_t = None
        self.result = None

    def add(self, l: int, t_l: float, err_l: float) -> None:
        """Add term l (the 1/2 weight of l = 0 included).

        Sets ``result`` once the tail estimate has stayed below
        series_tol * |partial sum| for three consecutive l >= 1; raises
        SeriesConvergenceError when the cap is reached first.
        """
        weight = 0.5 if l == 0 else 1.0
        self.accum += weight * t_l
        self.quad_err += weight * err_l
        if self.terms is not None:
            self.terms.append((l, self.pref * weight * t_l))
        if l > 0:
            if t_l == 0.0:
                self.tail = 0.0
            elif self.prev_t is not None and 0.0 < t_l < self.prev_t:
                ratio = t_l / self.prev_t
                self.tail = t_l * ratio / (1.0 - ratio)
            else:
                self.tail = math.inf
            self.prev_t = t_l
            if self.tail <= self.series_tol * self.accum:
                self.consecutive += 1
                if self.consecutive >= 3:
                    self.result = self._result(l + 1)
                    return
            else:
                self.consecutive = 0
        # terms_used (count incl. l = 0) never exceeds the cap
        if l + 1 >= self.cap:
            raise SeriesConvergenceError(
                f"Matsubara sum at separation {self.a:.6e} m not converged "
                f"within {self.cap} terms", self._result(self.cap))

    def _result(self, terms_used: int) -> PressureResult:
        tail = self.tail
        return PressureResult(
            pressure=self.pref * self.accum,
            terms_used=terms_used,
            series_tail_bound=(abs(self.pref) * tail if math.isfinite(tail)
                               else math.inf),
            quad_error=abs(self.pref) * self.quad_err,
            per_term=None if self.terms is None else tuple(self.terms))


def pressure_curve(separations, model, ctx: MatsubaraContext,
                   quad_tol: float = 1e-9, series_tol: float = 1e-8,
                   keep_terms: bool = False) -> list[PressureResult]:
    """Casimir pressure of one model at every separation, in Pa.

    Every separation is validated as a PressureQuery before any term is
    computed.  Each separation's Matsubara sum stops once the geometric
    tail estimate has stayed below series_tol * |partial sum| for three
    consecutive indices, and then leaves the set evaluated at later l;
    the final tail estimate is reported in its result.  Raises
    SeriesConvergenceError, naming the separation and carrying its
    partial result, if a separation reaches its cap on the number of
    terms first.
    """
    sums = [_MatsubaraSum(PressureQuery(separation=float(a), model=model,
                                        quad_tol=quad_tol,
                                        series_tol=series_tol),
                          ctx, keep_terms) for a in separations]
    if not sums:
        raise ValueError("need at least one separation")
    active = sums
    l = 0
    while active:
        t, err = _term_integrals(l, matsubara_xi(l, ctx),
                                 np.array([s.a for s in active]), model,
                                 quad_tol)
        for s, t_l, err_l in zip(active, t, err):
            s.add(l, t_l, err_l)
        active = [s for s in active if s.result is None]
        l += 1
    return [s.result for s in sums]


def pressure_term(l: int, a: float, model, ctx: MatsubaraContext,
                  quad_tol: float = 1e-9) -> float:
    """Contribution of a single Matsubara index to the pressure, in Pa.

    Includes the 1/2 weight of the l = 0 term.
    """
    (t_l,), _ = _term_integrals(l, matsubara_xi(l, ctx), np.array([a]),
                                model, quad_tol)
    weight = 0.5 if l == 0 else 1.0
    return _prefactor(a, ctx) * weight * t_l


def pressure(q: PressureQuery, ctx: MatsubaraContext,
             keep_terms: bool = False) -> PressureResult:
    """Casimir pressure for the query, in Pa (negative = attraction).

    A one-point ``pressure_curve``: same tail rule, same
    SeriesConvergenceError at the term cap.
    """
    res, = pressure_curve([q.separation], q.model, ctx, q.quad_tol,
                          q.series_tol, keep_terms)
    return res


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
    curves = [pressure_curve(a_grid, model, ctx, quad_tol, series_tol)
              for _, model in models]
    rows = []
    for i, a in enumerate(a_grid):
        row = {"a": float(a)}
        for (name, _), curve in zip(models, curves):
            row[f"p_{name}"] = curve[i].pressure
            row[f"terms_{name}"] = curve[i].terms_used
        for i1, (n1, _) in enumerate(models):
            for n2, _ in models[i1 + 1:]:
                row[f"ratio_{n1}_over_{n2}"] = row[f"p_{n1}"] / row[f"p_{n2}"]
        rows.append(row)
    return rows
