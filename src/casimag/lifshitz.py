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

``pressure_curves`` holds the one Matsubara loop, for every model and
separation of a run.  The static term is one quadrature per model, since
its coefficients depend on the variant.  At each l >= 1 every
(model, separation) pair whose sum has not yet converged is one component
of a single vector-valued quadrature: the permeability and the interband
core are computed once per model, and the kernel reads each component's
omega_p, effective (gamma, v_t, v_l) and core as arrays that broadcast
like the separations, with one scalar xi.  On the README grid (15
separations, 100-800 nm, three models) a run takes 101 quadratures, one
per l >= 1 and three static ones, instead of 297 with one loop per
model.  A round's kernel calls split the components so that none exceeds
``NODE_CAP`` nodes.  ``pressure_curve`` is a one-model run and
``pressure`` a one-point curve.
The kernel takes the model itself when there is one: a MaterialModel, or
a ``reflection.FixedReflection`` (re-exported here) with constant
coefficients.  Its coefficients are those of ``reflection.refl_pair``.

The static term uses the exact zero-frequency reflection coefficients of
the model variant; all terms with l >= 1 use unit permeability.  When the
model carries an interband table, the bound-electron core replaces the
leading "1" of the permittivities for l >= 1 (the static coefficients
depend only on the free-electron parameters).

Every Matsubara frequency is ``matsubara_xi(l, ctx)`` and every prefactor
uses ``ctx.temperature``: the MatsubaraContext is the one source of the
temperature.  The terms of every (model, separation) pair are summed in
ascending l, each pair keeping its own tail rule and term cap; results
are deterministic for identical inputs.
"""

from __future__ import annotations

import functools
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
# Interior breakpoints in s of the first quadrature round of every term:
# three G10/K21 panels, 63 nodes, narrower towards s = 0.  Chosen by a
# sweep of the first round over three-model curves on 12 log-spaced
# separations from 10 nm to 20 um at 10, 300 and 1000 K (with and without
# an optical table above 10 K) and on the README grid: (1.25, 3.25) took
# 9.64 M kernel nodes in all, (1.5, 3.0) 11.55 M, three equal panels
# 12.51 M, and every pair with the upper breakpoint at 2.75 over 13.6 M.
BREAKPOINTS = (1.25, 3.25)
# Most quadrature nodes one kernel call evaluates: 57 components of the
# 63-node first round, so a first round of up to 57 components is one
# call.  The split pays end to end: without it, op_s rose
# 6.7% on micron-gradient (faster in 0 of 10 alternating pairs) and 4.7%
# on readme-free (1 of 10), and fell 2.7% on readme-interband
# (perfbench/run.py --workload all --seconds 6, 2-vCPU Linux VM, NumPy
# 2.4).  A call holds several float64 temporaries per node; past about
# 4,000 nodes glibc can return the freed ones to the OS, and the next call
# faults them back in (resource.getrusage, repeated l >= 1 calls: 0 to
# 0.4 minor faults per call at 3,600 nodes in every process measured, 52
# to 105 at 5,400 nodes in 8 of 20 processes).
NODE_CAP = 3600


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


class _Components:
    """What the l >= 1 kernel reads of several MaterialModels, one entry
    per component: omega_p and the effective (gamma, v_t, v_l), each a
    float shared by every component or a (C, 1, 1) array.  The
    velocities are the floats 0.0 when every component's are zero, so the
    local shortcut of ``free_electron_eps`` still applies, and otherwise
    both arrays.  A plain class: a frozen dataclass would add about 0.8 ms
    to every CLI start."""

    __slots__ = ("omega_p", "effective")

    def __init__(self, omega_p, effective: tuple):
        self.omega_p = omega_p
        self.effective = effective


def _per_component(values: list, counts: list, shared: bool = True):
    """One value per run as one float where every run agrees (if
    ``shared``), else a (C, 1, 1) array that broadcasts like the
    separations, each run's value repeated over its components."""
    if shared and len(set(values)) == 1:
        return values[0]
    return np.array(values, dtype=float).repeat(counts)[:, None, None]


@functools.lru_cache(maxsize=64)
def _stack(runs: tuple):
    """The kernel model of several runs of (model, component count)."""
    models = [m for m, _ in runs]
    counts = [n for _, n in runs]
    if isinstance(models[0], FixedReflection):
        return FixedReflection(
            _per_component([m.r_tm for m in models], counts),
            _per_component([m.r_te for m in models], counts))
    gamma, v_t, v_l = zip(*(m.effective for m in models))
    local = not (any(v_t) or any(v_l))  # velocity arrays are never shortcut
    return _Components(_per_component([m.omega_p for m in models], counts),
                       (_per_component(gamma, counts),
                        _per_component(v_t, counts, local),
                        _per_component(v_l, counts, local)))


def _kernel_params(l: int, xi: float, runs: list):
    """(model, mu, eps_core) of the kernel for components in runs.

    ``runs`` lists (model, number of consecutive components).  With one
    run the parameters are the model's own; otherwise each is a
    ``_per_component`` value.  The permeability and the interband core
    are computed once per run at every l; the rest once per layout.
    """
    models = [m for m, _ in runs]
    fixed = isinstance(models[0], FixedReflection)
    mu = [1.0 if fixed else mu_at(l, m) for m in models]
    core = [1.0 if fixed or l == 0 else eps_core_at(xi, m) for m in models]
    if len(runs) == 1:
        return models[0], mu[0], core[0]
    counts = [n for _, n in runs]
    return (_stack(tuple(runs)), _per_component(mu, counts),
            _per_component(core, counts))


def _part(x, j: slice):
    """Components j of a kernel parameter that may be per component."""
    if isinstance(x, np.ndarray):
        return x[j]
    if isinstance(x, _Components):
        return _Components(_part(x.omega_p, j),
                           tuple(_part(v, j) for v in x.effective))
    if isinstance(x, FixedReflection):
        return FixedReflection(_part(x.r_tm, j), _part(x.r_te, j))
    return x  # a float or a model shared by every component


def _term_integrals(l: int, xi: float, a: np.ndarray, runs: list,
                    quad_tol: float) -> tuple[list, list]:
    """(t_l, error estimates) of the y integral of every component.

    Component i is separation a[i]; ``runs`` gives the components' models
    as (model, count) in order (see ``_kernel_params``).  All components
    share one vector-valued quadrature; the static term (xi = 0) takes a
    single run, since its coefficients depend on the variant.
    """
    model, mu, eps_core = _kernel_params(l, xi, runs)
    # substitute y = y_lo + s^2: removes the sqrt(y - y_lo) cusp of
    # k = sqrt(q^2 - xi^2/c^2) at the lower endpoint for l >= 1, and the
    # sqrt(k) cusp of the static TE coefficient at small wavevectors
    a = a[:, None, None]  # components x (panels, nodes)
    y_lo = a * (2.0 * xi / C_LIGHT)
    n = len(a)

    def f(s):
        most = NODE_CAP // s.size  # components one call may take
        if n <= most:
            out = lifshitz_summand(y_lo + s * s, xi, a, model, mu, eps_core)
        else:  # balanced calls under the cap; panels split past it
            out = np.empty((n,) + s.shape)
            calls = -(-n // max(1, most))
            per = -(-n // calls)
            rows = max(1, NODE_CAP // s.shape[-1])
            for i in range(0, n, per):
                c = slice(i, i + per)
                args = (a[c], _part(model, c), _part(mu, c),
                        _part(eps_core, c))
                for r in range(0, len(s), rows):
                    p = s[r:r + rows]
                    out[c, r:r + rows] = lifshitz_summand(
                        y_lo[c] + p * p, xi, *args)
        out *= 2.0 * s
        return out

    res = adaptive_quad(f, 0.0, S_CUT, rel_tol=quad_tol,
                        breakpoints=BREAKPOINTS)
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
    """Running Matsubara sum of one (model, separation) pair, with its tail
    rule."""

    def __init__(self, q: PressureQuery, ctx: MatsubaraContext,
                 keep_terms: bool):
        self.a = q.separation
        self.model = q.model
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
            name = getattr(self.model, "variant", None) or repr(self.model)
            raise SeriesConvergenceError(
                f"Matsubara sum of model {name} at separation "
                f"{self.a:.6e} m not converged within {self.cap} terms",
                self._result(self.cap))

    def _result(self, terms_used: int) -> PressureResult:
        tail = self.tail
        return PressureResult(
            pressure=self.pref * self.accum,
            terms_used=terms_used,
            series_tail_bound=(abs(self.pref) * tail if math.isfinite(tail)
                               else math.inf),
            quad_error=abs(self.pref) * self.quad_err,
            per_term=None if self.terms is None else tuple(self.terms))


def pressure_curves(separations, models, ctx: MatsubaraContext,
                    quad_tol: float = 1e-9, series_tol: float = 1e-8,
                    keep_terms: bool = False) -> list[list[PressureResult]]:
    """Casimir pressure of every model at every separation, in Pa: one
    curve per model, in the order of ``models``.

    The one Matsubara loop.  Every (model, separation) pair is validated
    as a PressureQuery before any term is computed.  The static term is
    one quadrature per model; at each l >= 1 every pair still summing is
    one component of a single vector-valued quadrature.  Each pair's
    Matsubara sum stops once the geometric tail estimate has stayed below
    series_tol * |partial sum| for three consecutive indices, and then
    leaves the set evaluated at later l; the final tail estimate is
    reported in its result.  Raises SeriesConvergenceError, naming the
    model and the separation and carrying the partial result, if a pair
    reaches its cap on the number of terms first.  FixedReflection
    models cannot share a call with material models.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    fixed = [isinstance(m, FixedReflection) for m in models]
    if any(fixed) and not all(fixed):
        raise ValueError("FixedReflection and material models cannot "
                         "share one pressure_curves call")
    curves = [[_MatsubaraSum(PressureQuery(separation=float(a), model=model,
                                           quad_tol=quad_tol,
                                           series_tol=series_tol),
                             ctx, keep_terms) for a in separations]
              for model in models]
    if not curves[0]:
        raise ValueError("need at least one separation")
    for model, curve in zip(models, curves):  # variant-dependent static
        _add_term(0, ctx, [(model, curve)], quad_tol)
    active = list(zip(models, curves))
    l = 1
    while active:
        _add_term(l, ctx, active, quad_tol)
        active = [(m, left) for m, sums in active
                  if (left := [s for s in sums if s.result is None])]
        l += 1
    return [[s.result for s in curve] for curve in curves]


def _add_term(l: int, ctx: MatsubaraContext, groups: list,
              quad_tol: float) -> None:
    """Integrate term l of every sum in one quadrature and add it;
    ``groups`` lists (model, its sums)."""
    sums = [s for _, group in groups for s in group]
    t, err = _term_integrals(l, matsubara_xi(l, ctx),
                             np.array([s.a for s in sums]),
                             [(m, len(group)) for m, group in groups],
                             quad_tol)
    for s, t_l, err_l in zip(sums, t, err):
        s.add(l, t_l, err_l)


def pressure_curve(separations, model, ctx: MatsubaraContext,
                   quad_tol: float = 1e-9, series_tol: float = 1e-8,
                   keep_terms: bool = False) -> list[PressureResult]:
    """Casimir pressure of one model at every separation, in Pa: a
    one-model ``pressure_curves``, with the same validation, tail rule and
    SeriesConvergenceError."""
    curve, = pressure_curves(separations, [model], ctx, quad_tol,
                             series_tol, keep_terms)
    return curve


def pressure_term(l: int, a: float, model, ctx: MatsubaraContext,
                  quad_tol: float = 1e-9) -> float:
    """Contribution of a single Matsubara index to the pressure, in Pa.

    Includes the 1/2 weight of the l = 0 term; validated as a PressureQuery.
    """
    PressureQuery(separation=a, model=model, quad_tol=quad_tol)
    (t_l,), _ = _term_integrals(l, matsubara_xi(l, ctx), np.array([a]),
                                [(model, 1)], quad_tol)
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
    later-listed).  The names must be distinct.  All models share one
    ``pressure_curves`` loop.
    """
    models = list(models)
    if not models or len(a_grid) == 0:
        raise ValueError("need at least one model and one separation")
    names = [name for name, _ in models]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in {names}")
    curves = pressure_curves(a_grid, [model for _, model in models], ctx,
                             quad_tol, series_tol)
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
