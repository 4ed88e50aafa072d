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
on its first round of panels (graded finer while y_lo < 0.25).

``pressure_curves`` holds the one Matsubara loop, for every model and
separation of a run, and is the one entry for pressures; ``pressure`` is
its one-point form.  A run's pairs form one grid of models x separations
(``_Table``), built once and compressed along the separations: one leaves
once every model at it has stopped, and a pair that stops earlier keeps
its place, its components integrating to exactly 0.  The loop starts at
the static term, l = 0.  A block of consecutive indices l, ..., l + B - 1
is one vector-valued quadrature over a view of the grid, one kernel call
per round.  The kernel reads the separations as an (S, 1, 1) column, each
model's parameters (the static ones and mu0 at l = 0, omega_p and
effective (gamma, v_t, v_l) above it) as (M, 1, 1, 1, 1) ones, the
block's frequencies as a (B, 1, 1, 1) one (a float for one index) and
``_Table.core``'s (M, B, 1, 1, 1) cores, one per core group and
frequency (1.0 when no model has a table); its result is (M, B, S,
panels, nodes), and row b of the integrals is index l + b.  y, q, k and
exp(-y) depend on the separation, the frequency and the node alone: each
is formed once for every model.  B is 1 while the block's first index
takes the graded first round.  Otherwise it is the most indices whose
first round of the grid fits in the run's work array (``NODE_CAP``), up
to ``BLOCK``; once it admits more than ``BLOCK``, a tail block takes as
many as the slowest pair's tail rule predicts it still needs
(``_MatsubaraSum.needs``), up to what fits.  Each pair takes its terms in
ascending l and ignores those past the index where its sum stops, so
every result carries the bits of one index per quadrature.  On the README
grid (15 separations, 100-800 nm, three models) a run takes 11
quadratures and 11 kernel calls: 101 with one index each, and 297 with
one loop per model.  A round's kernel calls split the separations, each
call keeping every model and frequency and taking as many separations as
the run's flat work array holds (``work_rows`` floats per node of one),
and panels of one when it holds none whole.  An l >= 1 call allocates
nothing node-sized: the kernel lays out its rows in that array
(``reflection.lifshitz_summand``).  A ``reflection.FixedReflection``
(re-exported here) runs alone.

The kernel takes each term's permeability and core from its model: the
static term uses the exact zero-frequency pair on the model's static
parameters and mu0, and above it a model's interband table supplies the
bound-electron core that replaces the leading "1" of the permittivities.

Every Matsubara frequency is ``matsubara_xi(l, ctx)`` and every prefactor
uses ``ctx.temperature``: the MatsubaraContext is the one source of the
temperature.  The terms of every (model, separation) pair are summed in
ascending l, each pair keeping its own tail rule and term cap; results
are deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .quadrature import QuadratureError, _first_round, adaptive_quad
from .reflection import FixedReflection, lifshitz_summand, work_rows
from .response import MatsubaraContext, matsubara_xi

# exp(-45) ~ 3e-20: relative truncation error of the y integral
Y_CUT = 45.0
# upper limit of every term's integral in s, y = y_lo + s^2
S_CUT = math.sqrt(Y_CUT)
# Interior breakpoints in s of the first quadrature round of every l >= 1
# term: three G10/K21 panels, 63 nodes, narrower towards s = 0.  Chosen by
# a sweep of the first round over three-model curves on 12 log-spaced
# separations from 10 nm to 20 um at 10, 300 and 1000 K (with and without
# an optical table above 10 K) and on the README grid: (1.25, 3.25) took
# 9.64 M kernel nodes in all, (1.5, 3.0) 11.55 M, three equal panels
# 12.51 M, and every pair with the upper breakpoint at 2.75 over 13.6 M.
BREAKPOINTS = (1.25, 3.25)
# The first round of the static term, and of every term whose smallest
# y_lo is below Y_LO_STATIC: four panels, 84 nodes.  Over the three
# variants, mu0 in {1, 2, 110, 1e3, 1e4}, v_t = v_l in {1, 7} v_F and 25
# separations from 10 nm to 20 um, a static term estimates at most 0.10 of
# the 1e-9 target; on (1.25, 3.25) 12 of the 18 cases with mu0 <= 110
# refined (up to 96x).  Of eight thresholds from 0 to 0.5, 0.25 took the
# fewest kernel nodes on three-model curves over 12 separations from 10 nm
# to 20 um: 8.19 M at 10 K (8.46 M at 0), 280 k at 300 K (288 k) and 90 k
# at 1000 K (93 k); the README grid takes 140,868 (141,813), none refined.
STATIC_BREAKPOINTS = (0.5, 1.5, 3.25)
Y_LO_STATIC = 0.25
# built at import: in a run's first quadratures they cost 0.1-0.2 ms
_first_round(0.0, S_CUT, BREAKPOINTS)
_first_round(0.0, S_CUT, STATIC_BREAKPOINTS)
# Each run's work array holds work_rows(1) x NODE_CAP floats (806 KB), and
# a kernel call the most nodes whose rows fit, work_rows(m) per node of a
# separation: 14,400 of one model (228 pairs of the 63-node first round),
# 6,300 of three (100 separations), so a README block (15 separations at 6
# indices) is one call.  The kernel writes into the work array, so no call
# frees node-sized temporaries for glibc to return to the OS and the next
# call to fault back in, the cost that held the cap at 3,600 before
# (CHANGES.md has the measurements).
NODE_CAP = 14400
# Most consecutive Matsubara indices one quadrature takes while the work
# array admits no more than BLOCK (while over 25 pairs of one model, or 11
# separations of three, sum on the 63-node round); past that, a tail block
# takes as many as the slowest pair's tail rule predicts.  Timed in-process
# against the allocating kernel at 3,600 nodes and blocks of 16 (medians of
# interleaved loops on a shared 2-core VM), NODE_CAP with 8 took 0.93x on
# the micron grid and with 16 1.00x: its last blocks overshoot sums of
# about 8 terms.  The README loop took 0.77x with 8 and 0.75x with 16 at
# 300 K, 0.71x and 0.66x at 10 K.  A block of one index runs the same code.
BLOCK = 8
# The largest term cap a run accepts: a pair capped higher fails before any
# term instead of summing for hours.  Every cap derived at T >= 1 K and
# a >= 1 nm is below it (the largest, 3,644,565, at 1 nm and 1 K).
MAX_TERMS = 2**22


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


class _Table:
    """The grid of one vector-valued quadrature: every model of a run at
    every separation still summing.  Column i of ``cols`` holds model i's
    omega_p, gamma, v_t, v_l, core group, static parameters and mu0, ``a``
    the (S, 1, 1) separations and ``xis`` the ascending frequencies at
    which every pair is evaluated.  ``view`` is the kernel's model: a
    FixedReflection, which runs alone, or the table itself, whose omega_p,
    effective (gamma, v_t, v_l), static_params and mu0 are (M, 1, 1, 1, 1)
    fields, and whose ``core`` gives every component's interband core,
    the same for every model of a core group (``cores`` holds one model
    per group, and the group column indexes it).  ``xi`` is the one
    frequency as a float, or a (B, 1, 1, 1) column, so component (i, b, j)
    is model i at xis[b] and separation j.  ``dead`` lists the (model,
    separation) indices of the pairs that have stopped while their
    separation still sums.  The variant picks parameters at every l, not
    a formula: every component takes the kernel's one static formula at
    l = 0 and the one formula of ``free_electron_eps`` above it.  ``_with``
    sets the separations, and ``block`` the frequencies; both share the
    table's columns.  A plain class: a frozen dataclass would add about
    0.8 ms to every CLI start."""

    __slots__ = ("cols", "cores", "xis", "a", "xi", "dead", "view",
                 "omega_p", "effective", "static_params", "mu0")

    def __init__(self, cols: np.ndarray, a: np.ndarray, view=None,
                 cores=(), xis=(0.0,), dead=()):
        self.cols, self.a, self.cores, self.xis = cols, a, cores, xis
        self.xi = xis[0] if len(xis) == 1 else np.reshape(xis, (-1, 1, 1, 1))
        self.view, self.dead = self if view is None else view, dead
        if view is None:  # each field a model axis before y's four
            c = cols[:, :, None, None, None, None]
            self.omega_p, self.mu0 = c[0], c[8]
            self.effective, self.static_params = tuple(c[1:4]), tuple(c[5:8])

    @classmethod
    def of(cls, models: list, a: np.ndarray) -> "_Table":
        """The grid of every model at the separations ``a``, at xi = 0;
        ``block`` gives it the frequencies of a block.  A FixedReflection,
        which runs alone, is its own view.  Models without a table form
        one core group, the others one per (table, omega_p, gamma)."""
        a = a[:, None, None]
        if isinstance(models[0], FixedReflection):
            return cls(np.empty((0, 1)), a, models[0])
        groups, fields = {}, []  # core key -> (group, its first model)
        for m in models:  # key None: every model without one
            key = m.interband and (m.interband, m.omega_p, m.gamma)
            g, _ = groups.setdefault(key, (len(groups), m))
            fields.append((m.omega_p, *m.effective, g, *m.static_params,
                           m.mu0))
        return cls(np.array(fields).T, a, None,
                   tuple(m for _, m in groups.values()))

    def _with(self, a: np.ndarray, xis, dead=()) -> "_Table":
        return _Table(self.cols, a, None if self.view is self else self.view,
                      self.cores, xis, dead)

    def block(self, xis: list) -> "_Table":
        """Every pair at each of the ascending frequencies ``xis``, in the
        same columns; the block of the static term is xis = [0.0]."""
        return self._with(self.a, xis, self.dead)

    def core(self, xi):
        """The interband core of every component at the table's ``xis``
        (``xi`` is the table's own): 1.0 when no model has a table, else
        one ``core`` call per core group and frequency, indexed by the
        group column into (M, B, 1, 1, 1)."""
        if all(m.interband is None for m in self.cores):
            return 1.0
        cores = np.array([[m.core(x) for x in self.xis] for m in self.cores])
        return cores[self.cols[4].astype(int), :, None, None, None]


def _term_integrals(table: _Table, quad_tol: float,
                    work: np.ndarray) -> tuple[list, list]:
    """(t_l, error estimates) of the y integral of every component of
    ``table`` in one vector-valued quadrature, with one kernel call per
    round (more when its rows overfill ``work``: each call keeps every
    model and frequency of the block and takes as many separations as fit,
    or panels of one when none does), as one model-major list per
    frequency.  The kernel's float ``xi`` is the table's first frequency:
    0.0 is the static term, the first index of the loop, whose table is a
    block at xi = 0, such as ``_Table.of(models, a)``.  ``work`` is the
    run's flat array: the integrand writes y into its first floats and the
    kernel lays out its rows after it (``reflection.lifshitz_summand``).
    An unsplit round's integrand returns its values in ``work``, which the
    quadrature reduces before its next call.  The components of
    ``table.dead`` are 0 at every node.
    """
    # substitute y = y_lo + s^2: removes the sqrt(y - y_lo) cusp of
    # k = sqrt(q^2 - xi^2/c^2) at the lower endpoint for l >= 1, and the
    # sqrt(k) cusp of the static TE coefficient at small wavevectors
    a, view, xis, dead = table.a, table.view, table.xis, table.dead
    m, n, b = table.cols.shape[1], len(a), len(xis)
    # 1 x frequencies x separations: the model axis, then the block's
    y_lo = (a * (2.0 * table.xi / C_LIGHT)).reshape((1, b) + a.shape)
    breakpoints = (STATIC_BREAKPOINTS if y_lo.min() < Y_LO_STATIC
                   else BREAKPOINTS)
    cap = len(work) // work_rows(m)  # nodes of a separation one call takes

    def summand(y_lo, s2, a):
        """The kernel at y = y_lo + s2, written into ``work``'s start."""
        y = work[:y_lo.size * s2.size].reshape(y_lo.shape[:-2] + s2.shape)
        np.add(y_lo, s2, out=y)
        return lifshitz_summand(y, xis[0], a, view, work)

    def f(s):
        most = cap // (b * s.size)  # separations one call takes
        if n <= most:
            out = summand(y_lo, s * s, a)
        else:  # calls of ``most`` separations; panels split past the cap
            out = np.empty((m, b, n) + s.shape)
            step, panels = max(1, most), max(1, cap // (b * s.shape[-1]))
            for i in range(0, n, step):
                c = slice(i, i + step)
                for r in range(0, len(s), panels):
                    p = s[r:r + panels]
                    out[..., c, r:r + panels, :] = summand(
                        y_lo[..., c, :, :], p * p, a[c])
        out *= 2.0 * s
        for i, j in dead:  # assigned, so no NaN of a stopped pair stays
            out[i, :, j] = 0.0
        return out

    res = adaptive_quad(f, 0.0, S_CUT, rel_tol=quad_tol,
                        breakpoints=breakpoints)
    # each frequency's row, model-major
    return tuple(r.reshape(m, b, n).swapaxes(0, 1).reshape(b, -1).tolist()
                 for r in (res.value, res.error))


def _checked(separations, **tols: float) -> list[float]:
    """The separations as floats, once every tolerance in ``tols`` and
    every separation are checked; ValueError names the first bad one."""
    for name, tol in tols.items():
        if not 0.0 < tol <= 1e-4:
            raise ValueError(f"{name} must be in (0, 1e-4]")
    a = [float(s) for s in separations]
    if not a:
        raise ValueError("need at least one separation")
    for s in a:
        if not 0.0 < s < math.inf:
            raise ValueError(f"separation must be finite and > 0, got {s!r}")
    return a


def _scales(a: float, ctx: MatsubaraContext) -> tuple[float, int]:
    """(prefactor, cap) of separation a: -k_B T/(8 pi a^3), the factor of
    every term, and the highest Matsubara index the sum may use before
    giving up.  ValueError when a and T put either out of float range."""
    try:
        pref = -K_BOLTZMANN * ctx.temperature / (8.0 * math.pi * a**3)
        cap = ctx.l_max_cap
        if cap is None:
            scale = C_LIGHT * HBAR / (4.0 * math.pi * a
                                      * K_BOLTZMANN * ctx.temperature)
            cap = math.ceil(20.0 * scale) + 100
    except (ZeroDivisionError, OverflowError):  # a**3 or a T is 0 or inf
        pref = math.nan
    if not 0.0 < abs(pref) < math.inf:
        raise ValueError(f"separation {a:.6e} m at temperature "
                         f"{ctx.temperature:g} K is out of range: k_B T/"
                         "(8 pi a^3) or the term cap is not a finite "
                         "nonzero float")
    return pref, cap


class _MatsubaraSum:
    """Running Matsubara sum of one (model, separation) pair, with its tail
    rule."""

    def __init__(self, a: float, model, series_tol: float,
                 ctx: MatsubaraContext, keep_terms: bool):
        self.a, self.series_tol = a, series_tol
        self.name = getattr(model, "variant", None) or repr(model)
        self.pref, self.cap = _scales(a, ctx)
        self.accum = 0.0
        self.quad_err = 0.0
        self.terms = [] if keep_terms else None
        self.tail = math.inf
        self.consecutive = 0
        self.prev_t = None
        self.ratio = None
        self.result = None
        if self.cap > MAX_TERMS:
            raise SeriesConvergenceError(
                f"Matsubara sum of model {self.name} at separation "
                f"{a:.6e} m has a term cap of {self.cap}, above the limit "
                f"of {MAX_TERMS} terms", self._result(0))

    def add(self, l: int, t_l: float, err_l: float) -> bool:
        """Add term l (the 1/2 weight of l = 0 included).

        Returns whether the sum goes on: False, with ``result`` set, once
        the tail estimate has stayed below series_tol * |partial sum| for
        three consecutive l >= 1.  Raises SeriesConvergenceError when the
        cap is reached first, or at once when t_l or its error estimate is
        not finite.
        """
        if not math.isfinite(t_l + err_l):  # inf or nan in either
            raise SeriesConvergenceError(
                f"Matsubara term l={l} of model {self.name} at "
                f"separation {self.a:.6e} m is not finite (t_l {t_l}, "
                f"error estimate {err_l})", self._result(l))
        weight = 0.5 if l == 0 else 1.0
        self.accum += weight * t_l
        self.quad_err += weight * err_l
        if self.terms is not None:
            self.terms.append((l, self.pref * weight * t_l))
        if l > 0:
            if t_l == 0.0:
                self.tail = 0.0
            elif self.prev_t is not None and 0.0 < t_l < self.prev_t:
                self.ratio = ratio = t_l / self.prev_t
                self.tail = t_l * ratio / (1.0 - ratio)
            else:
                self.tail = math.inf
            self.prev_t = t_l
            if self.tail <= self.series_tol * self.accum:
                self.consecutive += 1
                if self.consecutive >= 3:
                    self.result = self._result(l + 1)
                    return False
            else:
                self.consecutive = 0
        # terms_used (count incl. l = 0) never exceeds the cap
        if l + 1 >= self.cap:
            raise SeriesConvergenceError(
                f"Matsubara sum of model {self.name} at separation "
                f"{self.a:.6e} m not converged within {self.cap} terms",
                self._result(self.cap))
        return True

    def needs(self, l: int) -> int:
        """How many indices from l on the tail rule predicts this sum
        takes, if its tail keeps falling by the last term ratio: until
        three consecutive estimates meet the rule, and one more, as the
        ratio creeps towards 1; at most up to the cap.  BLOCK while the
        last estimate has no ratio, or the rule's bound is not positive."""
        tail, bound = self.tail, self.series_tol * self.accum
        if tail <= bound:
            k = 3 - self.consecutive
        elif tail == math.inf or not bound > 0.0:
            k = BLOCK
        else:  # the first i >= 1 with tail ratio^i <= bound, and three more
            k = math.ceil(math.log(bound / tail) / math.log(self.ratio)) + 3
        return min(k, self.cap - l)

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

    The one Matsubara loop, from the static term l = 0 on.  The
    tolerances, every separation and every pair's prefactor and term cap
    are checked before any term; a cap above ``MAX_TERMS`` raises
    SeriesConvergenceError.  Every model at every separation still summing
    is one component of a single vector-valued quadrature at each index
    of a block of consecutive l (see the module docstring).  Each pair's
    sum stops once the geometric tail estimate has stayed below
    series_tol * |partial sum| for three consecutive indices, and then
    ignores later terms; a separation leaves the grid once every model at
    it has stopped.  The final tail estimate is reported in its result.
    Raises SeriesConvergenceError, naming the model and the separation and
    carrying the partial result, if a pair reaches its cap on the number
    of terms first or meets a non-finite term, at the index and pair where
    one index per quadrature would.  A block whose quadrature raises
    QuadratureError is run again one index at a time, so the error is
    raised only at an index the sum reaches; the static term, a block of
    one index, raises it at once.  A FixedReflection must be the only
    model of its call.  The kernel's work array belongs to the call, so
    calls may run on several threads.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if len(models) > 1 and any(isinstance(m, FixedReflection)
                               for m in models):
        raise ValueError("a FixedReflection cannot share a pressure_curves "
                         "call with other models")
    seps = _checked(separations, quad_tol=quad_tol, series_tol=series_tol)
    curves = [[_MatsubaraSum(s, model, series_tol, ctx, keep_terms)
               for s in seps] for model in models]
    # this call's own rows for every node-sized array of its kernel calls,
    # one 21-node panel at least
    rows = work_rows(len(models))
    work = np.empty(rows * max(work_rows(1) * NODE_CAP // rows, 21))
    grid = [s for curve in curves for s in curve]  # the table's pairs
    go = [True] * len(grid)  # whether each still sums
    table = _Table.of(models, np.array(seps))
    # separations x indices whose first round fits the work array
    fit = len(work) // rows // _first_round(0.0, S_CUT, BREAKPOINTS)[2].size
    l, single, coarse = 0, 0, False  # below ``single``, one index each
    while grid:
        # the smallest y_lo of index l, as _term_integrals forms it; it
        # only grows, as xi grows and separations only leave the table
        coarse = coarse or (table.a.min() * (2.0 * matsubara_xi(l, ctx)
                                             / C_LIGHT) >= Y_LO_STATIC)
        b, most = 1, fit // len(table.a)
        if coarse and l >= single:  # past BLOCK, what the tail rule predicts
            b = (min(most, max(s.needs(l) for s, ok in zip(grid, go) if ok))
                 if most > BLOCK else min(BLOCK, most) or 1)
        xis = [matsubara_xi(l + i, ctx) for i in range(b)]
        try:
            t, err = _term_integrals(table.block(xis), quad_tol, work)
        except QuadratureError:
            if b == 1:
                raise
            single = l + b  # an index of the block may not be reached
            continue
        for i in range(b):  # each pair takes its terms in ascending l
            go = [ok and s.add(l + i, t_l, e_l) for s, ok, t_l, e_l
                  in zip(grid, go, t[i], err[i])]
        if not all(go):  # a separation leaves once all its pairs stopped
            n = len(go) // len(models)
            live = [any(go[j::n]) for j in range(n)]
            if not all(live):
                keep = live * len(models)
                grid, go = list(compress(grid, keep)), list(compress(go, keep))
                table = table._with(table.a[np.array(live)], table.xis)
            table.dead = [divmod(i, len(table.a)) for i, ok in enumerate(go)
                          if not ok]
        l += b
    return [[s.result for s in curve] for curve in curves]


def pressure(separation: float, model, ctx: MatsubaraContext,
             quad_tol: float = 1e-9, series_tol: float = 1e-8,
             keep_terms: bool = False) -> PressureResult:
    """Casimir pressure at one separation, in Pa (negative = attraction).

    A one-point ``pressure_curves``: same checks, same tail rule, same
    SeriesConvergenceError.
    """
    (res,), = pressure_curves([separation], [model], ctx, quad_tol,
                              series_tol, keep_terms)
    return res

