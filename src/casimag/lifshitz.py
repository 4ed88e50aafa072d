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
its one-point form.  Every (model, separation) pair of a run is a
component of one table (``_Table``), built once per run and compressed
as pairs converge.  The loop starts at the static term, l = 0, where the
kernel reads each component's static parameters and mu0 as (C, 1, 1)
columns of the table, with one formula for every variant.  A block of
consecutive indices l, ..., l + B - 1 is one vector-valued quadrature
over a view of the table, one kernel call per round; above l = 0 the
kernel reads the separations, omega_p and effective (gamma, v_t, v_l) as
(C, 1, 1) columns, the block's frequencies as a (B, 1, 1, 1) one, and
``_Table.core``, one interband core per core group and frequency (one
float for the variants of a material at one frequency), the groups fixed
when the table is built; row b of the results is index l + b.  B is 1
while the block's first index takes the graded first round.  Otherwise
it is the most indices whose first round of every pair fits in
``NODE_CAP`` nodes, up to ``BLOCK``; once that cap admits more than
``BLOCK``, a tail block takes as many as the slowest pair's tail rule
predicts it still needs (``_MatsubaraSum.needs``), up to the cap.  Each
pair takes its terms in ascending l and ignores those past the index
where its sum stops, so every result carries the bits of one index per
quadrature.  On the README grid (15 separations, 100-800 nm, three
models) a run takes 13 quadratures and 13 kernel calls: 101 with one
index each, and 297 with one loop per model.  A round's kernel calls
split the pairs, each call keeping every frequency of the block, so that
none exceeds ``NODE_CAP`` nodes.  Each ``pressure_curves`` call owns one
work array of NODE_CAP columns, and every node-sized array of an l >= 1
kernel call is one of its rows, so such a call allocates nothing
node-sized.  A ``reflection.FixedReflection`` (re-exported here) runs
alone.

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

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .quadrature import QuadratureError, _first_round, adaptive_quad
from .reflection import WORK_ROWS, FixedReflection, lifshitz_summand
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
# Most quadrature nodes one kernel call evaluates, and the columns of each
# run's work array (1 + WORK_ROWS rows, 806 KB): 228 components of the
# 63-node first round, 171 of the 84-node one, so a README block (45 pairs
# at 5 indices) is one call.  The kernel writes into the work array, so no
# call frees node-sized temporaries for glibc to return to the OS and the
# next call to fault back in, the cost that held the cap at 3,600 before
# (CHANGES.md has the measurements).
NODE_CAP = 14400
# Most consecutive Matsubara indices one quadrature takes while more pairs
# are summing than NODE_CAP admits at BLOCK + 1 indices (29 on the 63-node
# round); past that, a tail block takes as many as the slowest pair's
# tail rule predicts.  Timed in-process against the allocating kernel at
# 3,600 nodes and blocks of 16 (medians of interleaved loops on a shared
# 2-core VM), NODE_CAP with 8 took 0.93x on the micron grid and with 16
# 1.00x: its last blocks overshoot sums of about 8 terms.  The README loop
# took 0.77x with 8 and 0.75x with 16 at 300 K, 0.71x and 0.66x at 10 K.
# A block of one index runs the same code.
BLOCK = 8
# The largest term cap a run accepts: a pair capped higher fails before any
# term instead of summing for hours.  Every cap derived at T >= 1 K and
# a >= 1 nm is below it (the largest, 3,644,565, at 1 nm and 1 K).
MAX_TERMS = 2**22
# each first round's nodes in s, one read-only array shared by every
# term's quadrature, with their s^2 and 2 s
_FIRST = {bp: (s, s * s, 2.0 * s) for bp in (BREAKPOINTS, STATIC_BREAKPOINTS)
          for s in (_first_round(0.0, S_CUT, bp)[2],)}


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
    """Components of one vector-valued quadrature: column i of ``cols``
    holds pair i's a, omega_p, gamma, v_t, v_l, core group, static
    parameters and mu0 (as rows, every field is contiguous), and ``xis``
    the ascending frequencies at which every pair is evaluated.  ``view``
    is the kernel's model: one model shared by every component (a
    FixedReflection, or one MaterialModel; their ``cols`` hold a alone),
    or the table itself, whose ``a``, omega_p, effective (gamma, v_t,
    v_l), static_params and mu0 are fields shaped (C, 1, 1), and whose
    ``core`` gives each group's interband core from ``cores``, one model
    per group.  ``xi`` is the one frequency as a float, or a (B, 1, 1, 1)
    column that broadcasts against the pairs, so component (b, i) is pair
    i at xis[b].  The variant picks parameters at every l, not a formula:
    every component takes the kernel's one static formula at l = 0 and
    the one formula of ``free_electron_eps`` above it.  Indexing with a
    slice or a list of indices takes those pairs, and ``block`` sets the
    frequencies; a slice and a block are views of the table.  A plain
    class: a frozen dataclass would add about 0.8 ms to every CLI start."""

    __slots__ = ("cols", "cores", "xis", "a", "xi", "view", "omega_p",
                 "effective", "static_params", "mu0")

    def __init__(self, cols: np.ndarray, view=None, cores=(), xis=(0.0,)):
        self.cols, self.cores, self.xis = cols, cores, xis
        self.a = cols[0, :, None, None]
        self.xi = xis[0] if len(xis) == 1 else np.reshape(xis, (-1, 1, 1, 1))
        self.view = self if view is None else view
        if view is None:
            self.omega_p = cols[1, :, None, None]
            self.effective = tuple(cols[2:5, :, None, None])
            self.static_params = tuple(cols[6:9, :, None, None])
            self.mu0 = cols[9, :, None, None]

    @classmethod
    def of(cls, models: list, a: np.ndarray) -> "_Table":
        """The table of every (model, separation) pair, model-major, at
        xi = 0; ``block`` gives it the frequencies of a block.  A
        FixedReflection, which runs alone, is its own view.  Models without
        a table form one core group, the others one per (table, omega_p,
        gamma)."""
        if isinstance(models[0], FixedReflection):
            return cls(a[None], models[0])
        groups, fields = {}, []  # core key -> (group, its first model)
        for m in models:  # key None: every model without one
            key = m.interband and (m.interband, m.omega_p, m.gamma)
            g, _ = groups.setdefault(key, (len(groups), m))
            fields.append((m.omega_p, *m.effective, g, *m.static_params,
                           m.mu0))
        return cls(np.vstack((np.tile(a, len(models)),
                              np.array(fields).T.repeat(len(a), axis=1))),
                   None, tuple(m for _, m in groups.values()))

    def _with(self, cols: np.ndarray, xis) -> "_Table":
        return _Table(cols, None if self.view is self else self.view,
                      self.cores, xis)

    def __getitem__(self, j) -> "_Table":
        return self._with(self.cols[:, j], self.xis)

    def block(self, xis: list) -> "_Table":
        """Every pair at each of the ascending frequencies ``xis``, in the
        same columns; the block of the static term is xis = [0.0]."""
        return self._with(self.cols, xis)

    def core(self, xi):
        """The interband core of every component (``xi`` is the table's
        own): one ``core`` call per core group and frequency, and a float
        when that is one call or no model has a table."""
        cores, xis = self.cores, self.xis
        if len(cores) == 1:
            if type(xi) is float:
                return cores[0].core(xi)
            if cores[0].interband is None:
                return 1.0
            return np.reshape([cores[0].core(x) for x in xis], (-1, 1, 1, 1))
        group = self.cols[5]
        out = np.empty((len(xis), len(group)))
        for k, m in enumerate(cores):
            g = group == k
            if g.any():  # a group may have left the table
                for row, x in zip(out, xis):
                    row[g] = m.core(x)
        return out.reshape(np.shape(xi)[:1] + self.a.shape)


def _term_integrals(table: _Table, quad_tol: float,
                    work: np.ndarray) -> tuple[list, list]:
    """(t_l, error estimates) of the y integral of every component of
    ``table`` in one vector-valued quadrature, with one kernel call per
    round (more past ``NODE_CAP``, each with every frequency of the block
    and a share of the pairs), as one row per frequency.  The kernel's
    float ``xi`` is the table's first frequency: 0.0 is the static term,
    the first index of the loop, whose table is a block at xi = 0, such as
    ``_Table.of(models, a)`` or ``_Table(a[None], model)`` for one model.
    ``work``, the run's (1 + WORK_ROWS, NODE_CAP) array, holds every
    node-sized array of a kernel call: y in row 0, the kernel's own rows
    after it.  An unsplit round's integrand returns its values in those
    rows, which the quadrature reduces before its next call.
    """
    # substitute y = y_lo + s^2: removes the sqrt(y - y_lo) cusp of
    # k = sqrt(q^2 - xi^2/c^2) at the lower endpoint for l >= 1, and the
    # sqrt(k) cusp of the static TE coefficient at small wavevectors
    a, view, xis = table.a, table.view, table.xis  # pairs x (panels, nodes)
    y_lo = a * (2.0 * table.xi / C_LIGHT)  # frequencies x pairs, if a block
    n, b = len(a), len(xis)
    breakpoints = (STATIC_BREAKPOINTS if y_lo.min() < Y_LO_STATIC
                   else BREAKPOINTS)
    first, *first_s2 = _FIRST[breakpoints]

    def summand(y_lo, s2, a, view):
        """The kernel at y = y_lo + s2, in the rows of ``work``."""
        shape = y_lo.shape[:-2] + s2.shape
        rows = work[:, :y_lo.size * s2.size].reshape((len(work),) + shape)
        y = np.add(y_lo, s2, out=rows[0])
        return lifshitz_summand(y, xis[0], a, view, rows[1:])

    def f(s):
        most = NODE_CAP // (b * s.size)  # pairs one call may take
        if n <= most:
            s2, two_s = first_s2 if s is first else (s * s, 2.0 * s)
            out = summand(y_lo, s2, a, view)
            out *= two_s
            return out
        # balanced calls under the cap; panels split past it
        out = np.empty(y_lo.shape[:-2] + s.shape)
        calls = -(-n // max(1, most))
        per = -(-n // calls)
        rows = max(1, NODE_CAP // (b * s.shape[-1]))
        for i in range(0, n, per):
            c = slice(i, i + per)
            part = table[c]
            for r in range(0, len(s), rows):
                p = s[r:r + rows]
                out[..., c, r:r + rows, :] = summand(
                    y_lo[..., c, :, :], p * p, part.a, part.view)
        out *= 2.0 * s
        return out

    res = adaptive_quad(f, 0.0, S_CUT, rel_tol=quad_tol,
                        breakpoints=breakpoints)
    return res.value.reshape(b, n).tolist(), res.error.reshape(b, n).tolist()


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
        three consecutive estimates meet the rule, and at most up to the
        cap.  BLOCK while the last estimate has no ratio, or the rule's
        bound is not positive."""
        tail, bound = self.tail, self.series_tol * self.accum
        if tail <= bound:
            k = 3 - self.consecutive
        elif tail == math.inf or not bound > 0.0:
            k = BLOCK
        else:  # the first i >= 1 with tail ratio^i <= bound, and two more
            k = math.ceil(math.log(bound / tail) / math.log(self.ratio)) + 2
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
    SeriesConvergenceError.  Every pair still summing is one
    component of a single vector-valued quadrature at each index of a
    block of consecutive l (see the module docstring).  Each pair's sum
    stops once the geometric tail estimate has stayed below
    series_tol * |partial sum| for three consecutive indices, and then
    leaves the set evaluated at later blocks; the final tail estimate is
    reported in its result.  Raises SeriesConvergenceError, naming the
    model and the separation and carrying the partial result, if a pair
    reaches its cap on the number of terms first or meets a non-finite
    term, at the index and pair where one index per quadrature would.  A
    block whose quadrature raises QuadratureError is run again one index
    at a time, so the error is raised only at an index the sum reaches;
    the static term, a block of one index, raises it at once.
    A FixedReflection must be the only model of its call.  The kernel's
    work array belongs to the call, so calls may run on several threads.
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
    # every node-sized array of the run's kernel calls, this call's own
    work = np.empty((1 + WORK_ROWS, NODE_CAP))
    active = [s for curve in curves for s in curve]
    table = _Table.of(models, np.array(seps))
    fit = NODE_CAP // _FIRST[BREAKPOINTS][0].size  # pairs x indices
    l, single, coarse = 0, 0, False  # below ``single``, one index each
    while active:
        n = len(active)
        # the smallest y_lo of index l, as _term_integrals forms it; it
        # only grows, as xi grows and pairs only leave the table
        coarse = coarse or (table.a.min() * (2.0 * matsubara_xi(l, ctx)
                                             / C_LIGHT) >= Y_LO_STATIC)
        b, most = 1, fit // n
        if coarse and l >= single:  # past BLOCK, what the tail rule predicts
            b = (min(most, max(s.needs(l) for s in active)) if most > BLOCK
                 else min(BLOCK, most) or 1)
        xis = [matsubara_xi(l + i, ctx) for i in range(b)]
        try:
            t, err = _term_integrals(table.block(xis), quad_tol, work)
        except QuadratureError:
            if b == 1:
                raise
            single = l + b  # an index of the block may not be reached
            continue
        keep = [True] * n
        for i in range(b):  # each pair takes its terms in ascending l
            keep = [go and s.add(l + i, t_l, e_l) for s, go, t_l, e_l
                    in zip(active, keep, t[i], err[i])]
        if not all(keep):
            active = [s for s, go in zip(active, keep) if go]
            if not active:
                break
            table = table[np.fromiter(keep, bool, n)]
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

