import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from casimag import (FixedReflection, MaterialModel, MatsubaraContext,
                     SeriesConvergenceError, lifshitz, matsubara_xi,
                     nickel, pressure, pressure_curves, quadrature,
                     refl_pair)
from casimag.constants import C_LIGHT, HBAR, K_BOLTZMANN

CTX = MatsubaraContext(temperature=300.0)


def polylog3(x, n_terms=20000):
    """Independent series oracle: sum_n x^n / n^3 (tail bounded for x=1)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("series oracle defined on [0, 1]")
    total = 0.0
    for n in range(1, n_terms + 1):
        term = x**n / n**3
        total += term
        if x < 1.0 and term < 1e-18 * total:
            break
    if x == 1.0:
        total += 0.5 / n_terms**2  # Euler-Maclaurin tail of sum n^-3
    return total


def test_polylog_oracle_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for x in (0.3, 0.9643, 1.0):
        assert polylog3(x) == pytest.approx(float(mpmath.polylog(3, x)),
                                            rel=1e-9)


def classical_pressure(a, temperature, r_tm_sq, r_te_sq):
    """Static-term-only pressure for constant reflection coefficients."""
    return (-K_BOLTZMANN * temperature / (8.0 * math.pi * a**3)
            * (polylog3(r_tm_sq) + polylog3(r_te_sq)))


def test_vacuum_hook_gives_zero_pressure():
    res = pressure(1e-6, FixedReflection(0.0, 0.0), CTX)
    assert res.pressure == 0.0
    assert res.terms_used == 4


def test_ideal_metal_low_temperature_oracle():
    a = 1e-6
    res = pressure(a, FixedReflection(1.0, -1.0),
                   MatsubaraContext(temperature=1.0), series_tol=1e-6)
    exact = -math.pi**2 * HBAR * C_LIGHT / (240.0 * a**4)
    assert res.pressure == pytest.approx(exact, rel=1e-3)
    assert res.pressure < 0.0


def test_classical_limit_dissipative_model():
    # at 20 um and 300 K every xi_l > 0 term is exponentially dead and the
    # static term carries the polylog closed form
    a = 20e-6
    res = pressure(a, nickel("drude"), CTX)
    expected = classical_pressure(a, 300.0, 1.0, (109.0 / 111.0) ** 2)
    assert res.pressure == pytest.approx(expected, rel=1e-6)


def test_static_term_matches_polylog():
    a = 20e-6
    (l, term), *_ = pressure(a, nickel("drude"), CTX,
                             keep_terms=True).per_term
    assert l == 0
    expected = classical_pressure(a, 300.0, 1.0, (109.0 / 111.0) ** 2)
    assert term == pytest.approx(expected, rel=1e-8)


def _work():
    """A work array of one pressure_curves call, for _term_integrals."""
    return np.empty(lifshitz.work_rows(1) * lifshitz.NODE_CAP)


@pytest.mark.parametrize("v_over_vf", [1.0, 7.0])
@pytest.mark.parametrize("mu0", [1.0, 2.0, 110.0])
@pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
def test_static_term_converges_on_its_first_round(monkeypatch, variant, mu0,
                                                  v_over_vf):
    # lifshitz.STATIC_BREAKPOINTS: one kernel call, no refinement round
    model = replace(nickel(variant, v_over_vf=v_over_vf), mu0=mu0)
    a = np.geomspace(10e-9, 20e-6, 25)
    tally = _kernel_spy(monkeypatch)
    lifshitz._term_integrals(lifshitz._Table.of([model], a), 1e-9, _work())
    assert tally["calls"] == 1


def test_first_matsubara_term_against_trapezoid():
    """Brute-force oracle: dense trapezoid over the reflection module."""
    a = 1e-6
    model = nickel("nonlocal")
    xi = matsubara_xi(1, CTX)
    y_lo = 2.0 * a * xi / C_LIGHT
    y = np.linspace(y_lo, y_lo + 45.0, 200_001)
    integrand = np.empty_like(y)
    for i, yi in enumerate(y):
        q = yi / (2.0 * a)
        k = math.sqrt(max(q * q - (xi / C_LIGHT) ** 2, 0.0))
        r = refl_pair(1, k, model, CTX)
        damp = math.exp(-yi)
        x_tm = r.r_tm**2 * damp
        x_te = r.r_te**2 * damp
        integrand[i] = yi * yi * (x_tm / (1 - x_tm) + x_te / (1 - x_te))
    oracle = (-K_BOLTZMANN * 300.0 / (8.0 * math.pi * a**3)
              * float(np.trapezoid(integrand, y)))
    l, term = pressure(a, model, CTX, keep_terms=True).per_term[1]
    assert l == 1
    assert term == pytest.approx(oracle, rel=1e-6)


def test_high_index_terms_exponentially_suppressed():
    a = 1e-6
    model = nickel("drude")
    res = pressure(a, model, CTX)
    l_big = 27
    assert 2 * a * matsubara_xi(l_big, CTX) / C_LIGHT > 40.0
    pref, _ = lifshitz._scales(a, CTX)
    xi = matsubara_xi(l_big, CTX)
    ((t_l,),), _ = lifshitz._term_integrals(
        lifshitz._Table.of([model], np.array([a])).block([xi]), 1e-9,
        _work())
    assert abs(pref * t_l) < 1e-17 * abs(res.pressure)


@pytest.mark.parametrize("l", [430, 440, 450])
def test_subnormal_terms_integrate(l):
    # at 1 um these plasma terms are subnormal floats (l = 450 underflows
    # to -0.0); a relative quadrature target alone would be unreachable
    pref, _ = lifshitz._scales(1e-6, CTX)
    xi = matsubara_xi(l, CTX)
    ((t_l,),), _ = lifshitz._term_integrals(
        lifshitz._Table.of([nickel("plasma")], np.array([1e-6])).block([xi]),
        1e-9, _work())
    assert -1e-300 < pref * t_l <= 0.0


class TestPressureProperties:
    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_attraction_and_monotone_decay(self, variant):
        model = nickel(variant)
        grid = np.geomspace(50e-9, 10e-6, 7)
        values = [pressure(float(a), model, CTX).pressure for a in grid]
        assert all(p < 0.0 for p in values)
        mags = [abs(p) for p in values]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    def test_model_ordering_at_large_separation(self, ni_models):
        for a in (2e-6, 4e-6, 7e-6):
            p = {v: pressure(a, m, CTX).pressure
                 for v, m in ni_models.items()}
            assert abs(p["nonlocal"]) < abs(p["plasma"])
            assert abs(p["nonlocal"]) < abs(p["drude"])

    def test_reported_error_bounds(self):
        r1, r2 = (pressure(0.5e-6, nickel("nonlocal"), CTX, quad_tol=q,
                           series_tol=s) for q, s in ((1e-8, 1e-6),
                                                      (5e-9, 5e-7)))
        budget = (r1.series_tail_bound + r1.quad_error
                  + r2.series_tail_bound + r2.quad_error)
        assert abs(r1.pressure - r2.pressure) <= budget

    def test_tail_bound_invariant(self):
        series_tol = 1e-8
        res = pressure(1e-6, nickel("plasma"), CTX, series_tol=series_tol)
        assert res.series_tail_bound <= series_tol * abs(res.pressure)

    def test_per_term_breakdown(self):
        res = pressure(2e-6, nickel("drude"), CTX, keep_terms=True)
        assert len(res.per_term) == res.terms_used
        assert res.per_term[0][0] == 0
        total = sum(t for _, t in res.per_term)
        assert total == pytest.approx(res.pressure, rel=1e-12)


@pytest.mark.parametrize("grid", [[50e-9], [50e-9, 5e-6]])
def test_non_convergence_reports_partial_sum(grid):
    # in a curve, the error names the separation that did not converge
    ctx = MatsubaraContext(temperature=300.0, l_max_cap=10)
    with pytest.raises(SeriesConvergenceError) as err:
        pressure_curves(grid, [nickel("drude")], ctx)
    assert "separation 5.000000e-08 m" in str(err.value)
    partial = err.value.partial
    assert partial.terms_used == 10
    assert partial.pressure < 0.0
    assert partial.series_tail_bound > 0.0
    with pytest.raises(SeriesConvergenceError, match="5.000000e-08 m"):
        pressure(50e-9, nickel("drude"), ctx)


@pytest.mark.parametrize("temperature", [4.0, 300.0])
def test_every_frequency_comes_from_the_context(monkeypatch, temperature):
    # the kernel's float xi and each component's frequency, read from the
    # block's frequency list, are Matsubara frequencies of the context,
    # from l = 0 on; only the last block may run past the last index the
    # sum takes.  At 4 K the lone pair's tail blocks are as long as the
    # tail rule predicts, up to a first round of NODE_CAP nodes
    ctx = MatsubaraContext(temperature=temperature)
    kernel = lifshitz.lifshitz_summand
    seen, rows, blocks = [], set(), []

    def spy(y, xi, a, model, *work):
        seen.append(xi)
        freqs = (list(model.xis) if isinstance(model, lifshitz._Table)
                 else [xi])
        rows.update(freqs)
        blocks.append(len(set(freqs)))
        return kernel(y, xi, a, model, *work)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    model = nickel("drude")
    res = pressure(5e-6, model, ctx, keep_terms=True)
    used = {matsubara_xi(l, ctx) for l in range(res.terms_used)}
    assert [l for l, _ in res.per_term] == list(range(res.terms_used))
    assert rows == {matsubara_xi(l, ctx) for l in range(len(rows))}
    assert used <= rows
    assert len(rows) < res.terms_used + blocks[-1]
    first = quadrature._first_round(0.0, lifshitz.S_CUT,
                                    lifshitz.BREAKPOINTS)[2]
    fit = lifshitz.NODE_CAP  # a work array of work_rows(1) floats per node
    assert max(blocks) <= fit // first.size
    assert (max(blocks) > lifshitz.BLOCK) == (temperature == 4.0)
    assert set(seen) <= rows
    assert all(type(xi) is float for xi in seen)


def test_kernel_cost_per_term(monkeypatch, ni_models):
    # y = y_lo + s^2 removes the lower-endpoint cusp of the nonlocal
    # integrand, and each quadrature round is one kernel call, so a term
    # costs about one call and the nonlocal variant no more nodes than
    # the local ones
    kernel = lifshitz.lifshitz_summand
    tally = {}

    def spy(y, xi, *args):
        tally["calls"] += 1
        tally["nodes"] += np.size(y)
        return kernel(y, xi, *args)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    nodes = {}
    for variant, model in ni_models.items():
        tally.update(calls=0, nodes=0)
        res = pressure(100e-9, model, CTX)
        assert tally["calls"] <= res.terms_used + 3, variant
        nodes[variant] = tally["nodes"]
    assert nodes["nonlocal"] <= 1.1 * nodes["plasma"]


def _kernel_spy(monkeypatch):
    kernel = lifshitz.lifshitz_summand
    tally = {"calls": 0, "xi": []}

    def spy(y, xi, *args):
        tally["calls"] += 1
        tally["xi"].append(xi)
        return kernel(y, xi, *args)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    return tally


class TestPressureCurve:
    GRID = (100e-9, 180e-9, 420e-9, 800e-9, 2e-6, 5e-6)

    @pytest.mark.parametrize("name", ["drude", "plasma", "nonlocal", "ideal",
                                      "nonlocal+table"])
    def test_matches_per_point_pressure(self, name, ni_models, ni_models_ib):
        model = {"ideal": FixedReflection(1.0, -1.0),
                 "nonlocal+table": ni_models_ib["nonlocal"],
                 **ni_models}[name]
        curve, = pressure_curves(self.GRID, [model], CTX, keep_terms=True)
        assert len(curve) == len(self.GRID)
        for a, res in zip(self.GRID, curve):
            point = pressure(a, model, CTX, keep_terms=True)
            assert res.terms_used == point.terms_used, a
            assert res.pressure == pytest.approx(point.pressure, rel=1e-12)
            assert len(res.per_term) == res.terms_used
            for (l1, t1), (l2, t2) in zip(res.per_term, point.per_term):
                assert l1 == l2
                assert t1 == pytest.approx(t2, rel=1e-12, abs=1e-12 * abs(
                    point.pressure))

    def test_one_kernel_call_per_index_for_the_readme_grid(self, monkeypatch,
                                                            ni_models):
        # every separation still summing at index l shares one call per
        # quadrature round, and nearly every round-one estimate converges
        grid = np.geomspace(100e-9, 800e-9, 15)
        tally = _kernel_spy(monkeypatch)
        for variant, model in ni_models.items():
            tally["calls"] = 0
            curve, = pressure_curves(grid, [model], CTX)
            assert tally["calls"] <= curve[0].terms_used + 3, variant
        assert all(type(xi) is float for xi in tally["xi"])

    def test_quad_error_bounds_the_quadrature_error(self, ni_models):
        # panels refined for one separation, or for one model of a
        # multi-model call, are shared by all; each component's estimate
        # must still bound its own error
        grid = (100e-9, 160e-9, 244e-9, 800e-9)
        variants = list(ni_models)
        for names in [[v] for v in variants] + [variants]:
            models = [ni_models[v] for v in names]
            loose, tight = (pressure_curves(grid, models, CTX, quad_tol=tol)
                            for tol in (1e-9, 1e-13))
            for variant, lo_curve, ti_curve in zip(names, loose, tight):
                for lo, ti in zip(lo_curve, ti_curve):
                    assert lo.terms_used == ti.terms_used, variant
                    assert abs(lo.pressure - ti.pressure) <= lo.quad_error, \
                        variant

    def test_separations_are_validated_before_any_term(self, monkeypatch):
        tally = _kernel_spy(monkeypatch)
        with pytest.raises(ValueError, match="separation must be finite"):
            pressure_curves([1e-6, 0.0], [nickel("drude")], CTX)
        with pytest.raises(ValueError, match="at least one separation"):
            pressure_curves([], [nickel("drude")], CTX)
        assert tally["calls"] == 0


def _one_index_per_quadrature(monkeypatch):
    """BLOCK = 1 with the tail prediction off: every quadrature takes one
    Matsubara index, the reference of every block."""
    monkeypatch.setattr(lifshitz, "BLOCK", 1)
    monkeypatch.setattr(lifshitz._MatsubaraSum, "needs", lambda self, l: 1)


def _record_integrand(monkeypatch, outputs):
    quad = lifshitz.adaptive_quad

    def recording(f, *args, **kwargs):
        def g(s):
            out = f(s)
            outputs.append(out.copy())
            return out
        return quad(g, *args, **kwargs)

    monkeypatch.setattr(lifshitz, "adaptive_quad", recording)


# 10 nm to 20 um: the extremes of the separations the model is used at
WIDE = (10e-9, 30e-9, 100e-9, 1e-6, 5e-6, 20e-6)
# a NODE_CAP above every round of the runs that set it: no call is split
UNSPLIT = 100_000
VARIANTS = ("nonlocal", "plasma", "drude")


@pytest.fixture(scope="module")
def wide_curves(ni_models, ni_models_ib):
    """Three-model curves on WIDE, with per-term breakdowns, computed
    once per (temperature, table, quad_tol) for every test that reads
    them; the 10 K runs take seconds."""
    cache = {}

    def curves(temperature, table=False, quad_tol=1e-9):
        key = (temperature, table, quad_tol)
        if key not in cache:
            models = ni_models_ib if table else ni_models
            cache[key] = pressure_curves(
                WIDE, [models[v] for v in VARIANTS],
                MatsubaraContext(temperature=temperature),
                quad_tol=quad_tol, keep_terms=True)
        return cache[key]

    return curves


class TestPressureCurves:
    GRID = TestPressureCurve.GRID

    @pytest.mark.parametrize("name", ["material", "material+table",
                                      "longitudinal-only", "mixed-core",
                                      "mixed-omega_p"])
    def test_matches_per_model_curves(self, name, ni_models, ni_models_ib):
        # longitudinal-only: v_t = 0 for every component, v_l not;
        # mixed-core: the interband core differs between the models;
        # mixed-omega_p: so does omega_p
        plasma = ni_models["plasma"]
        models = {"material": list(ni_models.values()),
                  "material+table": list(ni_models_ib.values()),
                  "longitudinal-only": [
                      replace(ni_models["nonlocal"], v_t=0.0),
                      ni_models["drude"]],
                  "mixed-core": [ni_models_ib["nonlocal"],
                                 ni_models["drude"]],
                  "mixed-omega_p": [
                      plasma, replace(plasma, omega_p=1.3 * plasma.omega_p)],
                  }[name]
        curves = pressure_curves(self.GRID, models, CTX, keep_terms=True)
        assert len(curves) == len(models)
        for model, curve in zip(models, curves):
            # pressure, terms_used, per_term, tail bound and quad_error
            assert [curve] == pressure_curves(self.GRID, [model], CTX,
                                              keep_terms=True), model

    @pytest.mark.parametrize("temperature", [10.0, 300.0])
    def test_matches_per_model_curves_over_a_wide_grid(
            self, temperature, ni_models, wide_curves):
        # at 10 nm a term's panels refine for some models and not for
        # others; each model's numbers must not depend on the others
        ctx = MatsubaraContext(temperature=temperature)
        for variant, curve in zip(VARIANTS, wide_curves(temperature)):
            assert [curve] == pressure_curves(WIDE, [ni_models[variant]], ctx,
                                              keep_terms=True), variant

    @pytest.mark.parametrize("table", [False, True], ids=["free", "table"])
    @pytest.mark.parametrize("temperature", [10.0, 300.0, 1000.0])
    def test_quad_error_bounds_the_quadrature_error_over_a_wide_grid(
            self, temperature, table, wide_curves):
        # each model's curve is its own (test above), so one three-model
        # run covers every variant
        loose, tight = (wide_curves(temperature, table, tol)
                        for tol in (1e-9, 1e-13))
        for variant, lo_curve, ti_curve in zip(VARIANTS, loose, tight):
            for a, lo, ti in zip(WIDE, lo_curve, ti_curve):
                assert lo.terms_used == ti.terms_used, (variant, a)
                assert abs(lo.pressure - ti.pressure) <= lo.quad_error, \
                    (variant, a)

    def test_stopped_pairs_integrate_to_exactly_zero(self, monkeypatch,
                                                     ni_models):
        # a pair that has stopped while its separation still sums keeps
        # its place in the grid: its components are assigned 0, so even a
        # NaN of its kernel values integrates to 0 with a 0 error estimate,
        # and every other component is that of its model alone
        a = np.array([100e-9, 200e-9, 300e-9, 500e-9, 700e-9, 900e-9])
        models = [ni_models[v] for v in VARIANTS]
        table = lifshitz._Table.of(models, a)
        table.dead = [(0, 1), (2, 1), (1, 4)]
        kernel = lifshitz.lifshitz_summand

        def nan_for_the_dead(y, xi, a_, model, *work):
            out = kernel(y, xi, a_, model, *work)
            for i, j in table.dead:
                out[i, :, j] = np.nan
            return out

        xi = matsubara_xi(7, CTX)
        work = _work()
        monkeypatch.setattr(lifshitz, "lifshitz_summand", nan_for_the_dead)
        (t,), (err,) = lifshitz._term_integrals(table.block([xi]), 1e-9,
                                                work)
        monkeypatch.undo()
        for i, model in enumerate(models):
            (t_m,), (err_m,) = lifshitz._term_integrals(
                lifshitz._Table.of([model], a).block([xi]), 1e-9, work)
            for j in range(len(a)):
                got = t[i * len(a) + j], err[i * len(a) + j]
                assert got == ((0.0, 0.0) if (i, j) in table.dead
                               else (t_m[j], err_m[j])), (i, j)

    def test_models_share_each_separations_rows(self, monkeypatch,
                                                ni_models):
        # y, q, k and exp(-y) depend on the separation, the frequency and
        # the node alone: every l >= 1 kernel call of a three-model run
        # gets y with a model axis of length 1 and returns one row per
        # model
        kernel, shapes = lifshitz.lifshitz_summand, []

        def spy(y, xi, *args):
            out = kernel(y, xi, *args)
            if xi > 0.0:
                shapes.append((np.shape(y), out.shape))
            return out

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        pressure_curves(np.geomspace(100e-9, 800e-9, 15),
                        [ni_models[v] for v in VARIANTS], CTX)
        assert shapes
        for y, out in shapes:
            assert len(y) == len(out)
            assert (y[0], out[0]) == (1, 3)
            assert y[1:] == out[1:]

    def test_pairs_that_stop_early_keep_their_own_bits(self, monkeypatch):
        # at 100 and 180 nm plasma Ni at 1.3 omega_p sums two or more
        # indices longer than at omega_p, so with one index per quadrature
        # the blocks between have a stopped pair whose separation still
        # sums; at quad_tol = 1e-13 they refine.  Each pair keeps the bits
        # of its own one-model run, and no refinement round opens, and so
        # splits a panel of, a stopped component
        plasma = nickel("plasma")
        models = [plasma, replace(plasma, omega_p=1.3 * plasma.omega_p)]
        grid = self.GRID[:4]
        _one_index_per_quadrature(monkeypatch)
        alone = [pressure_curves(grid, [m], CTX, quad_tol=1e-13,
                                 keep_terms=True)[0] for m in models]
        fast, slow = ([r.terms_used for r in curve[:2]] for curve in alone)
        assert min(s - f for s, f in zip(slow, fast)) >= 2
        term_integrals = lifshitz._term_integrals
        refine, is_open = quadrature._refine, quadrature._open
        dead, rounds = [], []  # stopped components; per round, any open

        def spy(table, *args):
            # one index per quadrature: component i * S + j is model i
            # at separation j
            dead[:] = [i * len(table.a) + j for i, j in table.dead]
            return term_integrals(table, *args)

        def opening(sums, rel_tol):
            open_, target = is_open(sums, rel_tol)
            rounds.append(bool(open_[dead].any()))
            return open_, target

        def refining(*args):
            if not dead:
                return refine(*args)
            quadrature._open = opening
            try:
                return refine(*args)
            finally:
                quadrature._open = is_open

        monkeypatch.setattr(lifshitz, "_term_integrals", spy)
        monkeypatch.setattr(quadrature, "_refine", refining)
        assert pressure_curves(grid, models, CTX, quad_tol=1e-13,
                               keep_terms=True) == alone
        assert rounds
        assert not any(rounds)

    @pytest.mark.parametrize("models", [
        [nickel("drude"), FixedReflection(1.0, -1.0)],
        [FixedReflection(1.0, -1.0), FixedReflection(0.5, -0.3)],
    ], ids=["with-material", "two-fixed"])
    def test_fixed_reflection_cannot_join_material_models(self, monkeypatch,
                                                          models):
        # a FixedReflection runs alone; the call fails before any kernel
        # call
        tally = _kernel_spy(monkeypatch)
        with pytest.raises(ValueError, match="cannot share"):
            pressure_curves([1e-6], models, CTX)
        with pytest.raises(ValueError, match="at least one model"):
            pressure_curves([1e-6], [], CTX)
        assert tally["calls"] == 0

    def test_non_convergence_names_model_and_separation(self, ni_models):
        ctx = MatsubaraContext(temperature=300.0, l_max_cap=10)
        with pytest.raises(SeriesConvergenceError,
                           match="model plasma at separation 5.000000e-08 m"):
            pressure_curves([5e-6, 50e-9], [ni_models["plasma"],
                                            ni_models["drude"]], ctx)

    def test_readme_run_takes_whole_first_rounds_under_the_node_cap(
            self, monkeypatch, ni_models):
        # one quadrature per block of indices l >= 1 for all three models,
        # plus one static quadrature for all three.  No term refines and
        # no round is split: the static term and l = 1 are one 45 x
        # 84-node call each, and every other kernel call is one whole
        # 63-node first round of the separations still summing, at each
        # index of its block, whose rows fit the work array: 16 per node of
        # a separation, 4 of them shared by the three models
        grid = np.geomspace(100e-9, 800e-9, 15)
        kernel, quad = lifshitz.lifshitz_summand, lifshitz.adaptive_quad
        sizes, xis, quads = [], [], []

        def spy(y, xi, *args):
            out = kernel(y, xi, *args)
            sizes.append(out.size)  # components: models x nodes of y
            xis.append(xi)
            return out

        def counting(*args, **kwargs):
            quads.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        monkeypatch.setattr(lifshitz, "adaptive_quad", counting)
        curves = pressure_curves(grid, list(ni_models.values()), CTX)
        terms = max(res.terms_used for curve in curves for res in curve)
        assert len(quads) <= 0.2 * (terms + 3)
        assert len(sizes) == len(quads)
        fit = (lifshitz.work_rows(1) * lifshitz.NODE_CAP
               // lifshitz.work_rows(3))
        assert max(sizes) <= 3 * fit
        first, static = (quadrature._first_round(0.0, lifshitz.S_CUT, bp)[2]
                         for bp in (lifshitz.BREAKPOINTS,
                                    lifshitz.STATIC_BREAKPOINTS))
        assert sizes[:2] == [3 * len(grid) * static.size] * 2  # l = 0, 1
        assert all(size % first.size == 0 for size in sizes[2:])
        # a block fills the work array: the largest, 20 indices of 5
        # separations, takes all 6,300 nodes of a separation's rows
        assert max(sizes) == 3 * fit == 3 * 100 * first.size
        assert all(type(xi) is float for xi in xis)

    # a call keeps every model and takes the separations whose rows fit
    # the work_rows(1) x cap floats of the work array, 16 rows per node of a
    # separation: one each (240); two of the 63-node round, one of the
    # static 84-node one (300); one 21-node panel of the three models, the
    # least a call takes (50)
    @pytest.mark.parametrize("cap", [240, 300, 50])
    def test_chunked_evaluation_equals_unchunked(self, monkeypatch,
                                                 ni_models, cap):
        # one index per quadrature in both runs, so they take the same
        # rounds; blocks, tail blocks included, are checked after
        grid = (100e-9, 180e-9, 420e-9, 800e-9)
        models = list(ni_models.values())
        outputs = []
        _record_integrand(monkeypatch, outputs)
        kernel = lifshitz.lifshitz_summand
        sizes = []

        def spy(y, xi, *args):
            out = kernel(y, xi, *args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        _one_index_per_quadrature(monkeypatch)
        monkeypatch.setattr(lifshitz, "NODE_CAP", UNSPLIT)
        expected = pressure_curves(grid, models, CTX, keep_terms=True)
        whole = len(outputs)
        assert len(sizes) == whole  # one kernel call per round

        monkeypatch.setattr(lifshitz, "NODE_CAP", cap)
        assert pressure_curves(grid, models, CTX, keep_terms=True) == \
            expected
        fit = max(lifshitz.work_rows(1) * cap // lifshitz.work_rows(3), 21)
        assert max(sizes[whole:]) <= 3 * fit
        assert len(sizes) - whole > whole  # the rounds were split
        assert len(outputs) == 2 * whole
        assert all(np.array_equal(a, b)
                   for a, b in zip(outputs[:whole], outputs[whole:]))
        # blocks of indices: at NODE_CAP, under the same cap, and unsplit
        monkeypatch.undo()
        for node_cap in (lifshitz.NODE_CAP, cap, UNSPLIT):
            monkeypatch.setattr(lifshitz, "NODE_CAP", node_cap)
            assert pressure_curves(grid, models, CTX, keep_terms=True) == \
                expected

    @pytest.mark.parametrize("temperature", [10.0, 300.0])
    def test_node_cap_changes_no_bit_over_a_wide_grid(
            self, monkeypatch, temperature, ni_models):
        # a kernel call's values live in the run's work array, which the
        # next call overwrites, until the quadrature has reduced them.  At
        # quad_tol = 1e-13 blocks refine.  At NODE_CAP a block of at most
        # BLOCK indices takes one call per round, and only the refinement
        # rounds of a tail block, whose first round may fill the work
        # array, split; at the old cap of 3,600 nodes rounds of the shorter
        # blocks split too, so a round reduced after a later call would
        # show here
        models = [ni_models[v] for v in VARIANTS]
        ctx = MatsubaraContext(temperature=temperature)
        quad, kernel = lifshitz.adaptive_quad, lifshitz.lifshitz_summand
        rounds, starts = [], []  # per round: [kernel calls, frequencies]

        def spy(y, xi, a, model, *work):
            rounds[-1][0] += 1
            rounds[-1][1].update(model.xis
                                 if isinstance(model, lifshitz._Table)
                                 else [xi])
            return kernel(y, xi, a, model, *work)

        def counting(f, *args, **kwargs):
            starts.append(len(rounds))

            def g(s):
                rounds.append([0, set()])
                return f(s)
            return quad(g, *args, **kwargs)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        monkeypatch.setattr(lifshitz, "adaptive_quad", counting)
        curves = {}
        for node_cap in (lifshitz.NODE_CAP, 3600):
            monkeypatch.setattr(lifshitz, "NODE_CAP", node_cap)
            rounds.clear()
            starts.clear()
            curves[node_cap] = pressure_curves(WIDE, models, ctx,
                                               quad_tol=1e-13,
                                               keep_terms=True)
            blocks = [len(rounds[i][1]) > 1 for i in starts]
            refined = [j - i > 1 for i, j in
                       zip(starts, starts[1:] + [len(rounds)])]
            split = [len(xis) for calls, xis in rounds
                     if calls > 1 and len(xis) > 1]  # their block sizes
            assert any(b and r for b, r in zip(blocks, refined)), node_cap
            assert split, node_cap
            assert (min(split) <= lifshitz.BLOCK) == (node_cap == 3600)
        assert curves[lifshitz.NODE_CAP] == curves[3600]


def _outcome(*args, **kwargs):
    """The curves of a pressure_curves call with per-term breakdowns, or
    the message and partial result of its SeriesConvergenceError."""
    try:
        return pressure_curves(*args, keep_terms=True, **kwargs)
    except SeriesConvergenceError as err:
        return str(err), err.partial


def _block_sizes(monkeypatch):
    """The number of Matsubara indices of each quadrature, as a list
    filled while the spy is installed."""
    term_integrals, sizes = lifshitz._term_integrals, []

    def spy(table, *args):
        sizes.append(len(table.xis))
        return term_integrals(table, *args)

    monkeypatch.setattr(lifshitz, "_term_integrals", spy)
    return sizes


class TestBlocks:
    # a block evaluates consecutive indices of the pairs still summing in
    # one quadrature, and once the work array admits more than BLOCK
    # indices, as many as the slowest pair's tail rule predicts;
    # every number must be that of one index per quadrature (BLOCK = 1,
    # the prediction off)

    @pytest.mark.parametrize("block", [1, 3], ids=["float-xi", "column-xi"])
    def test_a_block_is_a_view_of_the_run_table(self, block, ni_models_ib):
        # a block reads the run's pair columns in place: its frequencies
        # are a float or a (B, 1, 1, 1) column that the kernel broadcasts
        # against the (C, 1, 1) pairs, and row b of its results is index b
        a = np.geomspace(100e-9, 800e-9, 5)
        table = lifshitz._Table.of(list(ni_models_ib.values()), a)
        xis = [matsubara_xi(l, CTX) for l in range(5, 5 + block)]
        got = table.block(xis)
        assert np.shares_memory(got.cols, table.cols)
        assert list(got.xis) == xis
        assert np.shape(got.xi) == ((block, 1, 1, 1) if block > 1 else ())
        t, err = lifshitz._term_integrals(got, 1e-9, _work())
        assert np.shape(t) == np.shape(err) == (block, 3 * len(a))
        for row, xi in zip(zip(t, err), xis):
            (t_1,), (err_1,) = lifshitz._term_integrals(table.block([xi]),
                                                        1e-9, _work())
            assert row == (t_1, err_1)

    @pytest.mark.parametrize("table", [False, True], ids=["free", "table"])
    @pytest.mark.parametrize("temperature", [10.0, 300.0])
    def test_blocks_equal_one_index_per_quadrature_over_a_wide_grid(
            self, monkeypatch, temperature, table, ni_models, ni_models_ib,
            wide_curves):
        blocked = wide_curves(temperature, table)
        models = ni_models_ib if table else ni_models
        args = (WIDE, [models[v] for v in VARIANTS],
                MatsubaraContext(temperature=temperature))
        sizes = _block_sizes(monkeypatch)
        assert pressure_curves(*args, keep_terms=True) == blocked
        assert max(sizes) > lifshitz.BLOCK  # tail blocks ran
        _one_index_per_quadrature(monkeypatch)
        sizes.clear()
        assert pressure_curves(*args, keep_terms=True) == blocked
        assert max(sizes) == 1

    def test_the_last_tail_block_reaches_the_last_index(self, monkeypatch,
                                                        ni_models):
        # the README compare grid at 300 K: the nonlocal sum at 100 nm
        # stops at l = 98, past where its last term ratio predicts, since
        # the ratio creeps towards 1; the prediction's one more index keeps
        # that index in the tail block instead of a one-index block after
        # it, and every number is that of one index per quadrature
        args = ([a * 1e-9 for a in (100, 150, 200, 300, 400, 500, 600, 700,
                                    800)],
                [ni_models[v] for v in VARIANTS], CTX)
        sizes = _block_sizes(monkeypatch)
        blocked = pressure_curves(*args, keep_terms=True)
        assert blocked[0][0].terms_used == 99
        assert sizes == [1, 1, 8, 11, 14, 25, 39]
        _one_index_per_quadrature(monkeypatch)
        sizes.clear()
        assert pressure_curves(*args, keep_terms=True) == blocked
        assert max(sizes) == 1

    @pytest.mark.parametrize("case", ["ideal-1K", "cap-10"])
    def test_blocks_raise_what_one_index_per_quadrature_raises(
            self, monkeypatch, case, ni_models):
        # the ideal metal reaches its cap at 1 K, at a term inside a tail
        # block; with l_max_cap = 10 the plasma pair at 50 nm does, in a
        # block of four pairs that ends at the cap
        args = {"ideal-1K": ([200e-9, 1e-6], [FixedReflection(1.0, -1.0)],
                             MatsubaraContext(temperature=1.0)),
                "cap-10": ([5e-6, 50e-9], [ni_models["plasma"],
                                           ni_models["drude"]],
                           MatsubaraContext(temperature=300.0,
                                            l_max_cap=10))}[case]
        sizes = _block_sizes(monkeypatch)
        blocked = _outcome(*args)
        assert isinstance(blocked[0], str)
        assert (max(sizes) > lifshitz.BLOCK) == (case == "ideal-1K")
        _one_index_per_quadrature(monkeypatch)
        assert _outcome(*args) == blocked

    @pytest.mark.parametrize("last", [15, 16])
    def test_quadrature_error_in_a_block_reruns_it_one_index_each(
            self, monkeypatch, last):
        # at 1 um the drude sum takes l <= 15, the last in the block of
        # l = 9, ..., 16 (the prediction pinned to BLOCK; it would end the
        # block at 15); a quadrature that fails at l = 16 must not fail the
        # sum, and one that fails at l = 15 fails it as one index per
        # quadrature does
        monkeypatch.setattr(lifshitz._MatsubaraSum, "needs",
                            lambda self, l: lifshitz.BLOCK)
        xi_bad = matsubara_xi(last, CTX)
        term_integrals = lifshitz._term_integrals

        def failing(table, *args):
            if table.xis[-1] >= xi_bad:
                raise lifshitz.QuadratureError("fails", 1.0)
            return term_integrals(table, *args)

        monkeypatch.setattr(lifshitz, "_term_integrals", failing)
        if last == 15:
            with pytest.raises(lifshitz.QuadratureError):
                pressure(1e-6, nickel("drude"), CTX)
            return
        blocked = pressure(1e-6, nickel("drude"), CTX, keep_terms=True)
        assert blocked.terms_used == 16
        monkeypatch.setattr(lifshitz, "_term_integrals", term_integrals)
        _one_index_per_quadrature(monkeypatch)
        assert pressure(1e-6, nickel("drude"), CTX,
                        keep_terms=True) == blocked


class TestStaticTerm:
    # the static term of every model of a run is one quadrature over the
    # run's component table, in which the kernel gives each component its
    # own model's zero-frequency coefficients
    GRID = TestPressureCurves.GRID[:4]

    @pytest.fixture
    def models(self, ni_models, ni_models_ib):
        """The three variants, a second material with another mu0 and
        omega_p, and a model with the optical table."""
        other = replace(ni_models["nonlocal"], mu0=2.0,
                        omega_p=1.3 * ni_models["nonlocal"].omega_p)
        return [*(ni_models[v] for v in VARIANTS), other,
                ni_models_ib["plasma"]]

    # unsplit, and split as in test_chunked_evaluation_equals_unchunked
    @pytest.mark.parametrize("cap", [None, 240, 300, 50])
    def test_each_model_keeps_its_own_static_term(self, monkeypatch, cap,
                                                  models):
        alone = [pressure_curves(self.GRID, [m], CTX, keep_terms=True)[0]
                 for m in models]
        if cap is not None:
            monkeypatch.setattr(lifshitz, "NODE_CAP", cap)
        tally = _kernel_spy(monkeypatch)
        assert pressure_curves(self.GRID, models, CTX,
                               keep_terms=True) == alone
        # one static kernel call, 20 x 84 nodes, unless the cap splits it
        # (24 rows per node of a separation)
        assert (tally["xi"].count(0.0) == 1) == (cap is None)

    @pytest.mark.parametrize("first", ["nonlocal", "plasma"])
    def test_non_finite_static_term_names_the_first_model(self, ni_models,
                                                          first):
        # mu0 = 1e300 makes the static r_TE of the nonlocal and the plasma
        # variants NaN; the run stops at the pair that one static
        # quadrature per model stops at: the first such model's first
        # separation, which that model run alone names too
        bad = {v: replace(ni_models[v], mu0=1e300)
               for v in ("nonlocal", "plasma")}
        second = "plasma" if first == "nonlocal" else "nonlocal"
        models = [ni_models["drude"], bad[first], bad[second]]
        with np.errstate(all="ignore"):
            got = _outcome(self.GRID, models, CTX)
            alone = _outcome(self.GRID, [bad[first]], CTX)
        assert isinstance(got[0], str)
        assert f"term l=0 of model {first} at separation" in got[0]
        assert got == alone

    @pytest.mark.parametrize("case", ["after-non-finite", "second-model"])
    def test_quadrature_error_in_the_static_term_is_raised(
            self, monkeypatch, ni_models, case):
        # the static term is the loop's first block, of one index, so a
        # QuadratureError of its quadrature is raised as it is: what one
        # static quadrature per model raises for the drude model, since a
        # vector-valued quadrature fails exactly when one component's own
        # would (test_quadrature.py); also after a model whose static term
        # is not finite, which the failed quadrature never returns
        bad = replace(ni_models["nonlocal"], mu0=1e300)
        models = [bad if case == "after-non-finite"
                  else ni_models["nonlocal"], ni_models["drude"]]
        term_integrals = lifshitz._term_integrals

        def failing(table, *args):
            static = table.cols[5:8]  # a, b and p, all zero in drude models
            if table.xis[0] == 0.0 and (static == 0.0).all(axis=0).any():
                raise lifshitz.QuadratureError("fails", 1.0)
            return term_integrals(table, *args)

        monkeypatch.setattr(lifshitz, "_term_integrals", failing)
        with pytest.raises(lifshitz.QuadratureError) as err:
            pressure_curves(self.GRID, models, CTX)
        assert err.value.achieved_error == 1.0


@pytest.mark.parametrize("table", [False, True], ids=["free", "table"])
@pytest.mark.parametrize("block", [0, 1, 3],
                         ids=["static", "float-xi", "column-xi"])
def test_kernel_work_array_changes_no_bit(table, block, ni_models,
                                          ni_models_ib):
    # the same ufuncs in the same order write into the caller's flat
    # buffer, after y: every bit of the result is that of a call that
    # allocates its own.  One model writes D_TE into k^2's row, several
    # into a row of their own, so one model's call takes 7 floats per node
    # of y and three models' 16
    models = list((ni_models_ib if table else ni_models).values())
    a = np.geomspace(10e-9, 20e-6, 7)
    xis = [matsubara_xi(l, CTX) for l in range(5, 5 + block)] or [0.0]
    calls = [lifshitz._Table.of(ms, a).block(xis)
             for ms in ([m] for m in models)]
    calls.append(lifshitz._Table.of(models, a).block(xis))
    assert (type(calls[0].xi) is float) == (block < 2)
    s = quadrature._first_round(0.0, lifshitz.S_CUT, lifshitz.BREAKPOINTS)[2]
    for tab in calls:
        xi, m = tab.xis[0], tab.cols.shape[1]
        y = (tab.a * (2.0 * tab.xi / C_LIGHT)).reshape(
            (1, len(xis)) + tab.a.shape) + s * s
        fresh = lifshitz.lifshitz_summand(y, xi, tab.a, tab.view)
        again = lifshitz.lifshitz_summand(y, xi, tab.a, tab.view)
        assert not np.shares_memory(fresh, again)  # each a new array
        assert fresh.shape == (m,) + y.shape[1:]
        assert lifshitz.work_rows(m) == {1: 7, 3: 16}[m]
        work = np.full(lifshitz.work_rows(m) * y.size, np.nan)
        y_in = work[:y.size].reshape(y.shape)  # the caller's y, in place
        y_in[...] = y
        got = lifshitz.lifshitz_summand(y_in, xi, tab.a, tab.view, work)
        assert got.tobytes() == fresh.tobytes()
        if block:  # in the caller's buffer, which the next call reuses
            assert np.shares_memory(got, work[y.size:])
            y_in *= 2.0
            lifshitz.lifshitz_summand(y_in, xi, tab.a, tab.view, work)
            assert got.tobytes() != fresh.tobytes()
        assert fresh.tobytes() == again.tobytes()


def test_concurrent_runs_get_their_serial_results(ni_models, ni_models_ib):
    # each pressure_curves call has its own work array: three threads,
    # more than the cores of a small machine, running the README loops at
    # once (without and with the optical table, and at 1000 K) with a
    # short switch interval, each get the bits of a serial run
    grid = np.geomspace(100e-9, 800e-9, 15)
    jobs = [([m[v] for v in VARIANTS], MatsubaraContext(temperature=t))
            for m, t in ((ni_models, 300.0), (ni_models_ib, 300.0),
                         (ni_models, 1000.0))]
    serial = [pressure_curves(grid, *job, keep_terms=True) for job in jobs]
    start = threading.Barrier(len(jobs))
    results = [[] for _ in jobs]

    def loop(job, out):
        start.wait(timeout=60)
        for _ in range(6):
            out.append(pressure_curves(grid, *job, keep_terms=True))

    threads = [threading.Thread(target=loop, args=pair)
               for pair in zip(jobs, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for expected, got in zip(serial, results):
        assert got == [expected] * 6


@pytest.mark.parametrize("a", [100e-9, 800e-9])
def test_quad_error_bounds_the_quadrature_error(ni_models, a):
    for variant, model in ni_models.items():
        loose, tight = (pressure(a, model, CTX, quad_tol=tol)
                        for tol in (1e-9, 1e-13))
        assert loose.terms_used == tight.terms_used, variant
        assert abs(loose.pressure - tight.pressure) <= loose.quad_error, \
            variant


def test_dissipationless_nonlocal_pressure_rejected():
    # the static nonlocal coefficients divide by gamma; the pressure path
    # must reject gamma = 0 like the scalar refl_pair does
    ni = nickel("nonlocal")
    m = MaterialModel(omega_p=ni.omega_p, gamma=0.0, mu0=ni.mu0, v_t=ni.v_t,
                      v_l=ni.v_l, variant="nonlocal")
    with pytest.raises(ValueError, match="plasma variant"):
        pressure(1e-6, m, CTX)


@pytest.mark.parametrize("r_tm,r_te,name", [(1.5, 0.0, "r_tm"),
                                            (0.0, -1.01, "r_te"),
                                            (math.nan, 0.0, "r_tm"),
                                            (0.0, math.inf, "r_te")])
def test_fixed_reflection_out_of_range_rejected(r_tm, r_te, name):
    with pytest.raises(ValueError, match=name):
        FixedReflection(r_tm, r_te)


@pytest.mark.parametrize("a,tols,match", [
    (0.0, {}, "separation must be finite"),
    (-1e-6, {}, "separation must be finite"),
    (1e-6, {"quad_tol": 1e-3}, "quad_tol"),
    (1e-6, {"quad_tol": 5.0}, "quad_tol"),
    (1e-6, {"quad_tol": math.nan}, "quad_tol"),
    (1e-6, {"series_tol": 0.0}, "series_tol"),
    (math.nan, {}, "separation must be finite"),
    (math.inf, {}, "separation must be finite"),
    # k_B T/(8 pi a^3): a**3 underflows to 0, overflows, or the quotient
    # underflows to 0
    (1e-309, {}, "separation 1.000000e-309 m at temperature 300 K"),
    (1e291, {}, "out of range"),
    (1e102, {}, "out of range"),
], ids=["zero", "negative", "quad_tol", "quad_tol-above-one", "quad_tol-nan",
        "series_tol", "nan", "inf", "a3-underflow", "a3-overflow",
        "prefactor-underflow"])
@pytest.mark.parametrize("curves", [False, True],
                         ids=["pressure", "pressure_curves"])
def test_inputs_rejected_before_any_kernel_call(monkeypatch, a, tols, match,
                                                curves):
    tally = _kernel_spy(monkeypatch)
    model = nickel("drude")
    with pytest.raises(ValueError, match=match):
        if curves:  # the bad separation after a good one
            pressure_curves([1e-6, a], [model], CTX, **tols)
        else:
            pressure(a, model, CTX, **tols)
    assert tally["calls"] == 0


def test_term_cap_out_of_range_rejected(monkeypatch):
    # c hbar/(4 pi a k_B T): the denominator underflows to 0
    tally = _kernel_spy(monkeypatch)
    with pytest.raises(ValueError, match="temperature 1e-300 K is out of"):
        pressure(1e-7, nickel("drude"), MatsubaraContext(temperature=1e-300))
    assert tally["calls"] == 0


@pytest.mark.parametrize("cap", [None, lifshitz.MAX_TERMS + 1])
def test_unreachable_term_cap_rejected_before_any_kernel_call(monkeypatch,
                                                              cap):
    # at 1e-3 K the derived cap at 100 nm is 36,444,745 terms, which the
    # loop would take hours to reach: every pair's cap, derived or from
    # l_max_cap, is checked against MAX_TERMS before any term
    tally = _kernel_spy(monkeypatch)
    ctx = MatsubaraContext(temperature=300.0 if cap else 1e-3, l_max_cap=cap)
    with pytest.raises(SeriesConvergenceError,
                       match="model plasma at separation 1.000000e-07 m has "
                             f"a term cap of {cap or 36444745}, above the "
                             "limit of 4194304 terms") as err:
        pressure_curves([1e-7, 2e-7], [nickel("plasma"), nickel("drude")],
                        ctx)
    assert err.value.partial.terms_used == 0
    assert tally["calls"] == 0


def test_term_caps_from_1_k_and_1_nm_up_are_reachable():
    # the derived cap grows as 1/(a T), so its largest value at T >= 1 K
    # and a >= 1 nm is the one at 1 K and 1 nm; a cap of MAX_TERMS passes
    assert lifshitz._scales(1e-9, MatsubaraContext(1.0))[1] == 3644565
    assert 3644565 < lifshitz.MAX_TERMS
    ctx = MatsubaraContext(300.0, l_max_cap=lifshitz.MAX_TERMS)
    assert pressure(1e-6, nickel("drude"), ctx) == \
        pressure(1e-6, nickel("drude"), CTX)


@pytest.mark.parametrize("a,mu0,temperature,l", [
    (800e-9, 1e300, 300.0, 0),  # the static r_TE is inf/inf
    (100e-9, 110.0, 1e300, 1),
])
def test_non_finite_term_stops_the_sum(a, mu0, temperature, l):
    # a NaN term used to pass the quadrature as converged, and the sum ran
    # on to its cap with a NaN partial sum
    model = replace(nickel("nonlocal"), mu0=mu0)
    ctx = MatsubaraContext(temperature=temperature)
    with np.errstate(all="ignore"), pytest.raises(
            SeriesConvergenceError,
            match=f"term l={l} of model nonlocal at separation {a:.6e} m "
                  "is not finite") as err:
        pressure(a, model, ctx)
    assert err.value.partial.terms_used == l
