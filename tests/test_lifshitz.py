import math
from dataclasses import replace

import numpy as np
import pytest

from casimag import (FixedReflection, MaterialModel, MatsubaraContext,
                     PressureQuery, SeriesConvergenceError, lifshitz,
                     matsubara_xi, nickel, pressure, pressure_curves,
                     pressure_ratio_table, pressure_term, refl_pair)
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
    q = PressureQuery(separation=1e-6, model=FixedReflection(0.0, 0.0))
    res = pressure(q, CTX)
    assert res.pressure == 0.0
    assert res.terms_used == 4


def test_ideal_metal_low_temperature_oracle():
    a = 1e-6
    q = PressureQuery(separation=a, model=FixedReflection(1.0, -1.0),
                      series_tol=1e-6)
    res = pressure(q, MatsubaraContext(temperature=1.0))
    exact = -math.pi**2 * HBAR * C_LIGHT / (240.0 * a**4)
    assert res.pressure == pytest.approx(exact, rel=1e-3)
    assert res.pressure < 0.0


def test_classical_limit_dissipative_model():
    # at 20 um and 300 K every xi_l > 0 term is exponentially dead and the
    # static term carries the polylog closed form
    a = 20e-6
    q = PressureQuery(separation=a, model=nickel("drude"))
    res = pressure(q, CTX)
    expected = classical_pressure(a, 300.0, 1.0, (109.0 / 111.0) ** 2)
    assert res.pressure == pytest.approx(expected, rel=1e-6)


def test_static_term_matches_polylog():
    a = 20e-6
    term = pressure_term(0, a, nickel("drude"), CTX)
    expected = classical_pressure(a, 300.0, 1.0, (109.0 / 111.0) ** 2)
    assert term == pytest.approx(expected, rel=1e-8)


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
    term = pressure_term(1, a, model, CTX)
    assert term == pytest.approx(oracle, rel=1e-6)


def test_high_index_terms_exponentially_suppressed():
    a = 1e-6
    model = nickel("drude")
    res = pressure(PressureQuery(separation=a, model=model), CTX)
    l_big = 27
    assert 2 * a * matsubara_xi(l_big, CTX) / C_LIGHT > 40.0
    term = pressure_term(l_big, a, model, CTX)
    assert abs(term) < 1e-17 * abs(res.pressure)


@pytest.mark.parametrize("l", [430, 440, 450])
def test_subnormal_terms_integrate(l):
    # at 1 um these plasma terms are subnormal floats (l = 450 underflows
    # to -0.0); a relative quadrature target alone would be unreachable
    term = pressure_term(l, 1e-6, nickel("plasma"), CTX)
    assert -1e-300 < term <= 0.0


class TestPressureProperties:
    @pytest.mark.parametrize("variant", ["drude", "plasma", "nonlocal"])
    def test_attraction_and_monotone_decay(self, variant):
        model = nickel(variant)
        grid = np.geomspace(50e-9, 10e-6, 7)
        values = [pressure(PressureQuery(separation=float(a),
                                         model=model),
                           CTX).pressure for a in grid]
        assert all(p < 0.0 for p in values)
        mags = [abs(p) for p in values]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    def test_model_ordering_at_large_separation(self, ni_models):
        for a in (2e-6, 4e-6, 7e-6):
            p = {v: pressure(PressureQuery(separation=a, model=m),
                             CTX).pressure
                 for v, m in ni_models.items()}
            assert abs(p["nonlocal"]) < abs(p["plasma"])
            assert abs(p["nonlocal"]) < abs(p["drude"])

    def test_reported_error_bounds(self):
        q1 = PressureQuery(separation=0.5e-6, model=nickel("nonlocal"),
                           quad_tol=1e-8, series_tol=1e-6)
        q2 = PressureQuery(separation=0.5e-6, model=nickel("nonlocal"),
                           quad_tol=5e-9, series_tol=5e-7)
        r1, r2 = pressure(q1, CTX), pressure(q2, CTX)
        budget = (r1.series_tail_bound + r1.quad_error
                  + r2.series_tail_bound + r2.quad_error)
        assert abs(r1.pressure - r2.pressure) <= budget

    def test_tail_bound_invariant(self):
        q = PressureQuery(separation=1e-6, model=nickel("plasma"),
                          series_tol=1e-8)
        res = pressure(q, CTX)
        assert res.series_tail_bound <= q.series_tol * abs(res.pressure)

    def test_per_term_breakdown(self):
        q = PressureQuery(separation=2e-6, model=nickel("drude"))
        res = pressure(q, CTX, keep_terms=True)
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
    q = PressureQuery(separation=50e-9, model=nickel("drude"))
    with pytest.raises(SeriesConvergenceError, match="5.000000e-08 m"):
        pressure(q, ctx)


@pytest.mark.parametrize("temperature", [4.0, 300.0])
def test_every_frequency_comes_from_the_context(monkeypatch, temperature):
    ctx = MatsubaraContext(temperature=temperature)
    kernel = lifshitz.lifshitz_summand
    seen = []

    def spy(y, xi, *args):
        seen.append(xi)
        return kernel(y, xi, *args)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    model = nickel("drude")
    res = pressure(PressureQuery(separation=5e-6, model=model), ctx)
    assert set(seen) == {matsubara_xi(l, ctx) for l in range(res.terms_used)}
    seen.clear()
    pressure_term(3, 5e-6, model, ctx)
    assert seen and set(seen) == {matsubara_xi(3, ctx)}


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
        res = pressure(PressureQuery(separation=100e-9, model=model), CTX)
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
            point = pressure(PressureQuery(separation=a, model=model), CTX,
                             keep_terms=True)
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
                                      "longitudinal-only"])
    def test_matches_per_model_curves(self, name, ni_models, ni_models_ib):
        # longitudinal-only: v_t = 0 for every component, v_l not
        models = {"material": list(ni_models.values()),
                  "material+table": list(ni_models_ib.values()),
                  "longitudinal-only": [
                      replace(ni_models["nonlocal"], v_t=0.0),
                      ni_models["drude"]]}[name]
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

    def test_unequal_runs_keep_their_models(self, ni_models):
        # once some separations of a model have converged, the runs of
        # components per model differ in length
        a = np.array([100e-9, 200e-9, 300e-9, 500e-9, 700e-9, 900e-9])
        runs = [(ni_models["nonlocal"], 1), (ni_models["plasma"], 3),
                (ni_models["drude"], 2)]
        xi = matsubara_xi(7, CTX)
        t, err = lifshitz._term_integrals(7, xi, a, runs, 1e-9)
        start, t_each, err_each = 0, [], []
        for model, n in runs:
            t_m, err_m = lifshitz._term_integrals(7, xi, a[start:start + n],
                                                  [(model, n)], 1e-9)
            t_each += t_m
            err_each += err_m
            start += n
        assert t == t_each
        assert err == err_each

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

    def test_readme_run_stays_under_the_node_cap(self, monkeypatch,
                                                 ni_models):
        # one quadrature per index l >= 1 for all three models, plus one
        # static quadrature per model; every kernel call within the cap
        grid = np.geomspace(100e-9, 800e-9, 15)
        kernel, quad = lifshitz.lifshitz_summand, lifshitz.adaptive_quad
        sizes, xis, quads = [], [], []

        def spy(y, xi, *args):
            sizes.append(np.size(y))
            xis.append(xi)
            return kernel(y, xi, *args)

        def counting(*args, **kwargs):
            quads.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        monkeypatch.setattr(lifshitz, "adaptive_quad", counting)
        curves = pressure_curves(grid, list(ni_models.values()), CTX)
        terms = max(res.terms_used for curve in curves for res in curve)
        assert len(quads) <= terms + 3
        assert max(sizes) <= lifshitz.NODE_CAP
        assert max(sizes) > lifshitz.NODE_CAP // 2  # the cap is reached
        assert all(type(xi) is float for xi in xis)

    # components split evenly (240), unevenly (300), panels split (50:
    # two of the three first-round panels per call)
    @pytest.mark.parametrize("cap", [240, 300, 50])
    def test_chunked_evaluation_equals_unchunked(self, monkeypatch,
                                                 ni_models, cap):
        grid = (100e-9, 180e-9, 420e-9, 800e-9)
        models = list(ni_models.values())
        outputs = []
        _record_integrand(monkeypatch, outputs)
        monkeypatch.setattr(lifshitz, "NODE_CAP", 10**9)
        expected = pressure_curves(grid, models, CTX, keep_terms=True)
        whole = len(outputs)

        kernel = lifshitz.lifshitz_summand
        sizes = []

        def spy(y, xi, *args):
            sizes.append(np.size(y))
            return kernel(y, xi, *args)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        monkeypatch.setattr(lifshitz, "NODE_CAP", cap)
        assert pressure_curves(grid, models, CTX, keep_terms=True) == \
            expected
        assert max(sizes) <= cap
        assert len(sizes) > len(outputs) - whole  # the rounds were split
        assert len(outputs) == 2 * whole
        assert all(np.array_equal(a, b)
                   for a, b in zip(outputs[:whole], outputs[whole:]))


@pytest.mark.parametrize("a", [100e-9, 800e-9])
def test_quad_error_bounds_the_quadrature_error(ni_models, a):
    for variant, model in ni_models.items():
        loose, tight = (pressure(PressureQuery(separation=a, model=model,
                                               quad_tol=tol), CTX)
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
        pressure(PressureQuery(separation=1e-6, model=m), CTX)


@pytest.mark.parametrize("r_tm,r_te,name", [(1.5, 0.0, "r_tm"),
                                            (0.0, -1.01, "r_te"),
                                            (math.nan, 0.0, "r_tm"),
                                            (0.0, math.inf, "r_te")])
def test_fixed_reflection_out_of_range_rejected(r_tm, r_te, name):
    with pytest.raises(ValueError, match=name):
        FixedReflection(r_tm, r_te)


def test_query_validation():
    with pytest.raises(ValueError):
        PressureQuery(separation=0.0, model=nickel("drude"))
    with pytest.raises(ValueError):
        PressureQuery(separation=1e-6, model=nickel("drude"), quad_tol=1e-3)
    with pytest.raises(ValueError):
        PressureQuery(separation=1e-6, model=nickel("drude"), series_tol=0.0)


@pytest.mark.parametrize("separation", [math.nan, math.inf])
def test_query_rejects_non_finite_separation(separation):
    with pytest.raises(ValueError, match="separation must be finite"):
        PressureQuery(separation=separation, model=nickel("drude"))


@pytest.mark.parametrize("a,quad_tol,match", [
    (math.nan, 1e-9, "separation"),
    (0.0, 1e-9, "separation"),
    (-1e-6, 1e-9, "separation"),
    (1e-6, 5.0, "quad_tol"),
    (1e-6, math.nan, "quad_tol"),
])
def test_pressure_term_validates_like_a_query(monkeypatch, a, quad_tol,
                                              match):
    calls = []
    kernel = lifshitz.lifshitz_summand

    def spy(y, xi, *args):
        calls.append(xi)
        return kernel(y, xi, *args)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    with pytest.raises(ValueError, match=match):
        pressure_term(1, a, nickel("drude"), CTX, quad_tol=quad_tol)
    assert calls == []


class TestRatioTable:
    def test_identical_models_give_unit_ratios(self):
        m = nickel("drude")
        rows = pressure_ratio_table([2e-6], [("a", m), ("b", m)], CTX)
        assert rows[0]["ratio_a_over_b"] == 1.0

    def test_row_layout(self, ni_models):
        models = [(v, ni_models[v]) for v in ("nonlocal", "plasma", "drude")]
        rows = pressure_ratio_table([4e-6, 6e-6], models, CTX)
        assert len(rows) == 2
        assert set(k for k in rows[0] if k.startswith("ratio_")) == {
            "ratio_nonlocal_over_plasma", "ratio_nonlocal_over_drude",
            "ratio_plasma_over_drude"}

    def test_duplicate_names_rejected(self):
        # the second p_<name> would overwrite the first
        with pytest.raises(ValueError, match="duplicate model names"):
            pressure_ratio_table([2e-6], [("a", nickel("drude")),
                                          ("a", nickel("plasma"))], CTX)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            pressure_ratio_table([], [("a", nickel("drude"))], CTX)
        with pytest.raises(ValueError):
            pressure_ratio_table([1e-6], [], CTX)
