import math

import numpy as np
import pytest

from casimag import (FixedReflection, MaterialModel, MatsubaraContext,
                     PressureQuery, SeriesConvergenceError, lifshitz,
                     matsubara_xi, nickel, pressure, pressure_ratio_table,
                     pressure_term, refl_pair)
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


def test_non_convergence_reports_partial_sum():
    ctx = MatsubaraContext(temperature=300.0, l_max_cap=10)
    q = PressureQuery(separation=50e-9, model=nickel("drude"))
    with pytest.raises(SeriesConvergenceError) as err:
        pressure(q, ctx)
    partial = err.value.partial
    assert partial.terms_used == 10
    assert partial.pressure < 0.0
    assert partial.series_tail_bound > 0.0


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


@pytest.mark.parametrize("r_tm,r_te,name", [(1.5, 0.0, "r_tm"),
                                            (0.0, -1.01, "r_te")])
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

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            pressure_ratio_table([], [("a", nickel("drude"))], CTX)
        with pytest.raises(ValueError):
            pressure_ratio_table([1e-6], [], CTX)
