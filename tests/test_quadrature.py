import math

import numpy as np
import pytest

from casimag import quadrature
from casimag.quadrature import QuadratureError, adaptive_quad

NODES = quadrature._XGK.size  # Kronrod nodes per panel
QUARTERS = (0.25, 0.5, 0.75)  # four equal first-round panels on [0, 1]


def test_rule_tables_from_first_principles():
    x, wk = quadrature._XGK, quadrature._WGK
    gauss, wg = x[1::2], quadrature._WG  # the embedded Gauss pair
    assert x.size == 21 and gauss.size == wg.size == 10
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    for nodes, weights in ((x, wk), (gauss, wg)):
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(2.0, abs=1e-15)

    def moments(nodes, weights, degrees):
        exact = np.array([2.0 / (k + 1) if k % 2 == 0 else 0.0
                          for k in degrees])
        return np.array([weights @ nodes**k for k in degrees]) - exact

    assert np.abs(moments(gauss, wg, range(20))).max() < 1e-15
    assert np.abs(moments(x, wk, range(32))).max() < 1e-15
    # and no higher: G10 misses degree 20, K21 degree 32
    assert abs(moments(gauss, wg, [20])[0]) > 1e-6
    assert abs(moments(x, wk, [32])[0]) > 1e-13
    # the error column is K21 minus G10 on the Gauss nodes
    k21, diff = quadrature._W_T
    assert np.array_equal(k21, wk)
    assert np.array_equal(k21[1::2] - diff[1::2], wg)
    assert np.array_equal(diff[::2], wk[::2])


@pytest.mark.parametrize("n", [1, 2, 7, 45, 57])
def test_components_keep_their_bits_whatever_shares_their_calls(n):
    # component 0 is a sharp Lorentzian that forces refinement in it
    # alone; from 7 components on, so is the last, at another centre, so
    # that two refining components must not share their panels either.
    # The others are smooth and converge on the first round.
    sharp = {0, n - 1} if n >= 7 else {0}
    centres = 0.05 + 0.9 * np.arange(n) / n
    widths = np.where(np.isin(np.arange(n), list(sharp)), 1e-3,
                      1.0)[:, None, None]
    scale = np.geomspace(1e-3, 1e3, n)[:, None, None]

    def f(x, j=slice(None)):
        return scale[j] / (widths[j] ** 2 + (x - centres[j, None, None]) ** 2)

    res = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=(0.3, 0.6))
    alone = [adaptive_quad(lambda x, i=i: f(x, slice(i, i + 1)), 0.0, 1.0,
                           rel_tol=1e-10, breakpoints=(0.3, 0.6))
             for i in range(n)]
    assert res.value.tolist() == [a.value[0] for a in alone]
    assert res.error.tolist() == [a.error[0] for a in alone]
    assert res.panels == max(a.panels for a in alone) > 3
    assert all((a.panels > 3) == (i in sharp) for i, a in enumerate(alone))
    assert np.all(res.error <= 1e-10 * np.abs(res.value))


def test_breakpoints_must_lie_inside_the_interval():
    for bad in ((0.5, 0.5), (0.6, 0.4), (0.0,), (1.0,), (1.5,)):
        with pytest.raises(ValueError, match="breakpoints"):
            adaptive_quad(lambda x: x, 0.0, 1.0, breakpoints=bad)


def test_polynomial_single_panel():
    res = adaptive_quad(lambda x: x**4, 0.0, 1.0, rel_tol=1e-12)
    assert res.value == pytest.approx(0.2, rel=1e-14)


def test_damped_quadratic_matches_closed_form():
    # int_0^T y^2 e^-y dy = 2 - e^-T (T^2 + 2T + 2)
    t = 45.0
    exact = 2.0 - math.exp(-t) * (t * t + 2 * t + 2)
    res = adaptive_quad(lambda y: y * y * np.exp(-y), 0.0, t, rel_tol=1e-10)
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.error <= 1e-10 * abs(res.value)


def test_shifted_interval():
    lo, hi = 3.0, 48.0
    exact = (math.exp(-lo) * (lo * lo + 2 * lo + 2)
             - math.exp(-hi) * (hi * hi + 2 * hi + 2))
    res = adaptive_quad(lambda y: y * y * np.exp(-y), lo, hi, rel_tol=1e-10)
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_refinement_rounds_batch_every_panel_into_one_call():
    # a Lorentzian of width 1e-2 at 0.3 needs several refinement rounds
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    res = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=QUARTERS)
    assert len(calls) >= 3
    assert all(np.prod(shape) % NODES == 0 for shape in calls)
    # one call per round: the first holds the initial panels, each later
    # one both children of every panel bisected in that round
    rows = [np.prod(shape) // NODES for shape in calls]
    assert rows[0] == 4
    assert all(n % 2 == 0 for n in rows[1:])
    assert res.panels == 4 + sum(rows[1:]) // 2
    assert res.value == pytest.approx(exact, rel=1e-10)
    assert res.error <= 1e-10 * abs(res.value)


def test_vector_valued_components_meet_their_own_tolerance():
    # a sharp Lorentzian scaled to 1e-20 beside a smooth quartic of order
    # 1e10: one shared target would leave the small peak unresolved
    def f(x):
        return np.stack((1e-20 / (1e-4 + (x - 0.3) ** 2), 1e10 * x**4))

    exact = np.array([1e-18 * (math.atan(70.0) + math.atan(30.0)), 2e9])
    res = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=QUARTERS)
    assert res.value.shape == res.error.shape == (2,)
    assert np.all(res.error <= 1e-10 * np.abs(res.value))
    assert res.value == pytest.approx(exact, rel=1e-10)
    lorentzian = adaptive_quad(lambda x: f(x)[0], 0.0, 1.0, rel_tol=1e-10,
                               breakpoints=QUARTERS)
    assert res.panels == lorentzian.panels
    assert type(lorentzian.value) is float
    assert type(lorentzian.error) is float


def test_first_round_nodes_are_shared_and_read_only():
    eighths = tuple(np.linspace(0.0, 2.0, 9)[1:-1])
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-x) * np.sin(3.0 * x)

    first = adaptive_quad(f, 0.0, 2.0, rel_tol=1e-12, breakpoints=eighths)
    n_first = len(seen)
    again = adaptive_quad(f, 0.0, 2.0, rel_tol=1e-12, breakpoints=eighths)
    assert seen[n_first] is seen[0]
    assert (again.value, again.error, again.panels) == \
        (first.value, first.error, first.panels)

    def scribble(x):
        x *= 2.0
        return x

    with pytest.raises(ValueError):
        adaptive_quad(scribble, 0.0, 2.0, breakpoints=eighths)
    after = adaptive_quad(f, 0.0, 2.0, rel_tol=1e-12, breakpoints=eighths)
    assert (after.value, after.error) == (first.value, first.error)


def test_subnormal_integral_meets_the_floored_target():
    # rel_tol * |I| underflows below any estimate the rule can reach;
    # the target is floored at the smallest normal float instead
    res = adaptive_quad(lambda y: 1e-318 * y * y * np.exp(-y), 0.0, 45.0,
                        rel_tol=1e-9,
                        breakpoints=tuple(np.linspace(0.0, 45.0, 9)[1:-1]))
    assert res.value == pytest.approx(2e-318, rel=1e-3)
    assert res.panels == 8


def test_zero_integrand():
    res = adaptive_quad(lambda x: np.zeros_like(x), 0.0, 10.0)
    assert res.value == 0.0
    assert res.error == 0.0


def test_panel_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)
    f = lambda x: np.sin(1.0 / x)
    with pytest.raises(QuadratureError) as err:
        adaptive_quad(f, 1e-6, 1.0, rel_tol=1e-12)
    assert err.value.achieved_error > 0.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: x, 1.0, 1.0)


def test_one_failing_component_fails_a_vector_quadrature_as_alone(
        monkeypatch):
    # each component refines on its own panels against MAX_PANELS, so a
    # vector-valued quadrature raises exactly when one of its components'
    # own quadratures would, with that component's achieved error: the
    # static term of a run needs no rerun one model at a time
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)
    parts = [np.cos, lambda x: np.sin(1.0 / x), np.exp, lambda x: x * x]

    def f(x, j=slice(None)):
        return np.stack([g(x) for g in parts[j]])

    def alone(i):
        return adaptive_quad(lambda x: f(x, slice(i, i + 1)), 1e-6, 1.0,
                             rel_tol=1e-12)

    with pytest.raises(QuadratureError) as merged:
        adaptive_quad(f, 1e-6, 1.0, rel_tol=1e-12)
    with pytest.raises(QuadratureError) as bad:
        alone(1)
    assert merged.value.achieved_error == bad.value.achieved_error > 0.0
    for i in (0, 2, 3):
        res = alone(i)
        assert res.error[0] <= 1e-12 * abs(res.value[0])
