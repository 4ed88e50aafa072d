"""The package against the textbook float reference of ``_textbook.py``:
the static pair formula, every Matsubara term of random points, and every
term of multi-model runs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from casimag import MatsubaraContext, SeriesConvergenceError, lifshitz, \
    nickel, pressure, pressure_curves, refl_pair
from casimag.reflection import static_coefficients

import _textbook

VARIANTS = ("drude", "plasma", "nonlocal")
# the sweep's quadrature target, each term to QUAD_TOL of itself, and the
# reference's relative accuracy per term: 1.5e-13 measured (``_textbook``)
QUAD_TOL = 1e-12
REF_ACCURACY = 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mu", [1.0, 2.0, 110.0, 1e4])
@pytest.mark.parametrize("v_over_vf", [0.0, 7.0])
def test_static_formula_matches_the_paper_forms(variant, mu, v_over_vf):
    # one formula on (a, b, p) for every variant: within 4 eps of the
    # paper's per-variant forms (|r| <= 1), and exact at k = 0
    m = nickel(variant, v_over_vf=v_over_vf)
    k = np.geomspace(1e-3, 1e10, 261)
    for got, want in zip(static_coefficients(k, m, mu),
                         _textbook.static_pair(k, m, mu)):
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps
    got = refl_pair(0, 0.0, replace(m, mu0=mu), MatsubaraContext(300.0))
    assert (got.r_tm, got.r_te) == tuple(
        float(r) for r in _textbook.static_pair(0.0, m, mu))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _scaled(ni, omega_p, gamma, mu0, v_t, v_l):
    """Ni's model ``ni`` with its parameters scaled by the draws."""
    return replace(ni, omega_p=omega_p * ni.omega_p, gamma=gamma * ni.gamma,
                   mu0=mu0, v_t=v_t * ni.v_t, v_l=v_l * ni.v_l)


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None)
@given(variant=st.sampled_from(VARIANTS), omega_p=_log_uniform(0.3, 3.0),
       gamma=_log_uniform(0.1, 10.0),
       mu0=st.sampled_from([1.0, 2.0, 110.0, 1000.0]),
       v_t=st.floats(0.0, 1.5), v_l=st.floats(0.0, 1.5),
       a=_log_uniform(20e-9, 5e-6), temperature=_log_uniform(20.0, 1000.0))
def test_every_term_matches_the_textbook_reference(
        variant, omega_p, gamma, mu0, v_t, v_l, a, temperature):
    # every term l >= 0 of one point, parameters scaled from Ni's; at
    # series_tol = 1e-12 some points end at their term cap, and then the
    # terms of the partial result are compared
    m = _scaled(nickel(variant), omega_p, gamma, mu0, v_t, v_l)
    try:
        res = pressure(a, m, MatsubaraContext(temperature),
                       quad_tol=QUAD_TOL, series_tol=1e-12, keep_terms=True)
    except SeriesConvergenceError as err:
        res = err.partial
    _assert_terms_match(res, m, a, temperature)


_MODEL = st.tuples(st.sampled_from(VARIANTS), _log_uniform(0.5, 2.0),
                   _log_uniform(0.3, 3.0),
                   st.sampled_from([1.0, 2.0, 110.0]), st.floats(0.0, 1.5),
                   st.floats(0.0, 1.5), st.booleans())


@seed(20261021)
@settings(max_examples=12, deadline=None, database=None)
@given(draws=st.lists(_MODEL, min_size=2, max_size=3),
       grid=st.lists(_log_uniform(50e-9, 3e-6), min_size=1, max_size=3,
                     unique=True),
       temperature=_log_uniform(100.0, 1000.0))
def test_every_term_of_random_multi_model_runs_matches_the_reference(
        ni_table, draws, grid, temperature):
    # 2-3 models of their own variants and scaled parameters in one
    # pressure_curves call over 1-3 separations; a model with the optical
    # table is a core group of its own, so runs mixing them span several
    # groups.  Every term of every pair matches the reference, and each
    # curve is its model's one-model run, bit for bit, stopping where that
    # run stops.  At 100 K and above and from 50 nm on a pair takes at
    # most about 1,100 terms, which keeps the reference's loop short.
    models = [_scaled(nickel(v, interband=ni_table if table else None),
                      *scales) for v, *scales, table in draws]
    ctx = MatsubaraContext(temperature)
    curves = pressure_curves(grid, models, ctx, quad_tol=QUAD_TOL,
                             series_tol=1e-10, keep_terms=True)
    for m, curve in zip(models, curves):
        assert curve == pressure_curves(grid, [m], ctx, quad_tol=QUAD_TOL,
                                        series_tol=1e-10,
                                        keep_terms=True)[0]
        for a, res in zip(grid, curve):
            _assert_terms_match(res, m, a, temperature)


def _assert_terms_match(res, m, a, temperature):
    """Every term of ``res`` within QUAD_TOL + REF_ACCURACY of itself."""
    ref = _textbook.terms(m, a, temperature, res.terms_used)
    assert [l for l, _ in res.per_term] == [l for l, _ in ref]
    for (l, got), (_, want) in zip(res.per_term, ref):
        assert abs(got - want) <= (QUAD_TOL + REF_ACCURACY) * abs(want), \
            (l, got, want)


@pytest.mark.parametrize("case", ["free", "table", "table-split"])
def test_every_term_of_a_multi_model_run_matches_the_reference(
        monkeypatch, ni_table, case):
    # one pressure_curves call of mixed variants and two materials, the
    # second at 1.3 omega_p and mu0 = 2: every model at every separation is
    # a component of one grid, whose rows shared by the models must carry
    # each separation's own numbers.  With the optical table the models
    # form three core groups (the table at each omega_p, and drude without
    # it).  The split run keeps every model in each kernel call and takes
    # one separation, or three of the static round's four panels of one,
    # per call: 20 rows per node of a separation fit 70 nodes
    table = None if case == "free" else ni_table
    ni = {v: nickel(v, interband=table) for v in VARIANTS}
    models = [ni["nonlocal"], ni["plasma"], nickel("drude"),
              replace(ni["nonlocal"], omega_p=1.3 * ni["nonlocal"].omega_p,
                      mu0=2.0)]
    grid, temperature = (60e-9, 250e-9, 1.2e-6), 300.0
    sizes, kernel = [], lifshitz.lifshitz_summand
    if case.endswith("split"):
        def spy(y, xi, *args):
            out = kernel(y, xi, *args)
            sizes.append(out.shape[-3])  # separations of the call
            return out

        monkeypatch.setattr(lifshitz, "NODE_CAP", 200)
        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    curves = pressure_curves(grid, models, MatsubaraContext(temperature),
                             quad_tol=QUAD_TOL, series_tol=1e-12,
                             keep_terms=True)
    if case.endswith("split"):
        assert max(sizes) == 1
    for m, curve in zip(models, curves):
        for a, res in zip(grid, curve):
            _assert_terms_match(res, m, a, temperature)
