"""The package against the textbook float reference of ``_textbook.py``:
the static pair formula, and every Matsubara term of random points."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from casimag import MatsubaraContext, SeriesConvergenceError, nickel, \
    pressure, refl_pair
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
    ni = nickel(variant)
    m = replace(ni, omega_p=omega_p * ni.omega_p, gamma=gamma * ni.gamma,
                mu0=mu0, v_t=v_t * ni.v_t, v_l=v_l * ni.v_l)
    try:
        res = pressure(a, m, MatsubaraContext(temperature),
                       quad_tol=QUAD_TOL, series_tol=1e-12, keep_terms=True)
    except SeriesConvergenceError as err:
        res = err.partial
    ref = _textbook.terms(m, a, temperature, res.terms_used)
    assert [l for l, _ in res.per_term] == [l for l, _ in ref]
    for (l, got), (_, want) in zip(res.per_term, ref):
        assert abs(got - want) <= (QUAD_TOL + REF_ACCURACY) * abs(want), \
            (l, got, want)
