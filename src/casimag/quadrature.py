"""Adaptive Gauss-Kronrod quadrature over vectorized integrands.

The pressure integrand is cheap per point but is evaluated very many times
across the Matsubara sum, so the driver batches all 15 Kronrod nodes of a
panel into a single call of a vectorized integrand (an array -> array
function), such as the NumPy kernel of ``reflection.py``.

Panels are split worst-error-first until the summed error estimate falls
below max(abs_tol, rel_tol * |integral|).  The per-panel error estimate is
the plain |K15 - G7| difference, which overestimates the true Kronrod
error for smooth integrands and is therefore conservative.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]); the KK
# core of response.py uses the same rule on fixed nodes.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
# 7-point Gauss weights aligned with the odd Kronrod nodes.
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189, 0.2797053914892767, 0.1294849661688697,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its tolerance; carries the achieved error."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


@dataclass
class QuadResult:
    value: float
    error: float
    panels: int


def _panel(f, lo: float, hi: float) -> tuple[float, float]:
    """(Kronrod value, |K15 - G7| error estimate) on one panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(f(mid + half * _XGK), dtype=float)
    k15 = float(half) * float(_WGK @ fx)
    g7 = float(half) * float(_WG @ fx[_GAUSS_IDX])
    return k15, abs(k15 - g7)


def adaptive_quad(f, lo: float, hi: float, rel_tol: float = 1e-9,
                  abs_tol: float = 0.0, initial_panels: int = 4,
                  max_panels: int = 4000) -> QuadResult:
    """Integrate a vectorized f over [lo, hi] to the requested tolerance.

    Raises QuadratureError if max_panels subdivisions cannot reach
    max(abs_tol, rel_tol * |integral|); the exception carries the achieved
    error estimate.
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    edges = np.linspace(lo, hi, initial_panels + 1)
    counter = itertools.count()
    heap = []
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, a, b)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(counter), a, b, val))
    panels = initial_panels

    while total_err > max(abs_tol, rel_tol * abs(total)):
        if panels >= max_panels:
            raise QuadratureError("adaptive quadrature panel budget "
                                  "exhausted", total_err)
        neg_err, _, a, b, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err is -err of the removed panel
        mid = 0.5 * (a + b)
        for lo_i, hi_i in ((a, mid), (mid, b)):
            v, e = _panel(f, lo_i, hi_i)
            total += v
            total_err += e
            heapq.heappush(heap, (-e, next(counter), lo_i, hi_i, v))
        panels += 1

    return QuadResult(value=total, error=total_err, panels=panels)
