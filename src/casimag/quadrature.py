"""Adaptive Gauss-Kronrod quadrature over vectorized integrands.

The pressure integrand is cheap per point but is evaluated very many times
across the Matsubara sum, and a NumPy call costs far more than a node, so
the driver refines in rounds and makes one call of the vectorized
integrand (an array -> array function of any shape), such as the NumPy
kernel of ``reflection.py``, per round: the 15 Kronrod nodes of every
pending panel go in one (n_panels, 15) array.

Most integrals of the Matsubara sum converge on their first round, so its
fixed cost is kept small.  The first round's panels, half-widths and
nodes are built once per (lo, hi, initial_panels) and cached as read-only
arrays: every pressure term reuses one 8 x 15 grid.  The K15 weights and
the K15 - G7 weight differences form one (15, 2) matrix, so each round's
panel integrals and error estimates come from a single matmul.

The integrand may be vector-valued: for nodes of shape (n_panels, 15) it
returns shape (*batch, n_panels, 15), one component per leading index.
The components share the panels, so one call per round serves all of
them; the pressure integrates every separation of a curve this way.

While the summed error estimate of any component exceeds its target
rel_tol * |integral|, every panel whose estimate for such a component
exceeds that component's share target / n_panels is bisected, and all the
children form the next round.  The target is floored at the smallest
normal float, because rel_tol * |integral| of a subnormal integral lies
below any estimate the rule can reach.  The per-panel error estimate is
the plain |K15 - G7| difference, which overestimates the true Kronrod
error for smooth integrands and is therefore conservative.

The Kramers-Kronig core of ``response.py`` applies the same rule
(``_nodes``, ``_W``) on fixed panels, without refinement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1])
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
# columns [K15, K15 - G7]: one matmul gives a panel's integral and its
# error estimate
_W = np.column_stack((_WGK, _WGK))
_W[1::2, 1] -= _WG
# floor of every target: rel_tol * |integral| of a subnormal integral is
# below any estimate the rule can reach
_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its tolerance; carries the achieved error."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


@dataclass
class QuadResult:
    """Integral and error estimate, floats for a scalar integrand and
    arrays of the batch shape for a vector-valued one."""

    value: float | np.ndarray
    error: float | np.ndarray
    panels: int


def _nodes(lo: np.ndarray, hi: np.ndarray):
    """(half-widths, (n_panels, 15) Kronrod nodes) of the panels."""
    half = 0.5 * (hi - lo)
    return half, 0.5 * (hi + lo)[:, None] + half[:, None] * _XGK


@functools.lru_cache(maxsize=16)
def _first_round(lo: float, hi: float, n: int):
    """Read-only (edges, half-widths, nodes) of n equal panels on [lo, hi].

    Every call of adaptive_quad with the same interval and panel count
    starts from these arrays; they are read-only so that an integrand
    writing into its nodes raises instead of corrupting later calls.
    """
    edges = np.linspace(lo, hi, n + 1)
    half, nodes = _nodes(edges[:-1], edges[1:])
    for arr in (edges, half, nodes):
        arr.flags.writeable = False
    return edges, half, nodes


def _panels(f, half: np.ndarray, nodes: np.ndarray):
    """(Kronrod values, |K15 - G7| estimates, batch shape) of all panels.

    One f call; values and estimates have shape (components, n_panels).
    """
    fx = np.asarray(f(nodes), dtype=float)
    kd = fx.reshape(-1, _XGK.size).dot(_W).reshape(-1, len(half), 2)
    kd *= half[:, None]
    return kd[..., 0], np.abs(kd[..., 1]), fx.shape[:-2]


def adaptive_quad(f, lo: float, hi: float, rel_tol: float = 1e-9,
                  initial_panels: int = 4,
                  max_panels: int = 4000) -> QuadResult:
    """Integrate a vectorized f over [lo, hi] to the requested tolerance.

    ``f`` is called once per refinement round with a (n_panels, 15) array
    and returns an array of that shape, or of shape (*batch, n_panels, 15)
    for a vector-valued integrand whose components share the panels.
    The first round's array is shared between calls and read-only.
    Every component meets its own rel_tol * |integral|, floored at the
    smallest normal float.
    Raises QuadratureError if that would take more than max_panels
    panels; the exception carries the largest achieved error estimate of
    the components still above their target.
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    edges, half, nodes = _first_round(float(lo), float(hi), initial_panels)
    lo_p, hi_p = edges[:-1], edges[1:]
    val, err, batch = _panels(f, half, nodes)
    total, total_err = val.sum(axis=-1), err.sum(axis=-1)
    target = np.maximum(_TINY, rel_tol * np.abs(total))

    while (open_ := total_err > target).any():
        over = err[open_]
        split = (over > target[open_, None] / err.shape[-1]).any(axis=0)
        if not split.any():  # the shares rounded above every estimate
            split = (over == over.max(axis=-1, keepdims=True)).any(axis=0)
        if err.shape[-1] + np.count_nonzero(split) > max_panels:
            raise QuadratureError("adaptive quadrature panel budget "
                                  "exhausted", float(total_err[open_].max()))
        a, b = lo_p[split], hi_p[split]
        mid = 0.5 * (a + b)
        child_lo, child_hi = np.concatenate((a, mid)), np.concatenate((mid, b))
        child_val, child_err, _ = _panels(f, *_nodes(child_lo, child_hi))
        keep = ~split
        lo_p = np.concatenate((lo_p[keep], child_lo))
        hi_p = np.concatenate((hi_p[keep], child_hi))
        val = np.concatenate((val[:, keep], child_val), axis=-1)
        err = np.concatenate((err[:, keep], child_err), axis=-1)
        total, total_err = val.sum(axis=-1), err.sum(axis=-1)
        target = np.maximum(_TINY, rel_tol * np.abs(total))

    if not batch:
        return QuadResult(value=float(total[0]), error=float(total_err[0]),
                          panels=len(lo_p))
    return QuadResult(value=total.reshape(batch),
                      error=total_err.reshape(batch), panels=len(lo_p))
