"""Adaptive Gauss-Kronrod quadrature over vectorized integrands.

The pressure integrand is cheap per point but is evaluated very many times
across the Matsubara sum, and a NumPy call costs far more than a node, so
the driver refines in rounds and makes one call of the vectorized
integrand (an array -> array function of any shape), such as the NumPy
kernel of ``reflection.py``, per round: the 21 Kronrod nodes of every
pending panel go in one (n_panels, 21) array.  The rule is QUADPACK's
default pair, 21-point Kronrod with its embedded 10-point Gauss rule
(G10/K21; Piessens et al., QUADPACK, Springer 1983).

Most integrals of the Matsubara sum converge on their first round, so its
fixed cost is kept small.  The first round's panels run between the
interval's ends and the caller's interior breakpoints; they, their
half-widths and their nodes are built once per (lo, hi, breakpoints) and
cached as read-only arrays: the pressure's l >= 1 terms reuse one 3 x 21
grid and its static terms one 4 x 21 grid, graded towards small s.  The
K21 weights and the K21 - G10 differences form one (21, 2) matrix, so each
round's panel integrals and error estimates come from one weight product.

The integrand may be vector-valued: for nodes of shape (n_panels, 21) it
returns shape (*batch, n_panels, 21), one component per leading index;
one call per round serves all of them, and the pressure integrates every
separation of a curve this way.  Each component refines on its own
panels: a round evaluates every component on the union of the panels any
open component bisects, and a component sums only its own leaves, in
order of s.  Neither the weight product nor the sums mix components, so
a component's value and error carry the same bits whatever other
components share its calls.

While the summed error estimate of a component exceeds its target
rel_tol * |integral|, each of its panels whose estimate exceeds target /
(its panel count) is bisected.  The target is floored at the smallest
normal float, because rel_tol * |integral| of a subnormal integral lies
below any estimate the rule can reach.  The per-panel error estimate is
the plain |K21 - G10| difference, which overestimates the true Kronrod
error for smooth integrands and is therefore conservative.

``_nodes`` maps any rule's abscissae onto panels; the Kramers-Kronig core
of ``response.py`` uses it with its own 4-point Gauss rule on fixed panels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# 21-point Kronrod extension of 10-point Gauss (nodes on [-1, 1]): the
# nonnegative nodes and their weights, mirrored below; the Gauss nodes are
# the odd entries, 0.9739... to 0.1488...
_X_HALF = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0,
])
_WK_HALF = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169,
])
_WG_HALF = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287,
])
_XGK = np.concatenate((-_X_HALF, _X_HALF[-2::-1]))
_WGK = np.concatenate((_WK_HALF, _WK_HALF[-2::-1]))
# 10-point Gauss weights aligned with the odd Kronrod nodes
_WG = np.concatenate((_WG_HALF, _WG_HALF[::-1]))
# rows [K21, K21 - G10]: one product gives a panel's integral and its
# error estimate
_W_T = np.vstack((_WGK, _WGK))
_W_T[1, 1::2] -= _WG
# floor of every target: rel_tol * |integral| of a subnormal integral is
# below any estimate the rule can reach
_TINY = np.finfo(float).tiny
# most panels any component may end on
MAX_PANELS = 4000


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its tolerance; carries the achieved error."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


@dataclass
class QuadResult:
    """Integral and error estimate, floats for a scalar integrand and
    arrays of the batch shape for a vector-valued one; ``panels`` is the
    largest number of panels any component ends on."""

    value: float | np.ndarray
    error: float | np.ndarray
    panels: int


def _nodes(lo: np.ndarray, hi: np.ndarray, x: np.ndarray = _XGK):
    """(half-widths, (n_panels, len(x)) nodes) of the panels, for a rule
    with abscissae x on [-1, 1]."""
    half = 0.5 * (hi - lo)
    return half, 0.5 * (hi + lo)[:, None] + half[:, None] * x


@functools.lru_cache(maxsize=16)
def _first_round(lo: float, hi: float, breakpoints: tuple):
    """Read-only (edges, half-widths, nodes) of the panels of [lo, hi]
    between its ends and the interior breakpoints.

    Every call of adaptive_quad with the same interval and breakpoints
    starts from these arrays; they are read-only so that an integrand
    writing into its nodes raises instead of corrupting later calls.
    """
    edges = np.array((lo, *breakpoints, hi), dtype=float)
    if not (np.diff(edges) > 0.0).all():
        raise ValueError("breakpoints must increase strictly inside the "
                         "integration interval")
    half, nodes = _nodes(edges[:-1], edges[1:])
    for arr in (edges, half, nodes):
        arr.flags.writeable = False
    return edges, half, nodes


def _panels(f, half: np.ndarray, nodes: np.ndarray):
    """([Kronrod value, |K21 - G10| estimate] of all panels, batch shape).

    One f call; the first has shape (components, n_panels, 2).  The einsum
    reduces each row on its own; a BLAS matmul does not, and would let a
    component's last bits depend on the number of rows.
    """
    fx = np.asarray(f(nodes), dtype=float)
    ve = np.einsum("ij,kj->ik", fx.reshape(-1, _XGK.size), _W_T)
    ve = ve.reshape(-1, len(half), 2)
    ve *= half[:, None]
    np.abs(ve[..., 1], out=ve[..., 1])
    return ve, fx.shape[:-2]


def _sums(ve: np.ndarray) -> np.ndarray:
    """[value, error] sums over the panels (axis 1), left to right: an
    accumulation is sequential, so each component's sums are its own."""
    return np.add.accumulate(ve, axis=1)[:, -1]


def _open(sums: np.ndarray, rel_tol: float):
    """(open mask, targets) of components with [value, error] ``sums``."""
    target = np.maximum(_TINY, rel_tol * np.abs(sums[:, 0]))
    return sums[:, 1] > target, target


def adaptive_quad(f, lo: float, hi: float, rel_tol: float = 1e-9,
                  breakpoints: tuple = ()) -> QuadResult:
    """Integrate a vectorized f over [lo, hi] to the requested tolerance.

    ``f`` is called once per refinement round with a (n_panels, 21) array
    and returns an array of that shape, or of shape (*batch, n_panels, 21)
    for a vector-valued integrand; each result is reduced before the next
    call, so f may return the same buffer every time.  The first round's
    panels end at lo, at the strictly increasing interior ``breakpoints``
    and at hi; its array is shared between calls and read-only.  Every
    component meets its own rel_tol * |integral|, floored at the smallest
    normal float, on its own panels.
    Raises QuadratureError if a component would need more than MAX_PANELS
    panels; the exception carries the largest achieved error estimate of
    the components still above their target.
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    edges, half, nodes = _first_round(float(lo), float(hi),
                                      tuple(breakpoints))
    ve, batch = _panels(f, half, nodes)
    sums = _sums(ve)
    panels = len(half)
    if _open(sums, rel_tol)[0].any():
        panels = _refine(f, edges, ve, sums, rel_tol)
    if not batch:
        return QuadResult(value=float(sums[0, 0]), error=float(sums[0, 1]),
                          panels=panels)
    return QuadResult(value=sums[:, 0].reshape(batch),
                      error=sums[:, 1].reshape(batch), panels=panels)


def _refine(f, edges, ve, sums, rel_tol: float) -> int:
    """Refine the open components of a first round, updating ``sums`` in
    place; returns the largest leaf count of any component.

    Panels live in one store, with every component's values on each: the
    first round's, then both children of every panel any open component
    bisects, each made once.  A mask marks each component's own leaves.
    They tile [lo, hi], so summing them in order of s, with -0.0 (which
    leaves every sum unchanged) in place of the other panels, makes each
    sum a function of the component's own leaves alone.
    """
    lo_p, hi_p = edges[:-1], edges[1:]
    leaf = np.ones(ve.shape[:2], dtype=bool)
    kids = np.full(len(lo_p), -1)  # store index of each left child
    while True:
        open_, target = _open(sums, rel_tol)
        if not open_.any():
            return int(leaf.sum(axis=1).max())
        err = np.where(leaf, ve[..., 1], -1.0)
        count = leaf.sum(axis=1)
        split = err > (target / count)[:, None]
        split &= open_[:, None]
        stuck = open_ & ~split.any(axis=1)
        if stuck.any():  # the share rounded above every estimate
            split[stuck] = err[stuck] == err[stuck].max(axis=1,
                                                        keepdims=True)
        if (count + split.sum(axis=1) > MAX_PANELS).any():
            raise QuadratureError("adaptive quadrature panel budget "
                                  "exhausted", float(sums[open_, 1].max()))
        new = np.flatnonzero(split.any(axis=0))
        new = new[kids[new] < 0]
        if new.size:
            a, b = lo_p[new], hi_p[new]
            mid = 0.5 * (a + b)
            child_lo = np.stack((a, mid), axis=1).ravel()
            child_hi = np.stack((mid, b), axis=1).ravel()
            child, _ = _panels(f, *_nodes(child_lo, child_hi))
            kids[new] = len(lo_p) + 2 * np.arange(new.size)
            kids = np.concatenate((kids, np.full(child_lo.size, -1)))
            lo_p = np.concatenate((lo_p, child_lo))
            hi_p = np.concatenate((hi_p, child_hi))
            ve = np.concatenate((ve, child), axis=1)
            leaf = np.concatenate(
                (leaf, np.zeros((len(leaf), child_lo.size), dtype=bool)),
                axis=1)
        rows, cols = np.nonzero(split)
        leaf[rows, cols] = False
        leaf[rows, kids[cols]] = True
        leaf[rows, kids[cols] + 1] = True
        order = np.argsort(lo_p, kind="stable")
        rows = np.flatnonzero(open_)
        sums[rows] = _sums(np.where(leaf[rows][:, order, None],
                                    ve[rows][:, order], -0.0))
