"""Sphere-plate force gradient from the plate-plate pressure, and
comparison against measured force-gradient data.

For a sphere of radius R at separation a << R the force gradient follows
from the proximity-force approximation F' = -2 pi R P(a, T); it is then
multiplied by a perturbative surface-roughness factor
1 + 10 (delta_s^2 + delta_p^2)/a^2 and by the leading PFA correction
1 + theta(a, T) a / R.  That composition order is canonical; swapping the
two corrections changes the result only at second order in the small
corrections.  ``gradient_curves`` is that one definition, for every model
of a run from one ``lifshitz.pressure_curves`` loop, and
``compare_models`` compares its curves with measured data; every
separation is checked once, for all models, before any pressure is
computed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .csvio import read_numeric_csv
from .lifshitz import pressure_curves
from .response import MatsubaraContext


@dataclass(frozen=True)
class GeometryParams:
    """Sphere radius, rms roughnesses and optional PFA-correction table.

    A nonempty ``theta_table`` has rows (a [m], theta), |theta| <= 1.  Without
    one theta = 0, which leaves out theta a/R: -0.73% at a = 800 nm with
    R = 61.71 um for the ideal-metal gradient coefficient theta_E/3 =
    -0.564 (Bimonte, Emig, Jaffe & Kardar, EPL 97, 50001 (2012)).
    """

    radius: float
    delta_s: float = 0.0
    delta_p: float = 0.0
    theta_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be finite and > 0")
        if not (0.0 <= self.delta_s < math.inf
                and 0.0 <= self.delta_p < math.inf):
            raise ValueError("roughness must be finite and >= 0")
        if self.theta_table is not None:
            if not self.theta_table:
                raise ValueError("theta_table must have at least one row")
            a_prev = 0.0
            for a, theta in self.theta_table:
                if not a_prev < a < math.inf:
                    raise ValueError("theta_table separations must be finite, "
                                     "strictly increasing and positive")
                if not abs(theta) <= 1.0:
                    raise ValueError("|theta| must not exceed 1")
                a_prev = a


@dataclass(frozen=True)
class ExperimentDataset:
    """Measured force-gradient points (a_i, F'_expt, total error at 67% CL)."""

    a: tuple[float, ...]
    grad_expt: tuple[float, ...]
    err_expt: tuple[float, ...]

    def __post_init__(self):
        n = len(self.a)
        if n == 0 or len(self.grad_expt) != n or len(self.err_expt) != n:
            raise ValueError("dataset columns empty or of differing length")
        if not all(map(math.isfinite,
                       (*self.a, *self.grad_expt, *self.err_expt))):
            raise ValueError("dataset values must be finite")
        if any(a2 <= a1 for a1, a2 in zip(self.a, self.a[1:])):
            raise ValueError("separations must be strictly increasing")
        if any(e <= 0.0 for e in self.err_expt):
            raise ValueError("experimental errors must be > 0")

    @classmethod
    def from_csv(cls, path) -> "ExperimentDataset":
        """Read a CSV with header ``a_nm,grad_uN_per_m,err_uN_per_m``."""
        rows = read_numeric_csv(path, "a_nm,grad_uN_per_m,err_uN_per_m")
        return cls(a=tuple(r[0] * 1e-9 for r in rows),
                   grad_expt=tuple(r[1] * 1e-6 for r in rows),
                   err_expt=tuple(r[2] * 1e-6 for r in rows))


@dataclass(frozen=True)
class ComparisonRow:
    """Experiment-theory difference at one separation.

    ``inside_ci`` is |delta| <= ci_halfwidth, with delta = F'_theor -
    F'_expt and the half-width combining experimental and theoretical
    errors in quadrature.
    """

    a: float
    grad_theory: float
    delta: float
    ci_halfwidth: float
    inside_ci: bool


def read_theta_table(path) -> tuple[tuple[float, float], ...]:
    """Read a PFA-correction table CSV with header ``a_nm,theta``."""
    rows = read_numeric_csv(path, "a_nm,theta")
    return tuple((r[0] * 1e-9, r[1]) for r in rows)


def _check_separation(a: float, geom: GeometryParams) -> None:
    """Reject a separation that is not positive, is outside the
    proximity-force regime (a >= R/10) or makes the roughness correction
    non-perturbative (a <= 10 max(delta_s, delta_p))."""
    if not 0.0 < a < math.inf:
        raise ValueError("separation must be finite and > 0")
    if a >= geom.radius / 10.0:
        raise ValueError("separation too large for the proximity-force "
                         f"regime (need a < R/10 = {geom.radius / 10.0:.3e} m)")
    if a <= 10.0 * max(geom.delta_s, geom.delta_p):
        raise ValueError("roughness correction is perturbative: need "
                         "a > 10 max(delta_s, delta_p)")


def roughness_factor(a: float, geom: GeometryParams) -> float:
    """1 + 10 (delta_s^2 + delta_p^2) / a^2."""
    return 1.0 + 10.0 * (geom.delta_s**2 + geom.delta_p**2) / a**2


def theta_at(a: float, geom: GeometryParams) -> float:
    """theta(a) by linear interpolation of the table; 0 without a table.

    Outside the table range the nearest endpoint is used with a warning.
    """
    if geom.theta_table is None:
        return 0.0
    xs = [row[0] for row in geom.theta_table]
    ys = [row[1] for row in geom.theta_table]
    if a < xs[0] or a > xs[-1]:
        warnings.warn(f"separation {a:.3e} m outside theta table range "
                      f"[{xs[0]:.3e}, {xs[-1]:.3e}]; using nearest endpoint",
                      stacklevel=2)
        return ys[0] if a < xs[0] else ys[-1]
    for (x1, y1), (x2, y2) in zip(geom.theta_table, geom.theta_table[1:]):
        if x1 <= a <= x2:
            return y1 + (y2 - y1) * (a - x1) / (x2 - x1)
    return ys[-1]


def apply_pfa_correction(grad: float, a: float, geom: GeometryParams) -> float:
    """Multiply by the leading proximity-approximation correction
    1 + theta(a) a / R."""
    return grad * (1.0 + theta_at(a, geom) * a / geom.radius)


def gradient_curves(separations, models, geom: GeometryParams,
                    ctx: MatsubaraContext, quad_tol: float = 1e-9,
                    series_tol: float = 1e-8) -> list[list[float]]:
    """Full theoretical force gradient of every model at every separation,
    in N/m, one curve per model: the PFA gradient F' = -2 pi R P(a, T),
    positive for an attractive pressure, then roughness, then the PFA
    correction.

    Every separation is checked (``_check_separation``) before any
    pressure is computed.
    """
    for a in separations:
        _check_separation(a, geom)
    out = []
    for curve in pressure_curves(separations, models, ctx, quad_tol,
                                 series_tol):
        grads = []
        for a, res in zip(separations, curve):
            grad = (-2.0 * math.pi * geom.radius * res.pressure
                    * roughness_factor(a, geom))  # roughness checked above
            grads.append(apply_pfa_correction(grad, a, geom))
        out.append(grads)
    return out


def compare_models(data: ExperimentDataset, models, geom: GeometryParams,
                   ctx: MatsubaraContext, err_theory_rel: float = 0.0,
                   quad_tol: float = 1e-9,
                   series_tol: float = 1e-8) -> list[list[ComparisonRow]]:
    """Per-point differences between theory and the measured gradients,
    one list per model, from one ``gradient_curves``.

    ci_halfwidth combines the experimental error with err_theory_rel *
    F'_theor in quadrature; inside_ci flags |delta| <= ci_halfwidth.
    Every input is checked before any pressure is computed.
    """
    if not 0.0 <= err_theory_rel < math.inf:
        raise ValueError("err_theory_rel must be finite and >= 0")
    out = []
    for grads in gradient_curves(data.a, models, geom, ctx, quad_tol,
                                 series_tol):
        rows = []
        for a, g_th, g_expt, e_expt in zip(data.a, grads, data.grad_expt,
                                           data.err_expt):
            delta = g_th - g_expt
            ci = math.hypot(e_expt, err_theory_rel * g_th)
            rows.append(ComparisonRow(a=a, grad_theory=g_th, delta=delta,
                                      ci_halfwidth=ci,
                                      inside_ci=abs(delta) <= ci))
        out.append(rows)
    return out


# No module of the package calls these two.  They exist only because the
# per-layer benchmark tracer (``perfbench/tracer.py``) binds them by name;
# they go when its bindings move to the curve functions.
def gradient_theory(a, model, geom, ctx, quad_tol=1e-9, series_tol=1e-8):
    return gradient_curves([a], [model], geom, ctx, quad_tol, series_tol)[0][0]


def compare(data, model, geom, ctx, err_theory_rel=0.0, quad_tol=1e-9,
            series_tol=1e-8):
    return compare_models(data, [model], geom, ctx, err_theory_rel,
                          quad_tol, series_tol)[0]
