"""Output checks for one benchmark operation.

``check_op`` returns a list of problems; an empty list means the operation
is correct.  Every operation of a run is checked, and a failed check counts
the operation as failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import VARIANTS, Op

HEADERS = {
    "ratio": ["a_m", "p_nonlocal", "p_plasma", "p_drude",
              "ratio_nonlocal_over_plasma", "ratio_nonlocal_over_drude",
              "ratio_plasma_over_drude"],
    "pressure": ["a_m", "model", "pressure_pa", "terms_used", "tail_bound",
                 "quad_error"],
    "gradient": ["a_m", "model", "grad_n_per_m"],
    "compare": ["model", "a_nm", "grad_theory", "delta", "ci_halfwidth",
                "inside_ci"],
}


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def _read(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _series(kind: str, header, rows, a_scale: float):
    """{variant: [(a_m, value, row)]} in file order."""
    out = {v: [] for v in VARIANTS}
    if kind == "ratio":
        for row in rows:
            for v in VARIANTS:
                out[v].append((float(row[0]), float(row[header.index(f"p_{v}")]),
                               row))
        return out
    a_col = 1 if kind == "compare" else 0
    v_col = 0 if kind == "compare" else 1
    val_col = 2
    for row in rows:
        out[row[v_col]].append((float(row[a_col]) * a_scale,
                                float(row[val_col]), row))
    return out


def _gradient_from_pressure(p: float, a: float, e) -> float:
    """F' in N/m from P in Pa: PFA, roughness, then the PFA correction."""
    theta = float(np.interp(a, [r[0] for r in e.theta], [r[1] for r in e.theta]))
    return (-2.0 * math.pi * e.radius * p * (1.0 + 10.0 * e.roughness / a**2)
            * (1.0 + theta * a / e.radius))


def check_op(op: Op, returncode: int, out_path: Path) -> list[str]:
    """Problems with one operation's exit code and output CSV."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if not out_path.is_file():
        return ["no output file"]
    try:
        return _check_output(op, out_path)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_output(op: Op, out_path: Path) -> list[str]:
    header, rows = _read(out_path)
    if header != HEADERS[op.kind]:
        return [f"header {header}"]
    want_rows = len(op.expect.grid) * (1 if op.kind == "ratio" else 3)
    if len(rows) != want_rows or any(len(r) != len(header) for r in rows):
        return [f"{len(rows)} rows, want {want_rows} of {len(header)} columns"]

    e = op.expect
    # compare reports uN/m and nm; everything else SI
    unit = 1e-6 if op.kind == "compare" else 1.0
    series = _series(op.kind, header, rows, 1e-9 if op.kind == "compare" else 1.0)
    problems = []
    for v, pts in series.items():
        a_vals = [a for a, _, _ in pts]
        if len(pts) != len(e.grid) or not all(
                _close(a, g, 1e-9) for a, g in zip(a_vals, e.grid)):
            problems.append(f"{v}: separations {a_vals}")
            continue
        vals = [x * unit for _, x, _ in pts]
        if not all(math.isfinite(x) for x in vals):
            problems.append(f"{v}: non-finite value")
            continue
        if op.kind in ("ratio", "pressure"):
            if not all(x < 0.0 for x in vals):
                problems.append(f"{v}: pressure not negative")
        elif not all(x > 0.0 for x in vals):
            problems.append(f"{v}: gradient not positive")
        mags = [abs(x) for x in vals]
        if any(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
            problems.append(f"{v}: |value| not decreasing in a")
        for a, x in zip(a_vals, vals):
            ref = e.anchors.get((round(a * 1e9, 6), v))
            if ref is None:
                continue
            if op.kind in ("gradient", "compare"):
                ref = _gradient_from_pressure(ref, a, e)
            if not _close(x, ref, e.rel_tol):
                problems.append(f"{v}: anchor {a * 1e9:g} nm is {x!r}, "
                                f"reference {ref!r}")
        if op.kind == "pressure":
            for _, _, row in pts:
                terms, tail, qerr = int(row[3]), float(row[4]), float(row[5])
                if terms < 1 or not (math.isfinite(tail) and tail >= 0.0
                                     and math.isfinite(qerr) and qerr >= 0.0):
                    problems.append(f"{v}: bad terms/tail/error in {row}")
        if op.kind == "compare":
            for (a, g_exp), (_, g_th, row) in zip(e.experiment, pts):
                delta, ci = float(row[3]), float(row[4])
                if not (abs(delta - (g_th - g_exp)) <= 1e-9 * g_th
                        and ci > 0.0 and row[5] == str(abs(delta) <= ci).lower()):
                    problems.append(f"{v}: inconsistent comparison row {row}")
    if op.kind == "ratio":
        for row in rows:
            p = {v: float(row[header.index(f"p_{v}")]) for v in VARIANTS}
            for i, n1 in enumerate(VARIANTS):
                for n2 in VARIANTS[i + 1:]:
                    r = float(row[header.index(f"ratio_{n1}_over_{n2}")])
                    if not _close(r, p[n1] / p[n2], 1e-10):
                        problems.append(f"ratio_{n1}_over_{n2} at {row[0]}")
    return problems
