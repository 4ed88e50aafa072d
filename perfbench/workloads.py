"""Benchmark workloads: seeded input files and the CLI operations of one round.

A round is the list of CLI calls a user makes for one task; the benchmark
repeats whole rounds, so every run does the same mix of operations.  The
seed changes only the bytes of the inputs, never the amount of work:

* config files: key order, comment lines, spacing around '=', whether the
  default tolerances are spelled out, and the decimal spelling of every
  number (each spelling parses to the same double);
* the optical table: a fixed 600-row Lorentz-Drude Ni grid plus 24 rows
  inserted at seeded positions on the table's own linear interpolant, so
  the row grid changes while the interpolated absorption does not;
* experiment files: the synthetic measured gradients and their errors;
* PFA-correction (theta) tables: the theta values.

Separations and sweep sizes are fixed, because the work per pressure point
depends on the separation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ANCHORS_PATH = HERE / "anchors.json"

VARIANTS = ("nonlocal", "plasma", "drude")  # order of --model all

MATERIAL = (("variant", "nonlocal"), ("omega_p_ev", "4.89"),
            ("gamma_ev", "0.0436"), ("mu0", "110"), ("v_t_over_vf", "7"),
            ("v_l_over_vf", "7"), ("v_f_m_s", "1.31e6"))
GEOMETRY = (("radius_m", "61.71e-6"), ("delta_s_m", "1.5e-9"),
            ("delta_p_m", "1.4e-9"), ("err_theory_rel", "0.005"))
TOLERANCES = (("quad_tol", "1e-9"), ("series_tol", "1e-8"))
README_SWEEP = (("a_min_nm", "100"), ("a_max_nm", "800"), ("points", "15"),
                ("spacing", "log"), ("temperature_k", "300"))
MICRON_SWEEP = (("a_min_nm", "1000"), ("a_max_nm", "6000"), ("points", "16"),
                ("spacing", "linear"), ("temperature_k", "300"))

README_EXPERIMENT_NM = (100, 150, 200, 300, 400, 500, 600, 700, 800)
MICRON_EXPERIMENT_NM = (1000, 2000, 3000, 4000, 5000, 6000)

# Lorentz-Drude parametrization of Ni (plasma 15.92 eV, Drude weight 0.096,
# damping 0.048 eV, four interband oscillators), the same synthetic table
# the test suite uses in place of measured absorption data.
LD_OMEGA_P = 15.92
LD_F0, LD_GAMMA0 = 0.096, 0.048
LD_OSCILLATORS = ((0.100, 4.511, 0.174), (0.135, 1.334, 0.582),
                  (0.106, 2.178, 1.597), (0.729, 6.292, 6.089))
TABLE_ROWS, TABLE_LO_EV, TABLE_HI_EV = 600, 0.01, 5000.0
TABLE_INSERTED_ROWS = 24


def ld_im_eps(omega_ev):
    """Im eps of Ni at real photon energies in eV (Lorentz-Drude model)."""
    w = np.asarray(omega_ev, dtype=float)
    out = LD_F0 * LD_OMEGA_P**2 * LD_GAMMA0 / (w * (w * w + LD_GAMMA0**2))
    for f, g, w0 in LD_OSCILLATORS:
        out = out + f * LD_OMEGA_P**2 * g * w / ((w0 * w0 - w * w) ** 2
                                                 + (g * w) ** 2)
    return out


def optical_rows(rng: random.Random | None = None) -> list[tuple[float, float]]:
    """The 600-row base table, plus seeded rows on its linear interpolant."""
    grid = np.geomspace(TABLE_LO_EV, TABLE_HI_EV, TABLE_ROWS)
    rows = [(float(w), float(v)) for w, v in zip(grid, ld_im_eps(grid))]
    if rng is None:
        return rows
    segments = sorted(rng.sample(range(TABLE_ROWS - 1), TABLE_INSERTED_ROWS),
                      reverse=True)
    for i in segments:
        (w1, v1), (w2, v2) = rows[i], rows[i + 1]
        w = w1 + (w2 - w1) * rng.uniform(0.2, 0.8)
        rows.insert(i + 1, (w, v1 + (v2 - v1) * (w - w1) / (w2 - w1)))
    return rows


def spell(value: str, rng: random.Random) -> str:
    """A decimal spelling of ``value`` that parses to the same float."""
    d = Decimal(value)
    if d == d.to_integral_value() and "." not in value and "e" not in value:
        return rng.choice([value, value, f"{value}.0", format(d, "e")])
    return rng.choice([value, format(d, "e"), format(d, "f")])


def config_text(pairs, rng: random.Random) -> str:
    """Config text for (key, value) pairs, jittered by ``rng``."""
    pairs = list(pairs)
    optional = [p for p in TOLERANCES if rng.random() < 0.5]
    pairs += optional
    rng.shuffle(pairs)
    lines = []
    for key, value in pairs:
        if rng.random() < 0.2:
            lines.append("# generated benchmark input")
        if key not in ("variant", "spacing", "points") and \
                not key.endswith("_path"):
            value = spell(value, rng)
        eq = rng.choice(["=", " = ", "  =  "])
        lines.append(f"{key}{eq}{value}")
    return "\n".join(lines) + "\n"


def sweep_grid(sweep) -> list[float]:
    """Separations in m of a sweep block, as the CLI documents them."""
    s = dict(sweep)
    a_min, a_max = float(s["a_min_nm"]) * 1e-9, float(s["a_max_nm"]) * 1e-9
    n = int(s["points"])
    if s["spacing"] == "log":
        return [a_min * (a_max / a_min) ** (i / (n - 1)) for i in range(n)]
    return [a_min + (a_max - a_min) * i / (n - 1) for i in range(n)]


@dataclass
class Expect:
    """What a correct output of one operation looks like."""

    grid: list[float]                      # separations in m, ascending
    anchors: dict                          # (a_nm, variant) -> pressure, Pa
    rel_tol: float                         # anchor tolerance, relative
    radius: float = 0.0
    roughness: float = 0.0                 # delta_s^2 + delta_p^2, m^2
    theta: list = field(default_factory=list)       # (a_m, theta) rows
    experiment: list = field(default_factory=list)  # (a_m, grad_uN_per_m)


@dataclass
class Op:
    """One CLI call of a round and the check of its output."""

    kind: str            # ratio | pressure | gradient | compare
    argv: list[str]
    output: str          # output CSV, relative to the work directory
    points: int          # separations x variants behind the output
    expect: Expect


def load_anchors() -> dict:
    with open(ANCHORS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def anchor_tol(anchors: dict) -> float:
    """Relative anchor tolerance from the run's quad_tol and series_tol.

    Each of the two results (run and reference) may carry a quadrature
    error of quad_tol and a series tail of series_tol relative to the sum;
    12 significant output digits add 5e-12.
    """
    return 2.0 * (anchors["quad_tol"] + anchors["series_tol"]) + 1e-11


def _theta_rows(rng, a_nm_points):
    lo, hi = a_nm_points[0], a_nm_points[-1]
    grid = sorted({0.9 * lo, 1.1 * hi, *a_nm_points})
    return [(f"{a:g}", f"{rng.uniform(0.2, 0.6):.4f}") for a in grid]


def _experiment_rows(rng, a_nm_points, radius):
    # synthetic data: half the ideal-metal PFA gradient, scattered by 3 %
    rows = []
    for a_nm in a_nm_points:
        a = a_nm * 1e-9
        ideal = 2 * math.pi * radius * math.pi**2 * 1.054571817e-34 \
            * 299792458.0 / (240 * a**4)
        grad = 0.5 * ideal * 1e6 * (1 + rng.uniform(-0.03, 0.03))
        rows.append((f"{a_nm:g}", f"{grad:.6g}",
                     f"{grad * rng.uniform(0.01, 0.02):.4g}"))
    return rows


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows),
                    encoding="utf-8")


def _anchor_map(table: dict) -> dict:
    return {(float(a), v): p for a, per in table.items() for v, p in per.items()}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed``; return its round."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    anchors = load_anchors()
    tol = anchor_tol(anchors)
    free = _anchor_map(anchors["pressure_pa"]["no_table"])
    geom = dict(GEOMETRY)
    radius = float(geom["radius_m"])
    roughness = float(geom["delta_s_m"]) ** 2 + float(geom["delta_p_m"]) ** 2

    def sphere_plate_inputs(sweep, experiment_nm):
        theta = _theta_rows(rng, experiment_nm)
        _write_csv(workdir / "theta.csv", "a_nm,theta", theta)
        exp = _experiment_rows(rng, experiment_nm, radius)
        _write_csv(workdir / "experiment.csv",
                   "a_nm,grad_uN_per_m,err_uN_per_m", exp)
        cfg = MATERIAL + sweep + GEOMETRY + (("theta_table_path", "theta.csv"),)
        (workdir / "run.cfg").write_text(config_text(cfg, rng), encoding="utf-8")
        return dict(radius=radius, roughness=roughness,
                    theta=[(float(a) * 1e-9, float(t)) for a, t in theta],
                    experiment=[(float(a) * 1e-9, float(g))
                                for a, g, _ in exp])

    def op(kind, args, grid, anchor_map, n_variants=3, **extra):
        out = f"out-{kind}.csv"
        argv = [kind, "--config", "run.cfg", *args, "--output", out]
        return Op(kind, argv, out, len(grid) * n_variants,
                  Expect(grid=grid, anchors=anchor_map, rel_tol=tol, **extra))

    if name == "readme-free":
        sp = sphere_plate_inputs(README_SWEEP, README_EXPERIMENT_NM)
        grid = sweep_grid(README_SWEEP)
        exp_grid = [a for a, _ in sp["experiment"]]
        return [op("ratio", [], grid, free),
                op("pressure", ["--model", "all"], grid, free),
                op("compare", ["--model", "all", "--experiment",
                               "experiment.csv"], exp_grid, free, **sp)]
    if name == "readme-interband":
        _write_csv(workdir / "optical.csv", "omega_ev,im_eps",
                   [(repr(w), repr(v)) for w, v in optical_rows(rng)])
        cfg = MATERIAL + README_SWEEP + (("optical_data_path", "optical.csv"),)
        (workdir / "run.cfg").write_text(config_text(cfg, rng), encoding="utf-8")
        table = _anchor_map(anchors["pressure_pa"]["table"])
        return [op("ratio", [], sweep_grid(README_SWEEP), table)]
    sp = sphere_plate_inputs(MICRON_SWEEP, MICRON_EXPERIMENT_NM)
    exp_grid = [a for a, _ in sp["experiment"]]
    return [op("gradient", ["--model", "all"], sweep_grid(MICRON_SWEEP), free,
               **sp),
            op("compare", ["--model", "all", "--experiment", "experiment.csv"],
               exp_grid, free, **sp)]


# Why each was chosen: README.md and BENCHMARK.json.
WORKLOADS = ("readme-free", "readme-interband", "micron-gradient")
