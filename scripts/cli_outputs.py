"""Record every command-line output of one casimag checkout.

Usage: python3 scripts/cli_outputs.py ROOT OUTDIR
       python3 scripts/cli_outputs.py --compare OUT_A OUT_B

Runs each casimag command on the README config (100-800 nm, 15 log-spaced
separations, the nickel parameters, a PFA-correction table) at 300 K, 10 K
and 1 K, and on a two-separation sweep (20 nm and 2 um at 300 K), each
with and without the synthetic Ni optical table of
``tests/_ni_optical.py``, using the sources under ROOT/src.  At 1 K the
800 nm sum reaches its 4,656-term cap, so the runs that take it exit 2;
at 20 nm and 300 K the first blocks of Matsubara indices start where the
graded first round ends.  The three runs that take all three models on
the config's grid (``pressure`` and ``gradient`` with ``--model all``, and
``ratio``) also run on 100 log-spaced separations over 100-800 nm at
300 K: there the first rounds of the static term and of l = 1, 100
separations x 84 = 8,400 nodes per separation row, overfill the work
array, which fits 6,300 for three models (``lifshitz.NODE_CAP``), so
their kernel calls are split.  Where a few pairs sum long tails alone,
the Matsubara indices go in tail blocks as long as the tail rule predicts:
``pressure --model all`` and ``ratio`` run on five separations over
1-5 um at 4 K, and those two and ``gradient --model all`` on the one
separation 100 nm at 10 K.  Every run
writes its CSV to a file and, once more, to stdout.  In every case but
the 100-separation one, ``--help`` runs once, and three runs take the
error paths (``impedance-dump --model all``, ``compare`` without
``--experiment`` and an unknown ``--model``).
For each run, OUTDIR/<case>/<run>.csv holds the CSV file (when one was
written) and <run>.stdout, <run>.stderr and <run>.exit the process's
streams and exit code.  The inputs are built from this script's
checkout, so two checkouts compare with

    python3 scripts/cli_outputs.py PARENT out-parent
    python3 scripts/cli_outputs.py .      out-change
    python3 scripts/cli_outputs.py --compare out-parent out-change

A checkout runs the 240 commands in about half a minute on two cores.

``--compare`` reads every file of both trees line by line, each line as
comma-separated cells.  It prints, exactly, each file that only one tree
has, each differing exit code, each file whose line count differs and
each differing cell that is not a pair of finite numbers (headers,
labels, messages, a flipped ``inside_ci``, NaN and inf).  Every other
differing cell is checked against a budget, named by the column of the
file's last header line (a line of text cells):

* ``pressure_pa``: the row's own quad_error + tail_bound in one tree plus
  the same in the other;
* cells computed from pressures, relative to themselves: ``p_<model>``
  the model's relative budget, ``ratio_<m1>_over_<m2>`` the sum of both
  models' and ``grad_n_per_m`` the row model's; ``grad_theory``,
  ``delta`` and ``ci_halfwidth`` of a compare row that of its model times
  |grad_theory| (a row without a model column is the config's variant,
  nonlocal).  A model's relative budget is, per tree, the largest
  (quad_error + tail_bound)/|pressure_pa| of its rows in the same case's
  ``pressure --model all`` CSV, summed over the two trees: a first-order
  bound, and 0 where the case has no such CSV;
* ``terms_used``, ``tail_bound`` and ``quad_error``, the budgets
  themselves: no budget, so they are printed but never fail;
* every other cell (the reflection and impedance dumps, separations,
  indices and wavevectors): a fixed 1e-10 of the larger magnitude, ten
  units of the last of the 12 significant digits a CSV cell carries.

For every file and column whose numeric cells differ it prints the
largest difference/budget and the largest relative difference |x - y|/
max(|x|, |y|).  Files and columns it does not print are byte-identical.
It exits 1 on any difference that is not numeric or that exceeds its
budget, and 0 otherwise, so a change that moves numbers passes when they
stay within the reported error budgets, where ``diff -r`` would only list
the files.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
import _ni_optical  # noqa: E402  (the test table, from this checkout)

README_CONFIG = """\
variant = nonlocal
omega_p_ev = 4.89
gamma_ev = 0.0436
mu0 = 110
v_t_over_vf = 7
v_l_over_vf = 7
v_f_m_s = 1.31e6
a_min_nm = {a_min_nm}
a_max_nm = {a_max_nm}
points = {points}
spacing = log
temperature_k = {temperature}
radius_m = 61.71e-6
delta_s_m = 1.5e-9
delta_p_m = 1.4e-9
err_theory_rel = 0.005
theta_table_path = theta.csv
"""
# a PFA-correction table over 10-3000 nm, so that every gradient and
# compare run applies theta(a) by interpolation, with no endpoint warning
THETA = """\
a_nm,theta
10,-0.4
90,-0.45
250,-0.5
900,-0.56
3000,-0.6
"""
# synthetic measured gradients in uN/m, some inside the confidence
# interval of a variant and some outside
EXPERIMENT = """\
a_nm,grad_uN_per_m,err_uN_per_m
100,1540.0,40.0
200,144.0,2.0
400,11.9,0.1
800,0.85,0.01
"""
# (name, arguments): each runs with --output to a file and to stdout
RUNS = (
    ("pressure-all", ["pressure", "--model", "all"]),
    ("pressure", ["pressure"]),
    ("pressure-plasma", ["pressure", "--model", "plasma"]),
    ("ratio", ["ratio"]),
    ("ratio-drude", ["ratio", "--model", "drude"]),
    ("gradient-all", ["gradient", "--model", "all"]),
    ("compare-all", ["compare", "--model", "all",
                     "--experiment", "expt.csv"]),
    ("compare", ["compare", "--experiment", "expt.csv"]),
    ("reflect-dump-all", ["reflect-dump", "--model", "all"]),
    ("impedance-dump", ["impedance-dump"]),
    ("impedance-dump-plasma", ["impedance-dump", "--model", "plasma"]),
)
# runs that write no CSV
ONCE = (
    ("help", ["--help"]),
    ("error-impedance-dump-all", ["impedance-dump", "--model", "all"]),
    ("error-compare-no-experiment", ["compare"]),
    ("error-unknown-model", ["pressure", "--model", "bogus"]),
)
# the runs of all three models on the config's grid, in one Matsubara loop
ALL_MODELS = tuple(run for run in RUNS
                   if run[0] in ("pressure-all", "ratio", "gradient-all"))
# the runs of all three models whose pressures need no PFA table
PRESSURES = tuple(run for run in ALL_MODELS if run[0] != "gradient-all")
# (case, temperature in K, a_min_nm, a_max_nm, points, runs, runs once);
# one point is the separation a_min_nm
CASES = (
    ("300K", 300, 100, 800, 15, RUNS, ONCE),
    ("10K", 10, 100, 800, 15, RUNS, ONCE),
    ("1K", 1, 100, 800, 15, RUNS, ONCE),
    ("sweep-300K", 300, 20, 2000, 2, RUNS, ONCE),
    ("split-300K", 300, 100, 800, 100, ALL_MODELS, ()),
    ("tails-4K", 4, 1000, 5000, 5, PRESSURES, ()),
    ("one-10K", 10, 100, 800, 1, ALL_MODELS, ()),
)


def record(root: Path, work: Path, out: Path, name: str,
           args: list[str]) -> None:
    """Run ``casimag ARGS --config run.cfg`` in ``work`` and keep its
    CSV, streams and exit code under ``out``."""
    csv = work / "out.csv"
    csv.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "casimag.cli", *args,
                           "--config", "run.cfg"], cwd=work, env=env,
                          capture_output=True, text=True)
    (out / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")
    (out / f"{name}.stderr").write_text(proc.stderr, encoding="utf-8")
    (out / f"{name}.exit").write_text(f"{proc.returncode}\n",
                                      encoding="utf-8")
    if csv.exists():
        csv.rename(out / f"{name}.csv")


def _number(cell: str) -> float | None:
    """The cell as a finite float, or None."""
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _relative_budgets(out: Path) -> dict:
    """{(case, model): the largest (quad_error + tail_bound)/|pressure_pa|
    of the model's rows in the case's ``pressure --model all`` CSV} of the
    tree ``out``."""
    worst = {}
    for path in out.glob("*/pressure-all-file.csv"):
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            rel = ((float(row["quad_error"]) + float(row["tail_bound"]))
                   / abs(float(row["pressure_pa"])))
            key = (path.parent.name, row["model"])
            worst[key] = max(worst.get(key, 0.0), rel)
    return worst


def _budget(col: str, row_a: dict, row_b: dict, rel, x: float,
            y: float) -> float:
    """The budget of the differing numeric cells x and y of column ``col``
    (see the module docstring); ``rel(model)`` is a model's relative
    budget in their case."""
    if col == "pressure_pa":
        return sum(float(r["quad_error"]) + float(r["tail_bound"])
                   for r in (row_a, row_b))
    if col in ("terms_used", "tail_bound", "quad_error"):
        return math.inf
    scale = max(abs(x), abs(y))
    model = row_a.get("model", "nonlocal")
    if col.startswith("p_"):
        return rel(col[2:]) * scale
    if col.startswith("ratio_"):
        return sum(map(rel, col[6:].split("_over_"))) * scale
    if col == "grad_n_per_m":
        return rel(model) * scale
    if col in ("grad_theory", "delta", "ci_halfwidth"):
        return rel(model) * max(abs(float(r["grad_theory"]))
                                for r in (row_a, row_b))
    return 1e-10 * scale


def compare(out_a: Path, out_b: Path) -> int:
    """Print how the trees ``out_a`` and ``out_b`` of ``main`` differ (see
    the module docstring); 1 if any difference is not numeric or exceeds
    its budget."""
    files = [{p.relative_to(out).as_posix() for p in out.rglob("*")
              if p.is_file()} for out in (out_a, out_b)]
    budgets = [_relative_budgets(out) for out in (out_a, out_b)]
    text = numeric = over = same = 0
    for name in sorted(files[0] ^ files[1]):
        print(f"{name}: only in {out_a if name in files[0] else out_b}")
        text += 1
    for name in sorted(files[0] & files[1]):
        a, b = ((out / name).read_text(encoding="utf-8").splitlines()
                for out in (out_a, out_b))
        if a == b:
            same += 1
            continue
        if name.endswith(".exit"):
            print(f"{name}: exit code {a[0]} vs {b[0]}")
            text += 1
            continue
        if len(a) != len(b):
            print(f"{name}: {len(a)} vs {len(b)} lines")
            text += 1
            continue
        case = name.split("/")[0]

        def rel(model):
            return sum(tree.get((case, model), 0.0) for tree in budgets)

        # column -> (largest difference/budget, largest relative one)
        worst, header, cells = {}, [], 0
        for row, (la, lb) in enumerate(zip(a, b), 1):
            ca, cb = la.split(","), lb.split(",")
            if len(ca) != len(cb):
                print(f"{name}:{row}: {la!r} vs {lb!r}")
                cells += 1
                continue
            if all(_number(c) is None for c in ca):
                header = ca
            row_a, row_b = dict(zip(header, ca)), dict(zip(header, cb))
            for col, (x, y) in enumerate(zip(ca, cb)):
                if x == y:
                    continue
                fx, fy = _number(x), _number(y)
                if fx is None or fy is None:
                    print(f"{name}:{row}: cell {col + 1}: {x!r} vs {y!r}")
                    cells += 1
                    continue
                key = header[col] if col < len(header) else f"#{col + 1}"
                diff = abs(fx - fy)  # 0 for 0.0 and -0.0
                budget = _budget(key, row_a, row_b, rel, fx, fy)
                score = diff / budget if budget else math.inf if diff else 0.0
                relative = diff / max(abs(fx), abs(fy)) if diff else 0.0
                old = worst.get(key, (0.0, 0.0))
                worst[key] = (max(old[0], score), max(old[1], relative))
        for key, (score, relative) in worst.items():
            print(f"{name}: {key}: largest difference/budget {score:.3e}, "
                  f"largest relative difference {relative:.3e}")
        exceeds = any(score > 1.0 for score, _ in worst.values())
        text += cells > 0
        over += cells == 0 and exceeds
        numeric += cells == 0 and not exceeds
    print(f"{len(files[0] | files[1])} files: {same} identical, {numeric} "
          f"with numeric differences within budget, {over} with one over "
          f"budget, {text} with other differences", file=sys.stderr)
    return 1 if text or over else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    root, outdir = Path(argv[0]).resolve(), Path(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _ni_optical.write_csv(work / "ni_optical.csv")
        (work / "expt.csv").write_text(EXPERIMENT, encoding="utf-8")
        (work / "theta.csv").write_text(THETA, encoding="utf-8")
        for label, temperature, a_min_nm, a_max_nm, points, runs, once \
                in CASES:
            for table in (False, True):
                case = f"{label}-{'table' if table else 'free'}"
                out = outdir / case
                out.mkdir(parents=True, exist_ok=True)
                text = README_CONFIG.format(
                    temperature=temperature, a_min_nm=a_min_nm,
                    a_max_nm=a_max_nm, points=points)
                if table:
                    text += "optical_data_path = ni_optical.csv\n"
                (work / "run.cfg").write_text(text, encoding="utf-8")
                for name, args in runs:
                    record(root, work, out, f"{name}-file", args
                           + ["--output", "out.csv"])
                    record(root, work, out, f"{name}-stdout", args
                           + ["--output", "-"])
                for name, args in once:
                    record(root, work, out, name, args)
                print(f"{case}: {len(runs) * 2 + len(once)} runs",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
