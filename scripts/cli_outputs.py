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
300 K: there the first round of the static term, 300 pairs x 84 = 25,200
nodes, and of one index, 300 x 63 = 18,900, exceed ``lifshitz.NODE_CAP``,
so their kernel calls are split.  Where a few pairs sum long tails alone,
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
labels, messages, NaN and inf).  For every file and column whose numeric
cells differ it prints the largest relative difference |x - y|/max(|x|,
|y|), with the column named by the file's last header line (a line of
text cells).  Files and columns it does not print are byte-identical.
It exits 1 on any difference that is not numeric and 0 otherwise, so a
change that moves numbers within a tolerance shows how far, where
``diff -r`` would only list the files.
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


def compare(out_a: Path, out_b: Path) -> int:
    """Print how the trees ``out_a`` and ``out_b`` of ``main`` differ (see
    the module docstring); 1 if any difference is not numeric."""
    files = [{p.relative_to(out).as_posix() for p in out.rglob("*")
              if p.is_file()} for out in (out_a, out_b)]
    text = numeric = same = 0
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
        worst, header, cells = {}, [], 0  # column -> largest difference
        for row, (la, lb) in enumerate(zip(a, b), 1):
            ca, cb = la.split(","), lb.split(",")
            if len(ca) != len(cb):
                print(f"{name}:{row}: {la!r} vs {lb!r}")
                cells += 1
                continue
            if all(_number(c) is None for c in ca):
                header = ca
            for col, (x, y) in enumerate(zip(ca, cb)):
                if x == y:
                    continue
                fx, fy = _number(x), _number(y)
                if fx is None or fy is None:
                    print(f"{name}:{row}: cell {col + 1}: {x!r} vs {y!r}")
                    cells += 1
                    continue
                key = header[col] if col < len(header) else f"#{col + 1}"
                scale = max(abs(fx), abs(fy))
                diff = abs(fx - fy) / scale if scale else 0.0
                worst[key] = max(worst.get(key, 0.0), diff)
        for key, diff in worst.items():
            print(f"{name}: {key}: largest relative difference {diff:.3e}")
        text += cells > 0
        numeric += cells == 0
    print(f"{len(files[0] | files[1])} files: {same} identical, {numeric} "
          f"with only numeric differences, {text} with other differences",
          file=sys.stderr)
    return 1 if text else 0


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
