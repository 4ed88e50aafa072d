"""casimag benchmark: CLI time-to-curve, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn and print one row per workload.  Run from anywhere; the program is
imported from ``src/`` next to this directory.

One client runs a closed loop: each operation is one ``casimag.cli.main``
call in a fresh worker process, started only after the previous one ended,
because a CLI user starts every run with a cold interpreter and cold
in-process caches (the Kramers-Kronig ``lru_cache`` among them).  Whole
rounds of the workload's operations are repeated while fewer than S
seconds have passed.  One untimed import runs first so that compiling
``__pycache__``, a one-time install cost, stays out of ``setup_s``.

Times are reported at a fixed reference speed, with raw wall-clock
medians printed alongside; speed.py says why and how.

With ``--trace 0`` the last output line is the JSON result with the
end-to-end metrics; the tracer is never imported.  With ``--trace 1`` the
rounds alternate untraced and traced, and the result holds the per-layer
metrics, averaged per operation over the traced operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / "_work"

SETUP_SAMPLES = 6      # import-only workers per run, besides each operation's
OP_TIMEOUT_S = 150.0
# Workers may write __pycache__ (inside the checkout) as an installed CLI's
# imports do, whatever the calling shell says about bytecode files.
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}

END_TO_END = {"setup_s": "s", "op_s": "s", "points_per_s": "1/s",
              "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "nodes": "count", "panels": "count",
               "kernel_calls": "count", "misses": "count",
               "terms_used": "count", "terms_evaluated": "count",
               "bytes": "B", "ns_per_node": "ns", "term_yield": "ratio",
               "hit_ratio": "ratio"}


def layer_unit(key: str) -> str:
    return LAYER_UNITS.get(key.rsplit(".", 1)[-1], "s")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, or it does not import)."""


def spawn(workdir: Path, argv: list[str], trace: bool = False) -> dict:
    """Run one worker to completion and return its result."""
    result_path = workdir / "worker.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), str(ROOT), "1" if trace else "0",
           str(result_path), *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=WORKER_ENV,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        rc, err = proc.returncode, proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        rc, err = -9, f"timed out after {OP_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    res = {"op_s": wall}
    if result_path.is_file():
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    res["rc"] = rc
    res["stderr"] = err.strip().splitlines()[-1:]
    return res


def run_op(workdir: Path, op: workloads.Op, trace: bool = False) -> dict:
    out = workdir / op.output
    out.unlink(missing_ok=True)
    res = spawn(workdir, op.argv, trace)
    res["problems"] = check.check_op(op, res["rc"], out)
    res["ok"] = not res["problems"]
    if not res["ok"]:
        print(f"FAILED {' '.join(op.argv)}: {res['problems'][:3]} "
              f"{res['stderr']}", file=sys.stderr)
    return res


def describe(name, unit, value, samples, raw=None) -> str:
    line = f"  {name:<14}{value:>12.5g} {unit:<5}"
    if samples is None:
        return line + "(max over workers)"
    line += f"(median of n={len(samples)}"
    if len(samples) > 1:
        q = statistics.quantiles(samples, n=4)
        line += f", quartiles {q[0]:.4g}..{q[2]:.4g}"
    if raw:
        line += f"; raw wall median {statistics.median(raw):.5g}"
    return line + ")"


def end_to_end(rounds, ops, setup) -> tuple[dict, list[str]]:
    """Metrics of an untraced run and the lines that describe them."""
    done = [r for rnd in rounds for r in rnd]
    imports = [r for r in setup + done if "import_s" in r]
    points = sum(op.points for op in ops)
    round_op = [sum(r["op_s"] for r in rnd) for rnd in rounds]
    raw_round = [sum(r.get("raw_op_s", r["op_s"]) for r in rnd)
                 for rnd in rounds]
    samples = {
        "setup_s": ([r["import_s"] for r in imports],
                    [r["raw_import_s"] for r in imports]),
        "op_s": ([t / len(ops) for t in round_op],
                 [t / len(ops) for t in raw_round]),
        "points_per_s": ([points / t for t in round_op],
                         [points / t for t in raw_round]),
    }
    metrics, lines = {}, []
    for name, (vals, raw) in samples.items():
        metrics[name] = statistics.median(vals)
        lines.append(describe(name, END_TO_END[name], metrics[name], vals, raw))
    metrics["peak_rss_mb"] = max(r["rss_kb"] for r in done + setup
                                 if "rss_kb" in r) / 1024.0
    lines.append(describe("peak_rss_mb", "MB", metrics["peak_rss_mb"], None))
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in metrics.items()}, lines


def per_layer(traced, untraced) -> tuple[dict, list[str]]:
    """Per-operation means over the traced operations of a run."""
    n = len(traced)
    sums = {}
    for key in traced[0].get("layers", {}):
        vals = [r.get("layers", {}).get(key) for r in traced]
        sums[key] = None if None in vals else sum(vals)

    def ratio(num, den, scale=1.0, empty=0.0):
        if sums.get(num) is None or sums.get(den) is None:
            return None
        return scale * sums[num] / sums[den] if sums[den] else empty

    values = {k: (None if v is None else v / n) for k, v in sums.items()}
    values["lifshitz.term_yield"] = ratio("lifshitz.terms_used",
                                          "lifshitz.terms_evaluated")
    values["kernel.ns_per_node"] = ratio("kernel.s", "kernel.nodes", 1e9)
    miss = ratio("response.kk.misses", "response.kk.calls", empty=1.0)
    values["response.kk.hit_ratio"] = None if miss is None else 1.0 - miss
    values["trace.op_s"] = statistics.fmean(r["op_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.op_s"] - statistics.fmean(
        r["op_s"] for r in untraced)

    metrics, lines = {}, []
    for key in sorted(values):
        unit = layer_unit(key)
        metrics[key] = {"value": values[key], "unit": unit}
        shown = "null" if values[key] is None else f"{values[key]:.6g}"
        lines.append(f"  {key:<34}{shown:>14} {unit}")
    lines.append(f"  (per operation, mean of n={n} traced operations; "
                 f"{len(untraced)} untraced)")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "casimag" / "__init__.py").is_file():
        raise BenchmarkError(f"no casimag sources under {ROOT / 'src'}")
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(name, seed, workdir)
        setup = [spawn(workdir, [])
                 for _ in range(1 if trace else 1 + SETUP_SAMPLES)]
        bad = [r for r in setup if r["rc"] != 0 or "import_s" not in r]
        if bad:
            raise BenchmarkError(f"casimag does not import: {bad[0]['stderr']}")
        setup = setup[1:]  # the first import compiled __pycache__

        rounds, traced, untraced = [], [], []
        t_start = time.monotonic()
        while time.monotonic() - t_start < seconds:
            rnd = [run_op(workdir, op) for op in ops]
            rounds.append(rnd)
            untraced += rnd
            if trace:
                rnd = [run_op(workdir, op, trace=True) for op in ops]
                rounds.append(rnd)
                traced += rnd
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = untraced + traced
    failed = sum(not r["ok"] for r in done)
    if trace:
        metrics, lines = per_layer(traced, untraced)
    else:
        metrics, lines = end_to_end(rounds, ops, setup)
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  "
          f"operations {len(done)}  failed {failed}  "
          f"failed_frac {failed / len(done):.4g}  "
          f"speed factor median "
          f"{statistics.median(r.get('speed', 1.0) for r in done):.4g}")
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace)) for n in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0

    first = results[names[0]]["metrics"]
    heads = [f"{k} [{m['unit']}]" for k, m in first.items()]
    print("\n" + f"{'workload':<18}" + "".join(f"{h:>26}" for h in heads)
          + f"{'failed_frac':>14}")
    for n, res in results.items():
        cells = ["null" if m["value"] is None else f"{m['value']:.5g}"
                 for m in res["metrics"].values()]
        print(f"{n:<18}" + "".join(f"{c:>26}" for c in cells)
              + f"{res['failed'] / res['attempted']:>14.4g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
