"""Time the three-model pressure loops of two casimag checkouts, interleaved.

Usage: python3 scripts/loop_timing.py PARENT CHANGE [PAIRS]

Imports casimag from PARENT/src and from CHANGE/src into one process,
side by side, and times ``pressure_curves`` of nonlocal, plasma and drude
on four loops, the in-process analogs of the benchmark's workloads: the
README grid (15 log-spaced separations, 100-800 nm) at 300 K and at 10 K,
the README grid at 300 K with the synthetic Ni optical table of
``tests/_ni_optical.py`` (``readme-interband``), and 16 linearly spaced
separations over 1-6 um at 300 K (``micron-gradient``).  Each of PAIRS
pairs (default 15) times both checkouts once, in alternating order
(parent first in even pairs, change first in odd ones), after one untimed
warm-up loop each.  Prints, per loop, each side's median time with the
quadratures and kernel calls of one loop (counted in one more, untimed
loop), and the median and range of the paired ratios change/parent.  The
machine's speed drifts, so compare checkouts only within one run of this
script.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
import _ni_optical  # noqa: E402  (the test table, from this checkout)

GRID = np.geomspace(100e-9, 800e-9, 15)
MICRON = np.linspace(1e-6, 6e-6, 16)
VARIANTS = ("nonlocal", "plasma", "drude")
# (name, separations, temperature in K, with the optical table)
LOOPS = (("README", GRID, 300.0, False), ("README", GRID, 10.0, False),
         ("README with the table", GRID, 300.0, True),
         ("1-6 um", MICRON, 300.0, False))


def load(root: str):
    """The casimag package of checkout ``root``, imported apart from any
    other checkout's."""
    src = str(Path(root).resolve() / "src")
    sys.path.insert(0, src)
    try:
        import casimag
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules
                     if m == "casimag" or m.startswith("casimag.")]:
            del sys.modules[name]
    return casimag


def loop(casimag, grid, temperature: float, table: bool):
    """One checkout's loop over ``grid`` at one temperature, with or
    without the optical table, as a call."""
    interband = (casimag.InterbandTable.from_rows_ev(_ni_optical.rows())
                 if table else None)
    models = [casimag.nickel(v, interband=interband) for v in VARIANTS]
    ctx = casimag.MatsubaraContext(temperature=temperature)
    return lambda: casimag.pressure_curves(grid, models, ctx)


def work(casimag, run) -> str:
    """The quadratures and kernel calls of one call of ``run``, counted
    by wrapping the two functions in the checkout's lifshitz module."""
    lifshitz = casimag.lifshitz
    names = ("adaptive_quad", "lifshitz_summand")
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    saved = [getattr(lifshitz, name) for name in names]
    for name, fn in zip(names, saved):
        setattr(lifshitz, name, counting(name, fn))
    try:
        run()
    finally:
        for name, fn in zip(names, saved):
            setattr(lifshitz, name, fn)
    return (f"{counts['adaptive_quad']} quadratures, "
            f"{counts['lifshitz_summand']} kernel calls")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    sides = [load(root) for root in argv[:2]]
    pairs = int(argv[2]) if len(argv) == 3 else 15
    for name, grid, temperature, table in LOOPS:
        runs = [loop(casimag, grid, temperature, table) for casimag in sides]
        for run in runs:
            run()
        times = ([], [])
        for pair in range(pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                runs[side]()
                times[side].append(time.perf_counter() - t0)
        ratios = sorted(c / p for p, c in zip(*times))
        parent, change = (f"{statistics.median(t) * 1e3:.2f} ms "
                          f"({work(casimag, run)})"
                          for t, casimag, run in zip(times, sides, runs))
        print(f"{name} at {temperature:g} K, {pairs} pairs: parent "
              f"{parent}, change {change}, change/parent median "
              f"{statistics.median(ratios):.3f} "
              f"(range {ratios[0]:.3f}-{ratios[-1]:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
