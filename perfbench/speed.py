"""Machine-speed sampling inside a worker, to report times at a fixed speed.

The speed of a shared virtual machine drifts.  On the 2-vCPU VM this
benchmark was written on, raw times of one CLI operation ranged over a
factor of 2 within minutes, and a fixed loop's 5-second medians ranged
from 12.9 to 20.0 ms within one minute.  ``Sampler`` interrupts the
worker every PERIOD_S with SIGALRM and times a fixed calibration chunk,
so the machine's speed is sampled throughout the operation it runs beside.
A measured time is then reported as (time minus the chunks' own time) x
(reference chunk time / mean chunk time during it): seconds at the
reference speed.  Over 14 repeats of one operation this cut the
coefficient of variation from 0.20 to 0.05.

The chunks belong to the benchmark and never call casimag, so a change to
the program cannot move them.  While ``casimag`` imports, the chunk is
pure Python, so that NumPy's import stays in the measured set-up time;
afterwards it mixes small NumPy arrays and scalar Python, as the
program's kernel does.
"""

import math
import signal
import time

PERIOD_S = 0.025
PY_REF_S = 9.0e-5   # reference time of one pure-Python chunk
NP_REF_S = 4.0e-4   # reference time of one NumPy chunk


def python_chunk() -> float:
    acc = 0.0
    table = {}
    for i in range(300):
        y = 1.0 + 0.01 * i
        k = math.sqrt(y * y + 0.5)
        r = (y - k) / (y + k)
        acc += r * r * math.exp(-y)
        table[i % 17] = acc
    return acc


def numpy_chunk() -> float:
    import numpy as np  # already imported by casimag when this runs
    x = np.linspace(1.0, 2.0, 15)
    acc = 0.0
    for _ in range(100):
        y = np.sqrt(x * x + 1.0)
        acc += float(((x - y) / (x + y)) @ x)
    return acc


class Sampler:
    """Times ``chunk`` every PERIOD_S of wall time between start and stop."""

    def __init__(self):
        self.chunk, self.ref = python_chunk, PY_REF_S
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.chunk()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def phase(self, elapsed: float, chunk=None, ref=None) -> tuple[float, float]:
        """(own time, speed factor) of the phase that just took ``elapsed``
        seconds; the next phase samples with ``chunk`` and ``ref``."""
        samples, self.samples = self.samples, []
        own = elapsed - sum(samples)
        if not samples:  # a phase shorter than PERIOD_S
            t0 = time.perf_counter()
            self.chunk()
            samples = [time.perf_counter() - t0]
        factor = self.ref * len(samples) / sum(samples)
        if chunk is not None:
            self.chunk, self.ref = chunk, ref
        return own, factor
