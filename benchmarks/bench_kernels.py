"""Benchmark: compiled kernel vs pure-NumPy fallback.

Times the raw integrand kernel at quadrature-panel array sizes and a full
pressure evaluation with each backend.  Run from the repository root:

    python benchmarks/bench_kernels.py
"""

import sys
import time

import numpy as np

from casimag import MatsubaraContext, PressureQuery, backend, nickel, \
    pressure
from casimag import reflection

try:
    from casimag import _kernel as _kernel_cy
except ImportError:
    _kernel_cy = None


def time_call(fn, *args, repeat=7, loops=50):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def bench_kernel(impl, n):
    ni = nickel("nonlocal")
    y = np.linspace(1.2, 44.0, n)
    args = (y, 2.468e14, 0.5e-6, 299792458.0, 2, ni.omega_p, ni.gamma, 1.0,
            ni.v_t, ni.v_l, 1.0, 0.0, 0.0)
    return time_call(impl.lifshitz_summand, *args)


def bench_pressure(impl):
    saved = backend.lifshitz_summand
    backend.lifshitz_summand = impl.lifshitz_summand
    try:
        ctx = MatsubaraContext(temperature=300.0)
        q = PressureQuery(separation=0.5e-6, model=nickel("nonlocal"))
        return time_call(lambda: pressure(q, ctx), repeat=3, loops=3)
    finally:
        backend.lifshitz_summand = saved


def main():
    if _kernel_cy is None:
        print("compiled kernel not built; install with the extension to "
              "compare backends")
        return 1

    print(f"active backend at import: {backend.BACKEND}")
    print(f"{'workload':<34}{'numpy':>12}{'compiled':>12}{'speedup':>9}")
    for n in (15, 240, 4000):
        t_py = bench_kernel(reflection, n)
        t_cy = bench_kernel(_kernel_cy, n)
        print(f"kernel, {n:>5}-point array        "
              f"{t_py * 1e6:>10.1f}us{t_cy * 1e6:>10.1f}us"
              f"{t_py / t_cy:>8.1f}x")
    t_py = bench_pressure(reflection)
    t_cy = bench_pressure(_kernel_cy)
    print(f"{'pressure point (0.5 um, 300 K)':<34}"
          f"{t_py * 1e3:>10.1f}ms{t_cy * 1e3:>10.1f}ms"
          f"{t_py / t_cy:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
