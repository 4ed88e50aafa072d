"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line with the measured numbers (visible with pytest -s / -rA).

Criteria 2 and 3 probe percent-level balances between the response
variants in the 100-800 nm window; they depend on the user-supplied
optical dataset (here: the synthetic Lorentz-Drude table from
_ni_optical).  See notes in the repository-external decision log for the
analysis of the red checks.
"""

import math
import time

import numpy as np
import pytest

from casimag import (FixedReflection, GeometryParams, MatsubaraContext,
                     eps_pair, impedance_integral, impedance_pair,
                     matsubara_xi, nickel, pressure, refl_pair,
                     roughness_factor)
from casimag.cli import main as cli_main
from casimag.constants import C_LIGHT, HBAR, K_BOLTZMANN

from test_lifshitz import polylog3

CTX = MatsubaraContext(temperature=300.0)


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {criterion}: [{status}] {detail}"
    print(line)
    assert ok, line


def _pressure(a, model, series_tol=1e-8, quad_tol=1e-9, ctx=CTX):
    return pressure(a, model, ctx, quad_tol=quad_tol,
                    series_tol=series_tol).pressure


def test_criterion_1_large_separation_ratios(ni_models):
    t0 = time.time()
    targets = {4e-6: (0.70, 0.57), 6e-6: (0.66, 0.57)}
    details = []
    ok = True
    for a, (t_np, t_nd) in targets.items():
        p = {v: _pressure(a, m) for v, m in ni_models.items()}
        r_np = p["nonlocal"] / p["plasma"]
        r_nd = p["nonlocal"] / p["drude"]
        ok &= abs(r_np - t_np) <= 0.02 and abs(r_nd - t_nd) <= 0.02
        details.append(f"a={a * 1e6:.0f}um nl/p={r_np:.4f} (want "
                       f"{t_np}+-0.02) nl/d={r_nd:.4f} (want {t_nd}+-0.02)")
    details.append(f"[{time.time() - t0:.1f}s]")
    check(1, ok, "; ".join(details))


def test_criterion_2_band_agreement_with_interband(ni_models_ib):
    grid = np.geomspace(100e-9, 800e-9, 8)
    worst = 0.0
    worst_a = None
    for a in grid:
        p_nl = _pressure(float(a), ni_models_ib["nonlocal"])
        p_p = _pressure(float(a), ni_models_ib["plasma"])
        dev = abs(p_nl / p_p - 1.0)
        if dev > worst:
            worst, worst_a = dev, float(a)
    check("2 (band)", worst < 0.01,
          f"max |P_nl/P_p - 1| over [100, 800] nm = {worst:.4%} "
          f"at a={worst_a * 1e9:.0f} nm (tolerance < 1%)")


def test_criterion_2_drude_deviation_with_interband(ni_models_ib):
    details = []
    ok = True
    for a, target in ((100e-9, 0.02), (800e-9, 0.13)):
        p_d = _pressure(a, ni_models_ib["drude"])
        devs = {v: abs(_pressure(a, ni_models_ib[v]) / p_d - 1.0)
                for v in ("plasma", "nonlocal")}
        hit = any(abs(d - target) <= 0.01 for d in devs.values())
        ok &= hit
        details.append(
            f"a={a * 1e9:.0f}nm vs-drude deviations p={devs['plasma']:.4%} "
            f"nl={devs['nonlocal']:.4%} (want {target:.0%}+-1pp)")
    check("2 (drude gap)", ok, "; ".join(details))


def test_criterion_3_ratio_crossover(ni_models_ib):
    """The two ratio curves (each variant over the dissipative-local
    reference) must cross exactly once in [400, 900] nm, at 655 +- 60 nm."""

    def diff(a):
        p_d = _pressure(a, ni_models_ib["drude"])
        return (_pressure(a, ni_models_ib["nonlocal"]) / p_d
                - _pressure(a, ni_models_ib["plasma"]) / p_d)

    grid = np.linspace(400e-9, 900e-9, 11)
    values = [diff(float(a)) for a in grid]
    brackets = [(float(grid[i]), float(grid[i + 1]))
                for i in range(len(grid) - 1)
                if values[i] == 0.0 or values[i] * values[i + 1] < 0.0]

    if len(brackets) == 1:
        lo, hi = brackets[0]
        f_lo = diff(lo)
        for _ in range(4):
            mid = 0.5 * (lo + hi)
            f_mid = diff(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        a_cross = 0.5 * (lo + hi)
        ok = abs(a_cross - 655e-9) <= 60e-9
        detail = (f"single crossing at {a_cross * 1e9:.0f} nm "
                  f"(want 655 +- 60 nm)")
    else:
        ok = False
        detail = (f"{len(brackets)} sign changes of the ratio difference in "
                  f"[400, 900] nm (want exactly 1); (P_nl - P_p)/P_drude "
                  f"spans [{min(values):+.4%}, {max(values):+.4%}]")
    check(3, ok, detail)


def test_criterion_4_impedance_equivalence():
    t0 = time.time()
    a_ref = 0.5e-6
    k_grid = (0.0, 1.0 / (10 * a_ref), 1.0 / a_ref, 10.0 / a_ref)
    m = nickel("nonlocal")
    ctx_low = MatsubaraContext(temperature=1.0)  # small xi adjacent to static
    points = ([(l, k, CTX, None) for l in (1, 2, 10, 100) for k in k_grid]
              + [(1, k, ctx_low, mu) for mu in (1.0, 110.0) for k in k_grid])
    worst = 0.0
    for l, k, ctx, mu in points:
        zi = impedance_integral(l, k, m, ctx, mu_l=mu)
        zc = impedance_pair(l, k, m, ctx, mu_l=mu)
        worst = max(worst, abs(zi.z_te / zc.z_te - 1.0),
                    abs(zi.z_tm / zc.z_tm - 1.0))
    elapsed = time.time() - t0
    check(4, worst <= 1e-8,
          f"max relative gap integral vs closed = {worst:.2e} "
          f"(tolerance 1e-8) in {elapsed:.2f}s")


def test_criterion_5_ideal_metal_oracle():
    a = 1e-6
    res = pressure(a, FixedReflection(1.0, -1.0),
                   MatsubaraContext(temperature=1.0), series_tol=1e-6)
    exact = -math.pi**2 * HBAR * C_LIGHT / (240.0 * a**4)
    dev = abs(res.pressure / exact - 1.0)
    check(5, dev < 1e-3,
          f"pressure {res.pressure:.6e} Pa vs ideal-metal {exact:.6e} Pa, "
          f"deviation {dev:.2e} (tolerance 1e-3)")


def test_criterion_6_classical_limit_oracle():
    a = 20e-6
    p = _pressure(a, nickel("drude"))
    li_tm = polylog3(1.0)
    li_te = polylog3((109.0 / 111.0) ** 2)
    expected = -(K_BOLTZMANN * 300.0 / (8.0 * math.pi)) * (li_tm + li_te)
    dev = abs(a**3 * p / expected - 1.0)
    check(6, dev < 0.01,
          f"a^3 P = {a**3 * p:.6e} vs polylog form {expected:.6e}, "
          f"deviation {dev:.2e} (tolerance 1%)")


def test_criterion_7_roughness_magnitude():
    factor = roughness_factor(300e-9, GeometryParams(radius=61.71e-6,
                                                     delta_s=1.5e-9,
                                                     delta_p=1.4e-9))
    dev = abs(factor - (1.0 + 4.68e-4))
    check(7, dev <= 1e-6,
          f"roughness factor {factor:.9f} vs 1 + 4.68e-4, |diff| = {dev:.2e}")


def test_criterion_8_property_suites(ni_models, tmp_path):
    failures = []

    # reflection boundedness
    for variant, m in ni_models.items():
        for l in (0, 1, 5, 50):
            for k in (1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
                r = refl_pair(l, k, m, CTX)
                if abs(r.r_tm) > 1.0 or abs(r.r_te) > 1.0:
                    failures.append(f"|r| > 1 at {variant}, l={l}, k={k}")

    # permittivity ordering
    ni = ni_models["nonlocal"]
    for fac in (1.0, 10.0, 100.0):
        for k in (1e5, 1e6, 1e8):
            xi = fac * matsubara_xi(1, CTX)
            e_t, e_l = eps_pair(xi, k, ni)
            e_d = eps_pair(xi, 0.0, ni_models["drude"])[0]
            if not e_l <= e_d <= e_t:
                failures.append(f"eps ordering broken at xi={xi}, k={k}")

    # attraction and monotone decay
    mags = []
    for a in np.geomspace(100e-9, 5e-6, 5):
        p = _pressure(float(a), ni)
        if p >= 0.0:
            failures.append(f"pressure not attractive at a={a}")
        mags.append(abs(p))
    if not all(m1 > m2 for m1, m2 in zip(mags, mags[1:])):
        failures.append("pressure magnitude not strictly decreasing")

    # local-limit convergence of the closed-form coefficients
    from casimag import MaterialModel, refl_fresnel
    xi = matsubara_xi(1, CTX)
    eps = eps_pair(xi, 0.0, ni_models["drude"])[0]
    fres = refl_fresnel(1, 2e6, eps, 1.0, CTX)
    prev = None
    for scale in (1.0, 0.5, 0.25):
        m = MaterialModel(omega_p=ni.omega_p, gamma=ni.gamma, mu0=ni.mu0,
                          v_t=scale * ni.v_t, v_l=scale * ni.v_l,
                          variant="nonlocal")
        r = refl_pair(1, 2e6, m, CTX)
        dev = max(abs(r.r_tm - fres.r_tm), abs(r.r_te - fres.r_te))
        if prev is not None and not dev < prev:
            failures.append("local-limit deviation not decreasing with v")
        prev = dev

    # deterministic CSV emission
    cfg = tmp_path / "det.cfg"
    cfg.write_text("variant = nonlocal\nomega_p_ev = 4.89\n"
                   "gamma_ev = 0.0436\nmu0 = 110\nv_t_over_vf = 7\n"
                   "v_l_over_vf = 7\na_min_nm = 2000\na_max_nm = 3000\n"
                   "points = 2\n", encoding="utf-8")
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    cli_main(["pressure", "--config", str(cfg), "--model", "all",
              "--output", str(out1)])
    cli_main(["pressure", "--config", str(cfg), "--model", "all",
              "--output", str(out2)])
    if out1.read_bytes() != out2.read_bytes():
        failures.append("CSV output not byte-identical across reruns")

    check(8, not failures, "property suites: " +
          ("; ".join(failures) if failures else
           "boundedness, ordering, attraction/decay, local limit, "
           "determinism all hold"))
