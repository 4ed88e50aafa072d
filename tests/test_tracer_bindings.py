"""The benchmark tracer's bindings still name live casimag functions.

``perfbench/tracer.py`` wraps casimag functions by (module, attribute);
a binding that no longer resolves silently turns its per-layer metrics
into None.  The tracer is loaded from its file without writing bytecode
and without instantiating it, so nothing is patched.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from casimag import backend, lifshitz, reflection, response
from casimag.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def bindings():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_binding_resolves(bindings):
    for name, (module, attr) in bindings.items():
        assert hasattr(importlib.import_module(module), attr), name


def test_traced_kernel_is_the_pressure_kernel():
    assert backend.lifshitz_summand is reflection.lifshitz_summand
    assert lifshitz.lifshitz_summand is reflection.lifshitz_summand


def test_traced_arguments_stay_positional_leaders():
    # the kernel wrapper reads (y, xi), the KK wrapper (xi, table)
    kernel = inspect.signature(reflection.lifshitz_summand).parameters
    assert list(kernel)[:2] == ["y", "xi"]
    kk = inspect.signature(response.eps_core_kk).parameters
    assert list(kk)[:2] == ["xi", "table"]


CONFIG = """
variant = nonlocal
omega_p_ev = 4.89
gamma_ev = 0.0436
mu0 = 110
v_t_over_vf = 7
v_l_over_vf = 7
a_min_nm = 300
a_max_nm = 2000
points = 3
spacing = log
temperature_k = 300
radius_m = 61.71e-6
delta_s_m = 1.5e-9
delta_p_m = 1.4e-9
"""


def test_kernel_xi_stays_a_python_float(tmp_path, monkeypatch):
    # the tracer's kernel wrapper tallies by `xi != 0.0` and collects xi in
    # a set, which needs a hashable scalar, not an array
    (tmp_path / "run.cfg").write_text(CONFIG, encoding="utf-8")
    (tmp_path / "expt.csv").write_text(
        "a_nm,grad_uN_per_m,err_uN_per_m\n300,30.0,0.5\n900,0.5,0.05\n",
        encoding="utf-8")
    kernel = lifshitz.lifshitz_summand
    seen = []

    def spy(y, xi, *args):
        seen.append(xi)
        return kernel(y, xi, *args)

    monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
    monkeypatch.chdir(tmp_path)
    for cmd in (["ratio"], ["pressure"], ["gradient"],
                ["compare", "--experiment", "expt.csv"]):
        seen.clear()
        out = f"out-{cmd[0]}.csv"
        assert main([*cmd, "--config", "run.cfg", "--model", "all",
                     "--output", out]) == 0, cmd
        assert seen, cmd
        assert all(type(xi) is float for xi in seen), cmd
