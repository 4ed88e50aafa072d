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
