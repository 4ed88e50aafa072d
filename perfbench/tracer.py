"""Per-layer spans of one CLI operation, recorded from outside the program.

``Tracer`` replaces public casimag functions by timing wrappers at every
module attribute that binds them, so a call through any import path is
seen.  Spans nest: a layer's self time is its span time minus the time of
the spans it caused.  Counters are kept at the same boundaries.  Only the
traced worker imports this module; the end-to-end run never does.

A binding that no longer exists is recorded as missing, and every metric
derived from it is reported as ``None`` instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# binding name -> (module, attribute) wrapped when present
BINDINGS = {
    "kernel": ("casimag.backend", "lifshitz_summand"),
    "quad_pressure": ("casimag.lifshitz", "adaptive_quad"),
    "quad_kk": ("casimag.quadrature", "adaptive_quad"),
    "kk": ("casimag.response", "eps_core_kk"),
    "pressure": ("casimag.lifshitz", "pressure"),
    "gradient_theory": ("casimag.sphere_plate", "gradient_theory"),
    "compare": ("casimag.sphere_plate", "compare"),
    "write_csv": ("casimag.csvio", "write_csv"),
    "parse_config": ("casimag.config", "parse_config"),
    "build_material": ("casimag.config", "build_material"),
    "build_context": ("casimag.config", "build_context"),
    "build_geometry": ("casimag.config", "build_geometry"),
    "separation_grid": ("casimag.config", "separation_grid"),
}

# per-operation sums a worker reports -> bindings they are derived from
SUMS = {
    "lifshitz.pressure.calls": ("pressure",),
    "lifshitz.pressure.s": ("pressure",),
    "lifshitz.terms_used": ("pressure",),
    "lifshitz.terms_evaluated": ("pressure", "kernel"),
    "lifshitz.static.s": ("quad_pressure", "kernel"),
    "lifshitz.static.kernel_calls": ("kernel",),
    "lifshitz.static.nodes": ("kernel",),
    "lifshitz.matsubara.s": ("quad_pressure", "kernel"),
    "lifshitz.matsubara.kernel_calls": ("kernel",),
    "lifshitz.matsubara.nodes": ("kernel",),
    "kernel.calls": ("kernel",),
    "kernel.nodes": ("kernel",),
    "kernel.s": ("kernel",),
    "quadrature.pressure.calls": ("quad_pressure",),
    "quadrature.pressure.panels": ("quad_pressure",),
    "quadrature.pressure.self_s": ("quad_pressure", "kernel"),
    "quadrature.kk.calls": ("quad_kk", "kk"),
    "quadrature.kk.panels": ("quad_kk", "kk"),
    "quadrature.kk.s": ("quad_kk", "kk"),
    "response.kk.calls": ("kk",),
    "response.kk.misses": ("kk",),
    "response.kk.s": ("kk",),
    "sphere_plate.self_s": ("gradient_theory", "compare"),
    "csvio.s": ("write_csv",),
    "csvio.bytes": ("write_csv",),
    "config.s": ("parse_config", "build_material", "build_context",
                 "build_geometry", "separation_grid"),
    "cli.self_s": (),
}

def is_time(key: str) -> bool:
    """Whether the sum named ``key`` is a time in seconds."""
    return key.endswith((".s", "_s"))


# layer of each binding wrapped by the plain span wrapper
_LAYERS = {"kk": "response.kk", "gradient_theory": "sphere_plate",
           "compare": "sphere_plate", "write_csv": "csvio",
           **{name: "config" for name in SUMS["config.s"]}}


class _Span:
    __slots__ = ("layer", "child", "xi", "xis")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0   # time covered by the spans this one caused
        self.xi = None     # first kernel xi seen (quadrature spans)
        self.xis = None    # distinct kernel xi seen (pressure spans)


class Tracer:
    """Wraps casimag at its module attributes; ``sums()`` reports totals."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self._depth = defaultdict(int)
        self._pressure: _Span | None = None
        self._kernel = {False: [0, 0, 0.0], True: [0, 0, 0.0]}  # by xi > 0
        self._kk_keys = set()
        self.missing = set()
        wrappers = {}  # id of the original function -> its one wrapper
        for name, (module, attr) in BINDINGS.items():
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._make_wrapper(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "casimag"
                                   or mod_name.startswith("casimag.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])

    # -- span bookkeeping -------------------------------------------------
    def _open(self, layer: str) -> _Span:
        span = _Span(layer)
        self.stack.append(span)
        self._depth[layer] += 1
        return span

    def _close(self, span: _Span, dur: float) -> None:
        self.stack.pop()
        layer = span.layer
        self._depth[layer] -= 1
        self.calls[layer] += 1
        self.self_s[layer] += dur - span.child
        if self._depth[layer] == 0:
            self.incl_s[layer] += dur
        if self.stack:
            self.stack[-1].child += dur

    def run(self, fn, *args):
        """Call ``fn`` inside the outermost 'cli' span."""
        span = self._open("cli")
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, perf_counter() - t0)

    # -- wrappers ---------------------------------------------------------
    def _make_wrapper(self, name, fn):
        if name == "kernel":
            return self._wrap_kernel(fn)
        if name in ("quad_pressure", "quad_kk"):
            return self._wrap_quad(fn)
        if name == "pressure":
            return self._wrap_pressure(fn)
        return self._wrap_span(_LAYERS[name], fn)

    def _wrap_span(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(layer)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, perf_counter() - t0)
                if layer == "response.kk" and len(args) >= 2:
                    tracer._kk_keys.add((args[0], args[1]))
                elif layer == "csvio" and args and args[0] != "-":
                    tracer.count["csvio.bytes"] += os.path.getsize(args[0])
        return wrapper

    def _wrap_pressure(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open("lifshitz.pressure")
            span.xis = set()
            outer, tracer._pressure = tracer._pressure, span
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(span, perf_counter() - t0)
                tracer._pressure = outer
                tracer.count["lifshitz.terms_evaluated"] += len(span.xis)
            tracer.count["lifshitz.terms_used"] += getattr(res, "terms_used", 0)
            return res
        return wrapper

    def _wrap_quad(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1].layer if tracer.stack else ""
            layer = {"response.kk": "quadrature.kk",
                     "lifshitz.pressure": "quadrature.pressure"}.get(
                         parent, "quadrature.other")
            span = tracer._open(layer)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer._close(span, dur)
                if layer == "quadrature.pressure":
                    part = "static" if span.xi == 0.0 else "matsubara"
                    tracer.count[f"lifshitz.{part}.s"] += dur
            tracer.count[f"{layer}.panels"] += getattr(res, "panels", 0)
            return res
        return wrapper

    def _wrap_kernel(self, fn):
        stack = self.stack
        tally = self._kernel
        tracer = self

        def wrapper(y, xi, *args):
            t0 = perf_counter()
            out = fn(y, xi, *args)
            dur = perf_counter() - t0
            t = tally[xi != 0.0]
            t[0] += 1
            t[1] += np.size(y)
            t[2] += dur
            if stack:
                parent = stack[-1]
                parent.child += dur
                if parent.xi is None:
                    parent.xi = xi
            if tracer._pressure is not None:
                tracer._pressure.xis.add(xi)
            return out
        return wrapper

    # -- report -----------------------------------------------------------
    def sums(self) -> dict:
        """Per-operation totals, None where a binding is missing."""
        c = self.count
        static, mats = self._kernel[False], self._kernel[True]
        out = {
            "lifshitz.pressure.calls": self.calls["lifshitz.pressure"],
            "lifshitz.pressure.s": self.incl_s["lifshitz.pressure"],
            "lifshitz.terms_used": c["lifshitz.terms_used"],
            "lifshitz.terms_evaluated": c["lifshitz.terms_evaluated"],
            "lifshitz.static.s": c["lifshitz.static.s"],
            "lifshitz.static.kernel_calls": static[0],
            "lifshitz.static.nodes": static[1],
            "lifshitz.matsubara.s": c["lifshitz.matsubara.s"],
            "lifshitz.matsubara.kernel_calls": mats[0],
            "lifshitz.matsubara.nodes": mats[1],
            "kernel.calls": static[0] + mats[0],
            "kernel.nodes": static[1] + mats[1],
            "kernel.s": static[2] + mats[2],
            "quadrature.pressure.calls": self.calls["quadrature.pressure"],
            "quadrature.pressure.panels": c["quadrature.pressure.panels"],
            "quadrature.pressure.self_s": self.self_s["quadrature.pressure"],
            "quadrature.kk.calls": self.calls["quadrature.kk"],
            "quadrature.kk.panels": c["quadrature.kk.panels"],
            "quadrature.kk.s": self.incl_s["quadrature.kk"],
            "response.kk.calls": self.calls["response.kk"],
            "response.kk.misses": len(self._kk_keys),
            "response.kk.s": self.incl_s["response.kk"],
            "sphere_plate.self_s": self.self_s["sphere_plate"],
            "csvio.s": self.incl_s["csvio"],
            "csvio.bytes": c["csvio.bytes"],
            "config.s": self.incl_s["config"],
            "cli.self_s": self.self_s["cli"],
        }
        for key, deps in SUMS.items():
            if self.missing.intersection(deps):
                out[key] = None
        return out
