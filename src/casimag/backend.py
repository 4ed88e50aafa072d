"""Alias of the one integrand kernel, ``reflection.lifshitz_summand``.

No module of the package imports this one.  It exists only because the
per-layer benchmark tracer (``perfbench/tracer.py``) names its ``kernel``
binding as ``casimag.backend.lifshitz_summand``; the tracer wraps that
function object wherever it is bound, so the alias keeps the kernel and
the static/Matsubara split of the trace populated.
"""

from .reflection import lifshitz_summand
