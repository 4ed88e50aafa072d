"""Kernel backend selection: compiled extension with pure-NumPy fallback.

The compiled kernel is used when the extension built; setting the
environment variable ``CASIMAG_PURE_PYTHON=1`` before import forces the
NumPy kernel of ``casimag.reflection`` (used by the benchmark and the
backend-parity tests).
"""

import os

from . import reflection

if os.environ.get("CASIMAG_PURE_PYTHON"):
    _impl = reflection
    BACKEND = "python"
else:
    try:
        from . import _kernel as _impl
        BACKEND = "compiled"
    except ImportError:
        _impl = reflection
        BACKEND = "python"

lifshitz_summand = _impl.lifshitz_summand
