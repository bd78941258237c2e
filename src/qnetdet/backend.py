"""Kernel backend selection.

The compiled extension is used when it can be imported; otherwise the
pure-Python kernels, a drop-in replacement, are.
"""

from __future__ import annotations

try:
    from . import _kernels_c as kernels
except ImportError:
    from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the active kernel backend: "c" or "py"."""
    return kernels.BACKEND
