"""The numerical kernels, as one module object.

Library code calls `kernels.<name>(...)` through this module, looking
the name up at call time, so a profiler can wrap a kernel by setting
the attribute on `kernels`.
"""

from __future__ import annotations

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel implementation: always "py"."""
    return "py"
