"""The kernel module that library code and profilers reach."""

import qnetdet
from qnetdet import _kernels_py
from qnetdet.backend import backend_name, kernels


def test_backend_name():
    # a profiler wraps kernels by setting attributes on this module
    # object and records backend_name() with its results
    assert kernels is _kernels_py
    assert backend_name() == qnetdet.backend_name() == "py"
