"""The kernel module that library code and profilers reach, and the
names the benchmark harness under perfbench/ looks up in qnetdet."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import qnetdet
from qnetdet import _kernels_py, checks
from qnetdet.backend import backend_name, kernels

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def harness(monkeypatch):
    """perfbench's tracer and metrics modules, loaded by path; metrics
    imports tracer as a top-level module."""
    tracer = _load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    return tracer, _load("metrics")


def test_backend_name():
    # a profiler wraps kernels by setting attributes on this module
    # object and records backend_name() with its results
    assert kernels is _kernels_py
    assert backend_name() == qnetdet.backend_name() == "py"


def test_traced_layers_resolve(harness):
    tracer, _ = harness
    for modname, owner_attr, names in tracer.LAYERS.values():
        owner = importlib.import_module(modname)
        if owner_attr:
            owner = getattr(owner, owner_attr)
        for name in names:
            assert callable(getattr(owner, name, None)), f"{modname}.{owner_attr or ''}.{name}"


def test_verify_workload_checks_exist(harness):
    _, metrics = harness
    assert set(metrics.VERIFY_CHECKS) <= set(checks.CHECKS)
