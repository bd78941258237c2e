"""Per-layer tracing for the benchmark, installed from outside qnetdet.

`Tracer.install` replaces each traced public function with a wrapper
that counts calls and busy seconds while the tracer is active.  Callers
inside qnetdet bind many of these names at import time
(``from .rules import swap_rule``), so every qnetdet module attribute
that is the original function is rebound, and so is every entry of the
check registry.  Kernel times are inclusive: ``swap_eig`` contains the
``eigh_desc`` call it makes.
"""

import functools
import importlib
import sys
import time

# layer -> (module, owner attribute or None, traced function names)
LAYERS = {
    "cli": ("qnetdet.cli", None, ("main",)),
    "network": (
        "qnetdet.network",
        None,
        ("parse_network", "classify_topology", "reduce_series_parallel", "cep_probability", "report"),
    ),
    "rules": (
        "qnetdet.rules",
        None,
        ("swap_rule", "purify_rule", "conversion_probability", "enumerate_swap_outcomes", "validate_povm"),
    ),
    "kernels": (
        "qnetdet.backend",
        "kernels",
        ("swap_eig", "swap_sv", "eigh_desc", "sv_desc", "purify_kernel", "esym"),
    ),
    "schmidt": ("qnetdet.schmidt", None, ("concurrence", "kron")),
    "sampling": (
        "qnetdet.sampling",
        None,
        ("substream", "sample_povm", "sample_povm_arrays", "sample_local_kraus", "sample_wide_kraus"),
    ),
    "jsonio": ("qnetdet._jsonio", None, ("render_json",)),
    "numpy.linalg": ("numpy.linalg", None, ("svd", "eigh")),
}

# the reduction engine runs under these three calls
ENGINE = ("network.classify_topology", "network.reduce_series_parallel", "network.cep_probability")


def _entries(args, result):
    x = args[0]
    return len(getattr(x, "entries", x))


def _bytes(args, result):
    return len(result.encode("utf-8"))


# label -> (size name, size of one call)
SIZES = {
    "rules.purify_rule": ("input_entries", _entries),
    "jsonio.render_json": ("bytes", _bytes),
}


class Tracer:
    """Calls and seconds per traced function, plus the rules time spent
    under the engine calls, accumulated only while `active` is true."""

    def __init__(self):
        self.active = False
        self.calls = {}
        self.seconds = {}
        self.sizes = {}
        self.engine_rules_s = 0.0
        self._engine_depth = 0
        self._rules_depth = 0

    def _wrap(self, label, fn):
        self.calls.setdefault(label, 0)
        self.seconds.setdefault(label, 0.0)
        engine = label in ENGINE
        rule = label.startswith("rules.")
        size = SIZES.get(label)
        if size:
            self.sizes.setdefault(f"{label}.{size[0]}", 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._engine_depth += engine
            self._rules_depth += rule
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[label] += 1
                self.seconds[label] += dt
                self._engine_depth -= engine
                self._rules_depth -= rule
                if rule and not self._rules_depth and self._engine_depth:
                    self.engine_rules_s += dt
            if size:
                self.sizes[f"{label}.{size[0]}"] += size[1](args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever qnetdet has bound it."""
        replaced = {}
        for layer, (modname, owner_attr, names) in LAYERS.items():
            owner = importlib.import_module(modname)
            if owner_attr:
                owner = getattr(owner, owner_attr)
            for name in names:
                orig = getattr(owner, name)
                replaced[id(orig)] = (orig, self._wrap(f"{layer}.{name}", orig))
                setattr(owner, name, replaced[id(orig)][1])
        checks = importlib.import_module("qnetdet.checks")
        for name, fn in list(checks.CHECKS.items()):
            replaced[id(fn)] = (fn, self._wrap(f"checks.{name}", fn))
            checks.CHECKS[name] = replaced[id(fn)][1]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qnetdet" or modname.startswith("qnetdet.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def raw(self):
        """Counters as a JSON-ready dict; `merge` adds such dicts up."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "sizes": dict(self.sizes),
            "engine_rules_s": self.engine_rules_s,
        }


def merge(total, raw):
    """Add the counters of `raw` into `total` (both from `Tracer.raw`)."""
    for key in ("calls", "seconds", "sizes"):
        for label, value in raw[key].items():
            total[key][label] = total[key].get(label, 0) + value
    total["engine_rules_s"] += raw["engine_rules_s"]
    return total


def empty():
    """Zero counters in the form of `Tracer.raw`."""
    return {"calls": {}, "seconds": {}, "sizes": {}, "engine_rules_s": 0.0}
