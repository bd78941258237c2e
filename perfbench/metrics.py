"""Names and units of the benchmark's metrics, and the per-layer
figures computed from tracer counters.  BENCHMARK.json lists the same
names; a test keeps the two in step."""

import statistics

import tracer

WORKLOADS = ("reduce-bundles", "reduce-chains", "reduce-nested", "verify", "cli")

# The 15 checks of the verify workload, named so that a check added to
# the library later does not change the workload.
VERIFY_CHECKS = (
    "lemma_convexity_swap",
    "lemma_det_preserving",
    "lemma_duality",
    "lemma_extremity",
    "lemma_convexity_purify",
    "lemma_sum_product",
    "isotone_maps",
    "prefix_power",
    "reverse_amgm",
    "theorem_single_link",
    "theorem_simple_series",
    "theorem_simple_parallel",
    "theorem_parallel_then_series",
    "theorem_worst_case_d2",
    "counterexample",
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("success_rate", "frac"),
    ("peak_rss_mb", "MB"),
)

_CALLS_AND_S = {
    "rules": ("swap_rule", "purify_rule", "conversion_probability", "enumerate_swap_outcomes", "validate_povm"),
    "kernels": ("swap_eig", "swap_sv", "eigh_desc", "sv_desc", "purify_kernel", "esym"),
    "schmidt": ("concurrence", "kron"),
    "sampling": ("substream", "sample_povm", "sample_povm_arrays", "sample_local_kraus", "sample_wide_kraus"),
}
_NETWORK_S = ("parse_network", "classify_topology", "reduce_series_parallel", "cep_probability", "report")


def _per_layer_spec():
    spec = [
        ("cli.main.s", "s/op"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
    ]
    spec += [(f"network.{f}.s", "s/op") for f in _NETWORK_S]
    spec += [
        ("network.engine_self_s", "s/op"),
        ("network.series_moves", "moves/op"),
        ("network.parallel_moves", "moves/op"),
        ("network.max_bundle_arity", "links"),
    ]
    for layer, names in _CALLS_AND_S.items():
        for f in names:
            spec += [(f"{layer}.{f}.calls", "calls/op"), (f"{layer}.{f}.s", "s/op")]
            if (layer, f) == ("rules", "purify_rule"):
                spec.append(("rules.purify_rule.input_entries", "entries/op"))
    spec += [(f"checks.{name}.s", "s/op") for name in VERIFY_CHECKS]
    spec += [
        ("numpy.linalg.svd.calls", "calls/op"),
        ("numpy.linalg.eigh.calls", "calls/op"),
        ("numpy.linalg.svd.s", "s/op"),
        ("jsonio.render_json.s", "s/op"),
        ("jsonio.render_json.bytes", "bytes/op"),
        ("trace.op_s", "s/op"),
        ("trace.overhead_frac", "frac"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


def moves(doc):
    """(series moves, parallel moves, largest bundle arity) of a reduce report."""
    series = parallel = arity = 0
    for ev in doc.get("reduction_trace", ()):
        if ev.get("op") == "series":
            series += 1
        elif ev.get("op") == "parallel":
            parallel += 1
            arity = max(arity, ev["arity"])
    return series, parallel, arity


def quantile(values, q):
    """Inclusive quantile of a list of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(raw, ops, traced_s, overhead, probes, move_totals):
    """Per-layer metrics of a traced phase of `ops` operations.

    raw: merged tracer counters; traced_s: summed traced op latency;
    overhead: 1 - traced over untraced ops per second; probes: bare
    interpreter and `import qnetdet.cli` wall times; move_totals: summed
    series and parallel moves and the largest bundle arity."""
    calls, secs, sizes = raw["calls"], raw["seconds"], raw["sizes"]
    engine = sum(secs.get(label, 0.0) for label in tracer.ENGINE)
    found = {
        "cli.interpreter_s": probes["bare"],
        "cli.import_s": probes["import"] - probes["bare"],
        "network.engine_self_s": (engine - raw["engine_rules_s"]) / ops,
        "network.series_moves": move_totals[0] / ops,
        "network.parallel_moves": move_totals[1] / ops,
        "network.max_bundle_arity": move_totals[2],
        "trace.op_s": traced_s / ops,
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in found:
            value = found[name]
        elif name in sizes:
            value = sizes[name] / ops
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0) / ops
        else:
            value = secs.get(name[: -len(".s")], 0.0) / ops
        out[name] = {"value": value, "unit": unit}
    return out
