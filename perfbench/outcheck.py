"""Output checks for the benchmark, independent of the fold order.

A reduce report is accepted when every event of its reduction trace
agrees with a numpy reference computed from that event's own inputs,
so any order of series and parallel moves passes:

* series: d * svd(diag(sqrt x) F diag(sqrt y))^2 with F the Fourier
  matrix on 1-based indices, renormalized;
* parallel: the full Kronecker product of the bundle, sorted, and the
  water-filling scan down to d entries.

Floats in the report carry 12 significant digits, so references are
compared within TOL rather than exactly.
"""

import numpy as np

TOL = 1e-9


def series_reference(x, y):
    """Series rule output for Schmidt vectors x and y."""
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    d = len(x)
    j = np.arange(1, d + 1)
    f = np.exp(-2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    s = np.linalg.svd(np.sqrt(x)[:, None] * f * np.sqrt(y)[None, :], compute_uv=False)
    out = np.sort(d * s * s)[::-1]
    return out / out.sum()


def parallel_reference(vectors, d):
    """Parallel rule output for a bundle of Schmidt vectors."""
    prod = np.ones(1)
    for v in vectors:
        prod = np.kron(prod, np.asarray(v, dtype=float))
    srt = np.sort(prod)[::-1]
    rest = srt.sum()
    out = np.empty(d)
    for i in range(d):
        out[i] = max(srt[i], rest / (d - i))
        rest -= out[i]
    return out / out.sum()


def _far(got, want):
    got = np.asarray(got, dtype=float)
    return got.shape != np.shape(want) or float(np.max(np.abs(got - want))) > TOL


def check_reduce(doc, dimension, edge_count):
    """Errors found in a reduce report of a network with `edge_count`
    links of dimension `dimension`; an empty list means correct."""
    errors = []
    if doc.get("dimension") != dimension or doc.get("edge_count") != edge_count:
        errors.append("dimension or edge_count differs from the input network")
    trace = doc.get("reduction_trace", [])
    removed = 0
    last_output = None
    for i, ev in enumerate(trace):
        op = ev.get("op")
        if op == "series":
            removed += 1
            want = series_reference(*ev["inputs"])
        elif op == "parallel":
            removed += ev["arity"] - 1
            if ev["arity"] != len(ev["inputs"]):
                errors.append(f"event {i}: arity {ev['arity']} but {len(ev['inputs'])} inputs")
            want = parallel_reference(ev["inputs"], dimension)
        elif op == "drop_self_loop":
            removed += 1
            continue
        else:
            errors.append(f"event {i}: unknown op {op!r}")
            continue
        if _far(ev["output"], want):
            errors.append(f"event {i}: {op} output {ev['output']} differs from reference {want.tolist()}")
        last_output = ev["output"]
    # every move removes edges; a full reduction leaves exactly one
    if removed != edge_count - 1:
        errors.append(f"trace removes {removed} edges, the network needs {edge_count - 1}")
    final = doc.get("det_vector")
    if not isinstance(final, list) or len(final) != dimension:
        return errors + ["det_vector missing or of the wrong length"]
    if last_output is not None and _far(final, np.asarray(last_output, dtype=float)):
        errors.append("det_vector differs from the last event's output")
    if any(a < b for a, b in zip(final, final[1:])):
        errors.append("det_vector is not descending")
    if abs(sum(final) - 1.0) > TOL:
        errors.append(f"det_vector sums to {sum(final)!r}")
    cep = doc.get("cep_probability")
    if not isinstance(cep, (int, float)) or not 0.0 <= cep <= 1.0:
        errors.append(f"cep_probability {cep!r} outside [0, 1]")
    return errors


def check_verify(reports, trials):
    """Errors found in the reports of one `run_checks(name, cfg)` call."""
    if len(reports) != 1:
        return [f"expected one report, got {len(reports)}"]
    rep = reports[0]
    errors = []
    if not rep.passed:
        errors.append(f"{rep.name} reports violations")
    if rep.trials_run != trials:
        errors.append(f"{rep.name} ran {rep.trials_run} trials, configured {trials}")
    return errors


def check_cli(code, stdout, want_code, want_bytes):
    """Errors found in one CLI run: exit code, then stdout byte for byte
    against the golden file (None when no output is expected)."""
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    if want_bytes is not None and stdout != want_bytes:
        return ["stdout differs from the golden bytes"]
    return []
