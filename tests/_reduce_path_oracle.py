"""Reference copies of the reduce path as it stood before each Schmidt
vector was validated once and then read as it is, for tests only.

Every function below is the package's code from before that change,
kept verbatim but for its name's module: `normalize_descending` with its
per-entry clamp `_clamped` always run, `swap_rule` with the copies and
re-sorts of the series rule, `conversion_probability` sorting both
arguments, `network_from_dict` with a set per edge and a generator per
check, `_fold` over a dict and `_reduce` copying every event.  The
topology fold `_classify`, which the package replaced by reading the
class off the move list, is kept the same way.  The differential tests
compare the package with them, bit for bit or error for error, and the
package never imports this module.
"""

import math

from qnetdet.errors import (
    DimensionMismatch,
    EmptyInput,
    LengthMismatchAfterPadding,
    MixedDimensions,
    MissingTerminal,
    NegativeEntry,
    NonFiniteEntry,
    SchemaError,
    ZeroSum,
)
from qnetdet.network import Edge, QuantumNetwork, TopologyClass, _check_endpoint, _det_parallel
from qnetdet.rules import SERIES_LAPACK_MIN_D, _flatness, _fourier, _series_qubit, kernels
from qnetdet.schmidt import MAJORIZATION_ATOL, SchmidtVector

_NEG_EPS = 1e-12


def _clamped(vals: list) -> list:
    out = []
    for v in vals:
        if not math.isfinite(v):
            raise NonFiniteEntry(f"entry {v!r} is not finite")
        if v < -_NEG_EPS:
            raise NegativeEntry(f"entry {v!r} below zero")
        out.append(v if v > 0.0 else 0.0)
    return out


def _check_unit_total(entries: list) -> None:
    total = math.fsum(entries)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"entries sum to {total!r}, expected 1 within 1e-12")


def normalize_descending(values):
    clamped = _clamped([float(v) for v in values])
    if not clamped:
        raise EmptyInput("nothing to normalize")
    total = math.fsum(clamped)
    if total <= 0.0:
        raise ZeroSum("entries sum to zero")
    out = [v / total for v in clamped]
    out.sort(reverse=True)
    _check_unit_total(out)
    vec = object.__new__(SchmidtVector)
    object.__setattr__(vec, "entries", tuple(out))
    return vec


def _series(xs: list, ys: list) -> list:
    xs = sorted(xs, reverse=True)
    ys = sorted(ys, reverse=True)
    if (_flatness(ys), ys) > (_flatness(xs), xs):
        xs, ys = ys, xs
    d = len(xs)
    if d == 2:
        return _series_qubit(xs, ys)
    if d < SERIES_LAPACK_MIN_D:
        return kernels.swap_sv(xs, ys)
    import numpy as np

    p = sum(v > 0.0 for v in xs)
    q = sum(v > 0.0 for v in ys)
    m = np.sqrt(xs[:p])[:, None] * _fourier(d)[:p, :q] * np.sqrt(ys[:q])
    s = np.linalg.svd(m, compute_uv=False)
    return (s * s).tolist() + [0.0] * (d - min(p, q))


def swap_rule(x: SchmidtVector, y: SchmidtVector) -> SchmidtVector:
    if not isinstance(x, SchmidtVector):
        x = SchmidtVector(x)
    if not isinstance(y, SchmidtVector):
        y = SchmidtVector(y)
    if x.dimension != y.dimension:
        raise DimensionMismatch(f"dimensions {x.dimension} and {y.dimension} differ")
    return normalize_descending(_series(list(x.entries), list(y.entries)))


def conversion_probability(source: SchmidtVector, target: SchmidtVector) -> float:
    src = sorted(source.entries if isinstance(source, SchmidtVector) else map(float, source), reverse=True)
    tgt = sorted(target.entries if isinstance(target, SchmidtVector) else map(float, target), reverse=True)
    m = len(src)
    if len(tgt) > m:
        raise LengthMismatchAfterPadding(f"target length {len(tgt)} exceeds source length {m}")
    tgt = tgt + [0.0] * (m - len(tgt))
    best = 1.0
    deficit = -math.inf
    ps = 0.0
    pt = 0.0
    for k in range(m):
        if k > 0:
            ps += src[k - 1]
            pt += tgt[k - 1]
            if ps - pt > deficit:
                deficit = ps - pt
        den = 1.0 - pt
        if den <= 1e-15:
            continue
        num = 1.0 - ps
        if num < 0.0:
            num = 0.0
        ratio = num / den
        if ratio < best:
            best = ratio
    if deficit <= MAJORIZATION_ATOL and abs(math.fsum(tgt) - math.fsum(src)) <= MAJORIZATION_ATOL:
        return 1.0
    return best


def network_from_dict(obj) -> QuantumNetwork:
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    missing = {"dimension", "terminals", "edges"} - set(obj)
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    d = obj["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SchemaError(f"dimension must be a positive integer, got {d!r}")
    terms = obj["terminals"]
    if not isinstance(terms, list) or len(terms) != 2:
        raise MissingTerminal("terminals must be a list of two node names")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    edges = []
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, dict) or {"u", "v", "schmidt"} - set(re_):
            raise SchemaError(f"edge {i} must be an object with keys u, v, schmidt")
        u = _check_endpoint(re_["u"])
        v = _check_endpoint(re_["v"])
        vec = re_["schmidt"]
        if not isinstance(vec, list) or not vec or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec
        ):
            raise SchemaError(f"edge {i} schmidt must be a non-empty list of numbers")
        if len(vec) != d:
            raise MixedDimensions(f"edge {i} has {len(vec)} entries, dimension is {d}")
        if any(x < -1e-12 for x in vec):
            raise SchemaError(f"edge {i} schmidt has a negative entry")
        total = math.fsum(vec)
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"edge {i} schmidt sums to {total!r}, expected 1 within 1e-9")
        edges.append(Edge(u, v, normalize_descending(vec)))
    return QuantumNetwork(d, terms, edges)


def _fold(moves, values, series_fn, parallel_fn) -> dict:
    values = dict(enumerate(values))
    for move in moves:
        if move["op"] == "series":
            values[move["output"]] = series_fn(*(values[e] for e in move["inputs"]))
        elif move["op"] == "parallel":
            values[move["output"]] = parallel_fn([values[e] for e in move["inputs"]])
    return values


def _reduce(network, moves, root):
    links = _fold(moves, [e.link for e in network.edges], swap_rule, _det_parallel)
    shown = {eid: [float(v) for v in vec] for eid, vec in links.items()}
    trace = []
    for move in moves:
        event = dict(move)
        if "link" in event:
            event["link"] = shown[event["link"]]
        else:
            inputs = [shown[e] for e in event["inputs"]]
            # a bundle is listed in the order _det_parallel folds it
            event["inputs"] = sorted(inputs) if event["op"] == "parallel" else inputs
            event["output"] = shown[event["output"]]
        trace.append(event)
    return links[root], trace


_LEAF = (None, 0, 0, 0)


def _shape(op, parts):
    """Shape of the edge that move `op` makes from `parts`, as (op,
    leaves, plain, other): how many of its parts, nested `op` moves
    flattened, are single links, the other operator over single links
    only, or anything else.  A single link is _LEAF."""
    leaves = plain = other = 0
    for part_op, part_leaves, part_plain, part_other in parts:
        if part_op == op:
            leaves += part_leaves
            plain += part_plain
            other += part_other
        elif part_op is None:
            leaves += 1
        elif part_plain == part_other == 0:
            plain += 1
        else:
            other += 1
    return op, leaves, plain, other


def _classify(network, moves, root) -> TopologyClass:
    """Class of a decomposed network: series of links is a simple
    series, parallel of links a simple parallel, series of links and
    parallels of links is parallel-then-series, and parallel of series
    of links with at most one single link is series-then-parallel."""
    op, leaves, plain, other = _fold(
        moves,
        [_LEAF] * len(network.edges),
        lambda p, q: _shape("series", (p, q)),
        lambda ps: _shape("parallel", ps),
    )[root]
    if plain == other == 0:
        return TopologyClass.SIMPLE_PARALLEL if op == "parallel" else TopologyClass.SIMPLE_SERIES
    if other:
        return TopologyClass.SERIES_PARALLEL
    if op == "series":
        return TopologyClass.PARALLEL_THEN_SERIES
    return TopologyClass.SERIES_THEN_PARALLEL if leaves <= 1 else TopologyClass.SERIES_PARALLEL
