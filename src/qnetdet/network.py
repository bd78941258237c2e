"""Quantum networks of bipartite links and their series-parallel reduction.

A network is an undirected multigraph whose edges carry Schmidt vectors
of a common local dimension, with two distinguished terminal nodes A
and B.  Its shape alone fixes an ordered list of moves that shrinks it
to one A-B edge.  Self-loops transmit nothing and are dropped, first on
input and then whenever a contraction closes one.  The moves then come
in rounds, repeated until a round changes nothing:

* parallel: every bundle of edges sharing both endpoints becomes one
  edge, bundles taken in sorted endpoint order;
* series: every non-terminal node of degree two is contracted, nodes
  taken by breadth-first distance from A and then by name, both the
  degrees and the distances as at the start of the series pass.  A
  node whose degree is no longer two when its turn comes waits for the
  next round.  The first input is the edge towards the neighbour that
  comes first by the same key.

Edges are ordered by id: the network's edges in input order, then the
edges the moves create, in creation order.

Each round touches only what the round before it changed.  The graph
keeps the edges of every endpoint pair, and the parallel pass sorts
only the pairs that came to hold two or more edges since the last
pass.  The series pass looks only at the nodes whose degree changed
since the last series pass; any other node was not of degree two then
and is not now.  The distances from A come from one breadth-first
search.  A contraction only shortens paths, and the distances stay
exact unless a new edge that is still there at the end of the pass
joins nodes more than one level apart.  Only then are they lowered,
from that edge's endpoints, visiting only the nodes whose distance
drops.  A round so costs time in what it changed and in the nodes
whose distance drops, times a logarithm for the sorting, not in the
size of the network: a 2001-edge qubit ladder that unlocks one move per
round decomposes in about 20 ms, where a full rescan and search per
round took 2 s.

The reduction folds these moves over the links.  A series move swaps
its two vectors.  A parallel move folds its bundle pairwise, members in
ascending order of their vectors (the order its trace event lists
them): each member joins the running vector in a d*d tensor product
that is purified back to d entries.  That costs O(k d^2 log d) for k
links and equals purifying the full d^k product (the
lemma_parallel_fold check of the verification suite), and no order of
the bundle's edges changes a bit of it.  The order of the moves is part
of the answer, because from dimension 4 on the series rule is not
associative (pinned by tests/test_rules.py::TestAssociativity and
acceptance criterion 08, not by a verify check).  The same moves fold
scalar scores into the probabilistic conversion figure, and the
topology class is read from their shape.
"""

from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

from .errors import (
    DanglingEndpoint,
    DisconnectedTerminals,
    MissingTerminal,
    MixedDimensions,
    NotSeriesParallel,
    SchemaError,
)
from .rules import conversion_probability, purify_rule, swap_rule
from .schmidt import SchmidtVector, concurrence, normalize_descending

logger = logging.getLogger(__name__)


class TopologyClass(Enum):
    """Exhaustive, mutually exclusive classification of a two-terminal
    network (after discarding self-loops):

    SIMPLE_SERIES          a single chain from A to B (including the
                           degenerate one-edge chain)
    SIMPLE_PARALLEL        two or more edges, all directly joining A and B
    PARALLEL_THEN_SERIES   a chain from A to B where at least one hop is
                           a multi-edge bundle
    SERIES_THEN_PARALLEL   two or more internally disjoint chains from A
                           to B, no bundles inside a chain
    SERIES_PARALLEL        reducible by series and parallel moves but not
                           of the above shapes
    NOT_SERIES_PARALLEL    reduction stalls (e.g. a bridge topology)
    """

    SIMPLE_SERIES = "SimpleSeries"
    SIMPLE_PARALLEL = "SimpleParallel"
    PARALLEL_THEN_SERIES = "ParallelThenSeries"
    SERIES_THEN_PARALLEL = "SeriesThenParallel"
    SERIES_PARALLEL = "SeriesParallel"
    NOT_SERIES_PARALLEL = "NotSeriesParallel"


@dataclass(frozen=True)
class Edge:
    """Undirected network edge carrying a Schmidt vector."""

    u: str
    v: str
    link: SchmidtVector


def _check_endpoint(name) -> str:
    if not isinstance(name, str) or not name:
        raise DanglingEndpoint(f"edge endpoint {name!r} is not a non-empty string")
    return name


@dataclass(frozen=True)
class QuantumNetwork:
    """Immutable two-terminal network of Schmidt-vector links."""

    dimension: int
    terminals: Tuple[str, str]
    edges: Tuple[Edge, ...]

    def __init__(self, dimension: int, terminals: Iterable[str], edges: Iterable[Edge]):
        terms = tuple(terminals)
        if len(terms) != 2 or terms[0] == terms[1]:
            raise MissingTerminal("exactly two distinct terminals are required")
        for t in terms:
            if not isinstance(t, str) or not t:
                raise MissingTerminal(f"terminal {t!r} is not a non-empty string")
        edges = tuple(edges)
        for e in edges:
            _check_endpoint(e.u)
            _check_endpoint(e.v)
            if e.link.dimension != dimension:
                raise MixedDimensions(
                    f"link {e.u}-{e.v} has dimension {e.link.dimension}, network has {dimension}"
                )
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "terminals", terms)
        object.__setattr__(self, "edges", edges)

    @property
    def nodes(self) -> List[str]:
        seen = set(self.terminals)
        for e in self.edges:
            seen.add(e.u)
            seen.add(e.v)
        return sorted(seen)


def network_from_dict(obj) -> QuantumNetwork:
    """Build a network from the parsed JSON structure
    {"dimension": d, "terminals": [a, b], "edges": [{"u","v","schmidt"}...]}.

    Link vectors must sum to 1 within 1e-9 and are renormalized on
    ingest.

    Raises
    ------
    SchemaError, DanglingEndpoint, MixedDimensions, MissingTerminal
    """
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


def parse_network(text: str) -> QuantumNetwork:
    """Parse a JSON network description; see network_from_dict."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return network_from_dict(obj)


# ---------------------------------------------------------------------------
# decomposition and the folds over it


_FAR = 1 << 30  # distance key of a node that A cannot reach


class _Multigraph:
    """Edge ids mapped to endpoints, each node's incident edge ids and
    each sorted endpoint pair's edge ids in ascending order, plus the
    pairs that came to hold two or more edges since `grown` was last
    taken."""

    def __init__(self, network: QuantumNetwork):
        self.edges: Dict[int, Tuple[str, str]] = {}
        self.adj: Dict[str, set] = {}
        self.pairs: Dict[Tuple[str, str], List[int]] = {}
        self.grown: set = set()
        self.next_id = 0
        for t in network.terminals:
            self.adj.setdefault(t, set())
        for e in network.edges:
            self.add(e.u, e.v)

    def add(self, u, v) -> int:
        eid = self.next_id
        self.next_id += 1
        self.edges[eid] = (u, v)
        self.adj.setdefault(u, set()).add(eid)
        self.adj.setdefault(v, set()).add(eid)
        key = (u, v) if u <= v else (v, u)
        bundle = self.pairs.setdefault(key, [])
        bundle.append(eid)
        if len(bundle) == 2:
            self.grown.add(key)
        return eid

    def remove(self, eid) -> None:
        u, v = self.edges.pop(eid)
        self.adj[u].discard(eid)
        self.adj[v].discard(eid)
        for n in {u, v}:
            if not self.adj[n]:
                del self.adj[n]
        key = (u, v) if u <= v else (v, u)
        bundle = self.pairs[key]
        bundle.remove(eid)
        if not bundle:
            del self.pairs[key]

    def merge(self, key) -> Tuple[List[int], int]:
        """Replace the edges joining the pair `key` by one new edge;
        returns their ids and the new id."""
        eids = self.pairs.pop(key)
        for eid in eids:
            del self.edges[eid]
        for n in key:
            self.adj[n].difference_update(eids)
        return eids, self.add(*key)

    def other(self, eid, node) -> str:
        u, v = self.edges[eid]
        return v if u == node else u

    def distances(self, start) -> Dict[str, int]:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for eid in self.adj.get(n, ()):
                w = self.other(eid, n)
                if w not in dist:
                    dist[w] = dist[n] + 1
                    queue.append(w)
        return dist

    def shorten(self, dist, skips) -> None:
        """Lower `dist`, the exact distances from A before some
        contractions, to the distances now.  `skips` are the live edges
        that join nodes more than one level apart; only the nodes whose
        distance drops are visited."""
        queue = deque()
        for u, w in skips:
            for p, q in ((u, w), (w, u)):
                if dist[p] + 1 < dist[q]:
                    dist[q] = dist[p] + 1
                    queue.append(q)
        while queue:
            n = queue.popleft()
            level = dist[n] + 1
            for eid in self.adj[n]:
                m = self.other(eid, n)
                if level < dist[m]:
                    dist[m] = level
                    queue.append(m)


def _decompose(network: QuantumNetwork):
    """Series-parallel decomposition of the network's shape.

    Returns (moves, root).  Edge i of the network has id i and every
    series or parallel move creates the next id.  Each move is the
    reduction-trace event with edge ids where the trace has vectors:
    ``inputs`` and ``output`` of a series or parallel move, ``link`` of
    a dropped self-loop.  ``root`` is the id of the final A-B edge.

    Raises DisconnectedTerminals when B is unreachable from A and
    NotSeriesParallel when the rounds stall before reaching a single
    A-B edge.
    """
    a, b = network.terminals
    g = _Multigraph(network)
    dist = g.distances(a)
    if b not in dist:
        raise DisconnectedTerminals(f"no path between {a} and {b}")
    moves = []
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        if u == v:
            g.remove(eid)
            moves.append({"op": "drop_self_loop", "node": u, "link": eid})
    # nodes whose degree changed since the last series pass
    dirty = set(g.adj)
    rounds = series = parallel = repairs = 0
    while True:
        rounds += 1
        changed = False
        # parallel pass: merge every bundle sharing both endpoints
        grown, g.grown = g.grown, set()
        for key in sorted(k for k in grown if len(g.pairs.get(k, ())) > 1):
            eids, out = g.merge(key)
            dirty.update(key)
            moves.append(
                {"op": "parallel", "nodes": list(key), "arity": len(eids), "inputs": eids, "output": out}
            )
            parallel += 1
            changed = True
        # series pass: contract degree-2 non-terminals, nearest to A
        # first; a node whose degree did not change since the last pass
        # was not of degree two then and is not now
        candidates = [n for n in dirty if n != a and n != b and len(g.adj.get(n, ())) == 2]
        candidates.sort(key=lambda n: (dist.get(n, _FAR), n))
        dirty = set()
        created = []
        for node in candidates:
            if len(g.adj.get(node, ())) != 2:
                dirty.add(node)
                continue
            e1, e2 = sorted(g.adj[node])
            u = g.other(e1, node)
            w = g.other(e2, node)
            ku = (dist.get(u, _FAR), u)
            kw = (dist.get(w, _FAR), w)
            if kw < ku:
                e1, e2 = e2, e1
                u, w = w, u
            g.remove(e1)
            g.remove(e2)
            out = g.add(u, w)
            moves.append(
                {"op": "series", "node": node, "through": [u, w], "inputs": [e1, e2], "output": out}
            )
            if u == w:
                g.remove(out)
                dirty.add(u)
                moves.append({"op": "drop_self_loop", "node": u, "link": out})
            else:
                created.append(out)
            series += 1
            changed = True
        # a contraction only shortens paths, and the distances stay exact
        # unless a new edge that is still there skips a level
        skips = []
        for eid in created:
            ends = g.edges.get(eid)
            if ends and abs(dist.get(ends[0], _FAR) - dist.get(ends[1], _FAR)) > 1:
                skips.append(ends)
        if skips:
            g.shorten(dist, skips)
            repairs += 1
        if not changed:
            break
    logger.debug(
        "decomposed %d edges: rounds=%d series_moves=%d parallel_moves=%d distance_repairs=%d",
        len(network.edges), rounds, series, parallel, repairs,
    )
    remaining = sorted(g.edges)
    if len(remaining) == 1 and set(g.edges[remaining[0]]) == {a, b}:
        return moves, remaining[0]
    remnant = [g.edges[eid] for eid in remaining]
    pair = min((tuple(sorted(p)) for p in remnant), default=(a, b))
    raise NotSeriesParallel(
        f"reduction stalled with {len(remaining)} edges, e.g. between "
        f"{pair[0]} and {pair[1]}",
        remnant=remnant,
    )


def _fold(moves, values, series_fn, parallel_fn) -> dict:
    """Apply the moves to per-edge values, in order; returns the value
    of every edge id."""
    values = dict(enumerate(values))
    for move in moves:
        if move["op"] == "series":
            values[move["output"]] = series_fn(*(values[e] for e in move["inputs"]))
        elif move["op"] == "parallel":
            values[move["output"]] = parallel_fn([values[e] for e in move["inputs"]])
    return values


def _det_parallel(links: List[SchmidtVector]) -> SchmidtVector:
    """Parallel rule on a bundle, folded pairwise in ascending order of
    the members' vectors; no purify call sees more than d*d entries."""
    d = links[0].dimension
    acc, *rest = sorted(links, key=lambda vec: vec.entries)
    for vec in rest:
        acc = purify_rule([a * b for a in acc.entries for b in vec.entries], d)
    return acc


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


def reduce_series_parallel(network: QuantumNetwork):
    """Reduce a series-parallel network to the Schmidt vector shared by
    its terminals after the deterministic protocol.

    Returns
    -------
    (SchmidtVector, list of dict)
        The final vector and the reduction trace: one event per move
        with the operator, location and the vectors consumed/produced.

    Raises
    ------
    DisconnectedTerminals, NotSeriesParallel
    """
    return _reduce(network, *_decompose(network))


def _cep(network, moves, root) -> float:
    d = network.dimension
    uniform = SchmidtVector([1.0 / d] * d)
    return _fold(
        moves,
        [conversion_probability(e.link, uniform) for e in network.edges],
        lambda p, q: p * q,
        # sorted, so that no order of a bundle's edges changes a bit
        lambda ps: 1.0 - math.prod(sorted(1.0 - p for p in ps)),
    )[root]


def cep_probability(network: QuantumNetwork) -> float:
    """Probability that the terminals end up maximally entangled when
    every link is first converted to a maximally entangled pair
    probabilistically and successes are wired together.

    Each link succeeds with its conversion probability to the uniform
    vector; the scores are folded over the same moves as the reduction,
    series moves multiplying them and parallel bundles succeeding when
    any member does.

    Raises
    ------
    DisconnectedTerminals, NotSeriesParallel
    """
    return _cep(network, *_decompose(network))


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
    n = len(network.edges)
    if any(m["op"] == "drop_self_loop" and m["link"] >= n for m in moves):
        # a contraction closed a cycle hanging off the A-B paths
        return TopologyClass.SERIES_PARALLEL
    op, leaves, plain, other = _fold(
        moves,
        [_LEAF] * n,
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


def classify_topology(network: QuantumNetwork) -> TopologyClass:
    """Classify the network shape; see TopologyClass.

    Raises
    ------
    DisconnectedTerminals
        Terminals not connected (no class applies).
    """
    try:
        moves, root = _decompose(network)
    except NotSeriesParallel:
        return TopologyClass.NOT_SERIES_PARALLEL
    return _classify(network, moves, root)


def report(network: QuantumNetwork) -> dict:
    """Full reduction report: topology class, final Schmidt vector, its
    concurrences, the conversion figure and the reduction trace.

    Raises
    ------
    DisconnectedTerminals, NotSeriesParallel
    """
    moves, root = _decompose(network)
    vec, trace = _reduce(network, moves, root)
    d = network.dimension
    return {
        "dimension": d,
        "terminals": list(network.terminals),
        "edge_count": len(network.edges),
        "topology": _classify(network, moves, root).value,
        "det_vector": [float(v) for v in vec],
        "concurrence": {f"C_{k}": concurrence(vec, k) for k in range(1, d + 1)},
        "cep_probability": _cep(network, moves, root),
        "reduction_trace": trace,
    }
