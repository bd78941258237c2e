"""Quantum networks of bipartite links and their series-parallel reduction.

A network is an undirected multigraph whose edges carry Schmidt vectors
of a common local dimension, with two distinguished terminal nodes A
and B.  Its shape alone fixes an ordered list of moves that shrinks it
to one A-B edge, read off its series-parallel decomposition tree
(Valdes, Tarjan and Lawler, SIAM J. Comput. 11(2), 1982):

* every edge on no simple A-B path transmits nothing and is dropped
  first, in input order: self-loops, pendants, islands and anything
  hanging off a single node.  One depth-first search finds the rest,
  the block that would hold a virtual A-B edge (Hopcroft-Tarjan);
* that block is reduced by parallel and series moves in any order,
  each live edge carrying the subtree it stands for;
* the moves are emitted post-order from A.  A chain folds left to
  right from its A-side end, and a bundle's parts go in order of their
  smallest network edge id.

Edges are ordered by id: the network's edges in input order, then the
edges the moves create, in emission order.  Each step costs time linear
in the network's size, with no recursion: a 4001-edge qubit ladder,
2000 levels deep, decomposes in about 15 ms on a shared 2-CPU Xeon
virtual machine (median of 15), and a cold `qnetdet reduce` of one
costs about 18.5 us per edge at 10^4 edges and 17.4 us at 10^5, with
a peak of about 1.9 KB per edge (medians of 5, Python 3.11).

The reduction folds these moves over the links.  A series move swaps
its two vectors.  A parallel move folds its bundle pairwise, members in
ascending order of their vectors (the order its trace event lists
them): each member joins the running vector in a d*d tensor product
that is purified back to d entries.  That costs O(k d^2 log d) for k
links and equals purifying the full d^k product (the
lemma_parallel_fold check of the verification suite), and no order of
the bundle's edges changes a bit of it.  At d = 2 each step is a closed
form on floats, rules._purify_qubit, with the bits of purify_rule on
the four products, and the bundle makes one vector; above d = 2 each
step is a purify_rule call.  The order of a chain's folds
is part of the answer, because from dimension 4 on the series rule is
not associative (pinned by tests/test_rules.py::TestAssociativity and
acceptance criterion 08); the reduction_invariance check of the
verification suite pins that no node name, edge order or edge
direction changes a bit of the answer.  The same moves fold
scalar scores into the probabilistic conversion figure, and the
topology class is read off the move list.

One decomposition and fold feeds `reduce_series_parallel`, `report`
and `render_report`.  Each move is one compact record (see
`_decompose`); `report` builds the reduction trace's event dicts from
them, each edge id replaced by a new list of its entries.
`render_report` writes the JSON text of `qnetdet reduce`, byte for
byte `render_json({"manifest": manifest, **report(network)})`, with
the trace written straight from the records and edge vectors instead.

The decomposition logs one DEBUG line to the `qnetdet.network` logger
(edges dropped, moves by operator, the largest bundle arity), but only
when `logging` is already in `sys.modules`: a handler can exist only
once something imported `logging`, so without it no line is lost, and
a cold `qnetdet reduce` does not import it.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections.abc import Iterable
from enum import Enum

from ._frozen import Frozen, _maker
from ._jsonio import _float_rows, _string, render_json
from .errors import (
    DanglingEndpoint,
    DisconnectedTerminals,
    MissingTerminal,
    MixedDimensions,
    NotSeriesParallel,
    SchemaError,
)
from .rules import _purify_qubit, _source_walk, _target_side, purify_rule, swap_rule
from .schmidt import _NEG_EPS, SchmidtVector, _concurrences, _unit, _vector, normalize_descending


class TopologyClass(Enum):
    """Exhaustive, mutually exclusive classification of a two-terminal
    network (after discarding edges on no A-B path):

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


class Edge(Frozen):
    """Undirected network edge carrying a Schmidt vector."""

    __slots__ = ("u", "v", "link")
    u: str
    v: str
    link: SchmidtVector

    def __init__(self, u: str, v: str, link: SchmidtVector):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "link", link)


def _check_endpoint(name) -> str:
    if not isinstance(name, str) or not name:
        raise DanglingEndpoint(f"edge endpoint {name!r} is not a non-empty string")
    return name


class QuantumNetwork(Frozen):
    """Immutable two-terminal network of Schmidt-vector links.  Its
    constructor is the one check of structure: MissingTerminal unless two
    distinct non-empty string terminals, DanglingEndpoint unless every edge
    endpoint is one, MixedDimensions unless every link has the network's dimension."""

    __slots__ = ("dimension", "terminals", "edges")
    dimension: int
    terminals: tuple[str, str]
    edges: tuple[Edge, ...]

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
            if len(e.link.entries) != dimension:
                raise MixedDimensions(
                    f"link {e.u}-{e.v} has dimension {e.link.dimension}, network has {dimension}"
                )
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "terminals", terms)
        object.__setattr__(self, "edges", edges)


# the exact types of JSON numbers; a subclass other than bool passes the
# slower isinstance check
_NUMBER_TYPES = frozenset((int, float))
_edge = _maker(Edge)  # QuantumNetwork checks the endpoints


def network_from_dict(obj) -> QuantumNetwork:
    """Build a network from the parsed JSON structure
    {"dimension": d, "terminals": [a, b], "edges": [{"u","v","schmidt"}...]}.

    Link vectors must hold finite, nonnegative numbers (roundoff
    negatives down to -1e-12 are clamped) that sum to 1 within 1e-9,
    and are renormalized on ingest: by `schmidt._unit` when every entry
    is a positive int or float, else by `normalize_descending`.

    Checks only what JSON adds, raising SchemaError or MixedDimensions edge
    by edge; `QuantumNetwork` then raises MissingTerminal or DanglingEndpoint.
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
    if not isinstance(terms, list):
        raise MissingTerminal("terminals must be a list of two node names")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    edges = []
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, dict) or "u" not in re_ or "v" not in re_ or "schmidt" not in re_:
            raise SchemaError(f"edge {i} must be an object with keys u, v, schmidt")
        vec = re_["schmidt"]
        exact = isinstance(vec, list) and _NUMBER_TYPES.issuperset(map(type, vec))
        if not isinstance(vec, list) or not vec or not (
            exact or all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
        ):
            raise SchemaError(f"edge {i} schmidt must be a non-empty list of numbers")
        if len(vec) != d:
            raise MixedDimensions(f"edge {i} has {len(vec)} entries, dimension is {d}")
        try:
            total = math.fsum(vec)
        except (OverflowError, ValueError):
            # finite entries that sum beyond the float range, an int
            # beyond it, or infinities of both signs
            total = math.inf
        # json.loads reads NaN and Infinity, and a NaN fails every
        # comparison below, so non-finite entries are rejected first
        if not -math.inf < total < math.inf and not all(-math.inf < x < math.inf for x in vec):
            raise SchemaError(f"edge {i} schmidt has a non-finite entry")
        low = min(vec)
        if low < -_NEG_EPS:
            raise SchemaError(f"edge {i} schmidt has a negative entry")
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"edge {i} schmidt sums to {total!r}, expected 1 within 1e-9")
        edges.append(_edge(re_["u"], re_["v"], _unit(vec, total) if exact and low > 0 else normalize_descending(vec)))
    return QuantumNetwork(d, terms, edges)


def parse_network(text: str) -> QuantumNetwork:
    """Parse a JSON network description; see network_from_dict."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    return network_from_dict(obj)


# ---------------------------------------------------------------------------
# decomposition and the folds over it


class _Series:
    """Series subtree: `left` joins `u` and `mid`, `right` joins `mid`
    and the other end.  `key` is the smallest network edge id below."""

    __slots__ = ("u", "mid", "left", "right", "key")

    def __init__(self, u, mid, left, right):
        self.u = u
        self.mid = mid
        self.left = left
        self.right = right
        kl = left if left.__class__ is int else left.key
        kr = right if right.__class__ is int else right.key
        self.key = kl if kl < kr else kr


class _Bundle:
    """Parallel subtree of two or more parts, none of them a bundle."""

    __slots__ = ("parts", "key")

    def __init__(self, parts):
        self.parts = parts
        self.key = min([p if p.__class__ is int else p.key for p in parts])


def _key(tree) -> int:
    """Smallest network edge id in a subtree; a network edge is its id."""
    return tree if tree.__class__ is int else tree.key


def _core(network: QuantumNetwork) -> list[int]:
    """Ids of the edges that lie on a simple A-B path.

    These are the edges of the block (Hopcroft-Tarjan) that would hold
    a virtual A-B edge: one depth-first search enters B from A over that
    edge, and every other block it closes hangs off the rest at a single
    cut node, so no simple A-B path runs through it.  Empty when B is
    unreachable from A."""
    a, b = network.terminals
    adj: dict[str, list] = {}
    for eid, e in enumerate(network.edges):
        if e.u != e.v:
            adj.setdefault(e.u, []).append((eid, e.v))
            adj.setdefault(e.v, []).append((eid, e.u))
    order = {a: 0, b: 1}
    low = [0, 1]
    path: list[int] = []  # edges of the blocks still open
    stack = [(b, -1, iter(adj.get(b, ())), 0)]
    while stack:
        node, via, todo, mark = stack[-1]
        here = order[node]
        for eid, w in todo:
            there = order.get(w)
            if there is None:
                order[w] = len(low)
                low.append(len(low))
                stack.append((w, eid, iter(adj[w]), len(path)))
                path.append(eid)
                break
            if there < here and eid != via:
                path.append(eid)
                if there < low[here]:
                    low[here] = there
        else:
            stack.pop()
            if stack:
                up = order[stack[-1][0]]
                if low[here] >= up:
                    del path[mark:]
                elif low[here] < low[up]:
                    low[up] = low[here]
    return path


def _link(graph, u, v, tree) -> bool:
    """Add `tree` as the u-v edge, merged into the one already there if
    any; returns whether it merged."""
    old = graph[u].get(v)
    if old is not None:
        if old.__class__ is _Bundle:
            old.parts.append(tree)
            old.key = min(old.key, _key(tree))
            tree = old
        else:
            tree = _Bundle([old, tree])
    graph[u][v] = graph[v][u] = tree
    return old is not None


def _emit(root, a, b, next_id):
    """The moves that fold the tree of the A-B edge, post-order from A,
    and the id of the edge they end with: a bundle's parts by smallest
    network edge id, then its parallel move; a chain from its A-side
    end, each part after the first followed by the series move that
    joins it to the running edge."""
    moves = []
    done = []  # the edge id of each folded subtree, latest last
    tasks = [(root, a, b)]
    push = tasks.append
    while tasks:
        t, p, q = tasks.pop()
        cls = t.__class__
        if cls is int:
            done.append(t)
        elif cls is _Series:
            # the chain's parts from its q end back to p, each pushed as
            # met, so that they pop from p on: part i, between the chain
            # nodes n_i and n_i+1, and for i > 0 the series move after it
            chain = [(t, q, p)]
            while chain:
                s, x, y = chain.pop()  # s joins x, on the q side, to y
                if s.__class__ is _Series:
                    near, far = (s.left, s.right) if x == s.u else (s.right, s.left)
                    chain.append((far, s.mid, y))
                    chain.append((near, x, s.mid))
                elif y == p:
                    push((s, p, x))
                else:
                    push(("series", (y, p, x), None))
                    push((s, y, x))
        elif cls is _Bundle:
            push(("parallel", len(t.parts), (p, q) if p < q else (q, p)))
            for part in sorted(t.parts, key=_key, reverse=True):
                push((part, p, q))
        else:
            if t == "series":
                right = done.pop()
                moves.append(("series", (done.pop(), right, next_id), p))
            else:
                moves.append(("parallel", (*done[-p:], next_id), q))
                del done[-p:]
            done.append(next_id)
            next_id += 1
    return moves, done[0]


def _decompose(network: QuantumNetwork):
    """Series-parallel decomposition of the network's shape.

    Returns (moves, root).  Edge i of the network has id i and every
    series or parallel move creates the next id.  Each move is one
    record (op, ids, nodes), the reduction-trace event with edge ids
    where the trace has vectors:

    * ("series", (left, right, output), (node, p, q)): the edges left,
      from p to node, and right, from node to q, join into output;
    * ("parallel", (*inputs, output), (p, q)): the bundle of edges
      between p and q, p < q, in order of their smallest network edge
      id, joins into output;
    * ("drop", (link,), (u, v)): the edge link, on no A-B path, goes.

    ``root`` is the id of the final A-B edge.

    Raises DisconnectedTerminals when B is unreachable from A and
    NotSeriesParallel when series and parallel moves cannot reduce the
    edges on A-B paths to a single A-B edge.
    """
    a, b = network.terminals
    edges = network.edges
    core = _core(network)
    if not core:
        raise DisconnectedTerminals(f"no path between {a} and {b}")
    kept = set(core)
    moves = [("drop", (eid,), (e.u, e.v)) for eid, e in enumerate(edges) if eid not in kept]
    # reduce the core in any order: each live edge carries its subtree
    graph: dict[str, dict] = {}
    for eid in core:
        e = edges[eid]
        graph.setdefault(e.u, {})
        graph.setdefault(e.v, {})
        _link(graph, e.u, e.v, eid)
    work = [n for n, nbrs in graph.items() if len(nbrs) == 2 and n != a and n != b]
    while work:
        # the core stays a block with the virtual A-B edge, so no
        # relay's degree drops below two: each is queued once
        n = work.pop()
        (x, left), (y, right) = graph.pop(n).items()
        gx, gy = graph[x], graph[y]
        del gx[n], gy[n]
        if _link(graph, x, y, _Series(x, n, left, right)):
            # the merge took a neighbour from x and from y
            if len(gx) == 2 and x != a and x != b:
                work.append(x)
            if len(gy) == 2 and y != a and y != b:
                work.append(y)
    if len(graph) > 2:
        remnant = sorted((u, v) for u, nbrs in graph.items() for v in nbrs if u < v)
        raise NotSeriesParallel(
            f"reduction stalled with {len(remnant)} edges, e.g. between "
            f"{remnant[0][0]} and {remnant[0][1]}",
            remnant=remnant,
        )
    emitted, root = _emit(graph[a][b], a, b, len(edges))
    moves += emitted
    # a handler needs logging imported, so without it no line is lost
    if "logging" in sys.modules:
        import logging

        logger = logging.getLogger(__name__)
        if logger.isEnabledFor(logging.DEBUG):
            dropped = len(edges) - len(core)
            arities = [len(ids) - 1 for op, ids, _ in moves if op == "parallel"]
            logger.debug(
                "decomposed %d edges: dropped=%d series_moves=%d parallel_moves=%d max_bundle_arity=%d",
                len(edges), dropped, len(moves) - dropped - len(arities), len(arities), max(arities, default=0),
            )
    return moves, root


def _fold(moves, values, series_fn, parallel_fn) -> list:
    """Apply the moves to per-edge values, in order; returns the value
    of every edge id, as a list indexed by it.  The ids are dense: each
    series or parallel move makes the next id, so its value is appended
    (drop moves make none)."""
    values = list(values)
    for op, ids, _ in moves:
        if op == "series":
            values.append(series_fn(values[ids[0]], values[ids[1]]))
        elif op == "parallel":
            values.append(parallel_fn([values[e] for e in ids[:-1]]))
    return values


_ENTRIES = operator.attrgetter("entries")


def _det_parallel(links: list[SchmidtVector]) -> SchmidtVector:
    """Parallel rule on a bundle, folded pairwise in ascending order of
    the members' vectors; no step sees more than d*d products.

    At d = 2 each step is the closed form rules._purify_qubit on pairs
    of floats, with the bits of purify_rule on the four products, and
    the bundle makes one vector.  Above d = 2 each step is a purify_rule
    call on the d*d tensor product of the running vector and the next
    member."""
    acc, *rest = sorted(links, key=_ENTRIES)
    d = len(acc.entries)
    if d == 2:
        xs = acc.entries
        for vec in rest:
            xs = _purify_qubit(xs, vec.entries)
        return _vector(xs)
    for vec in rest:
        acc = purify_rule([a * b for a in acc.entries for b in vec.entries], d)
    return acc


def _folded(network: QuantumNetwork):
    """One decomposition and its fold: (moves, root, links), where
    links[i] is the vector of edge id i."""
    moves, root = _decompose(network)
    return moves, root, _fold(moves, [e.link for e in network.edges], swap_rule, _det_parallel)


def _trace(moves, links) -> list[dict]:
    """The reduction trace: each move record as an event dict, every
    edge id in it replaced by a new list of that edge's entries."""
    trace = []
    for op, ids, nodes in moves:
        if op == "series":
            a, b, out = ids
            node, p, q = nodes
            ins = [list(links[a].entries), list(links[b].entries)]
            trace.append({"op": op, "node": node, "through": [p, q], "inputs": ins, "output": list(links[out].entries)})
        elif op == "parallel":
            # a bundle is listed in the order _det_parallel folds it
            ins = sorted([list(links[e].entries) for e in ids[:-1]])
            out = list(links[ids[-1]].entries)
            trace.append({"op": op, "nodes": list(nodes), "arity": len(ins), "inputs": ins, "output": out})
        else:
            trace.append({"op": op, "nodes": list(nodes), "link": list(links[ids[0]].entries)})
    return trace


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
    moves, root, links = _folded(network)
    return links[root], _trace(moves, links)


def _cep(network, moves, root) -> float:
    d = network.dimension
    # each link's score is conversion_probability(link, uniform), with
    # the uniform target's side of the walk taken once
    side = _target_side(SchmidtVector([1.0 / d] * d).entries, d)
    return _fold(
        moves,
        [_source_walk(e.link.entries, side) for e in network.edges],
        operator.mul,
        # sorted, so that no order of a bundle's edges changes a bit
        lambda ps: 1.0 - math.prod(sorted([1.0 - p for p in ps])),
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


def _classify(moves) -> TopologyClass:
    """Class of a decomposed network, read off its moves: series of
    links is a simple series, parallel of links a simple parallel, series
    of links and parallels of links is parallel-then-series, and
    parallel of series of links with at most one single link is
    series-then-parallel.  A bundle's parts are never bundles and a
    chain's parts never chains, so it is enough to know which operator
    the root move has and which move feeds which."""
    made = {ids[-1]: op for op, ids, _ in moves if op != "drop"}
    feeds = {(made.get(e), op) for op, ids, _ in moves if op != "drop" for e in ids[:-1]}
    if "parallel" not in made.values():
        return TopologyClass.SIMPLE_SERIES
    if "series" not in made.values():
        return TopologyClass.SIMPLE_PARALLEL
    op, ids, _ = moves[-1]  # the root's move, emitted last
    if op == "series" and ("series", "parallel") not in feeds:
        return TopologyClass.PARALLEL_THEN_SERIES
    bare = sum(e not in made for e in ids[:-1])  # network edges
    if op == "parallel" and ("parallel", "series") not in feeds and bare <= 1:
        return TopologyClass.SERIES_THEN_PARALLEL
    return TopologyClass.SERIES_PARALLEL


def classify_topology(network: QuantumNetwork) -> TopologyClass:
    """Classify the network shape; see TopologyClass.

    Raises
    ------
    DisconnectedTerminals
        Terminals not connected (no class applies).
    """
    try:
        moves, _ = _decompose(network)
    except NotSeriesParallel:
        return TopologyClass.NOT_SERIES_PARALLEL
    return _classify(moves)


def _head(network: QuantumNetwork):
    """(head, moves, links): the report without its reduction trace, and
    the moves and edge vectors the trace is read from."""
    moves, root, links = _folded(network)
    vec = links[root]
    d = network.dimension
    head = {
        "dimension": d,
        "terminals": list(network.terminals),
        "edge_count": len(network.edges),
        "topology": _classify(moves).value,
        "det_vector": list(vec.entries),
        "concurrence": {f"C_{k}": ck for k, ck in enumerate(_concurrences(vec), start=1)},
        "cep_probability": _cep(network, moves, root),
    }
    return head, moves, links


def report(network: QuantumNetwork) -> dict:
    """Full reduction report: topology class, final Schmidt vector, its
    concurrences, the conversion figure and the reduction trace.

    Raises
    ------
    DisconnectedTerminals, NotSeriesParallel
    """
    rep, moves, links = _head(network)
    rep["reduction_trace"] = _trace(moves, links)
    return rep


_SERIES = '{"op": "series", "node": %s, "through": [%s, %s], "inputs": [%s, %s], "output": %s}'
_PARALLEL = '{"op": "parallel", "nodes": [%s, %s], "arity": %d, "inputs": [%s], "output": %s}'
_DROP = '{"op": "drop", "nodes": [%s, %s], "link": %s}'


def render_report(network: QuantumNetwork, manifest: dict) -> str:
    """The JSON text of `qnetdet reduce`: byte for byte
    ``render_json({"manifest": manifest, **report(network)})``.

    The head goes through `render_json`.  The trace is written from the
    move records and edge vectors, without event dicts: the rows of
    floats of all edge ids are rendered in one `_float_rows` call and
    each node name once, each record adds the template of its operator
    and its fields, and one `%` fills the joined templates.

    Raises
    ------
    DisconnectedTerminals, NotSeriesParallel
    """
    head, moves, links = _head(network)
    entries = [vec.entries for vec in links]
    rows = _float_rows(entries, network.dimension)
    # every node a move names is an edge's end
    names = {n: _string(n) for n in {e.u for e in network.edges} | {e.v for e in network.edges}}
    templates = []
    args = []
    for op, ids, nodes in moves:
        if op == "series":
            a, b, out = ids
            node, p, q = nodes
            templates.append(_SERIES)
            args += (names[node], names[p], names[q], rows[a], rows[b], rows[out])
        elif op == "parallel":
            p, q = nodes
            # a bundle is listed in the order _det_parallel folds it
            ins = ", ".join([rows[e] for e in sorted(ids[:-1], key=entries.__getitem__)])
            templates.append(_PARALLEL)
            args += (names[p], names[q], len(ids) - 1, ins, rows[ids[-1]])
        else:
            p, q = nodes
            templates.append(_DROP)
            args += (names[p], names[q], rows[ids[0]])
    trace = ", ".join(templates) % tuple(args)
    text = render_json({"manifest": manifest, **head})
    # the head ends with "}\n"; the trace is its last key
    return text[:-2] + ', "reduction_trace": [' + trace + "]}\n"
