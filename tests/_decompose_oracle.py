"""Reference copy of the round-based decomposition, for tests only.

`_Multigraph` and `_decompose` below are the engine as it stood before
the rounds were run from worklists: every round re-sorts every edge,
rescans every node and reruns a breadth-first search from A.  They are
kept verbatim as the oracle that the differential test in
test_decompose.py compares `qnetdet.network._decompose` against, and
the package never imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

from qnetdet.errors import DisconnectedTerminals, NotSeriesParallel


class _Multigraph:
    """Edge ids mapped to endpoints, and each node's incident edge ids."""

    def __init__(self, network: QuantumNetwork):
        self.edges: Dict[int, Tuple[str, str]] = {}
        self.adj: Dict[str, set] = {}
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
        return eid

    def remove(self, eid) -> None:
        u, v = self.edges.pop(eid)
        self.adj[u].discard(eid)
        self.adj[v].discard(eid)
        for n in {u, v}:
            if not self.adj[n]:
                del self.adj[n]

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
    if b not in g.distances(a):
        raise DisconnectedTerminals(f"no path between {a} and {b}")
    moves = []
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        if u == v:
            g.remove(eid)
            moves.append({"op": "drop_self_loop", "node": u, "link": eid})
    while True:
        changed = False
        # parallel pass: merge every bundle sharing both endpoints
        groups: Dict[Tuple[str, str], list] = {}
        for eid in sorted(g.edges):
            u, v = g.edges[eid]
            groups.setdefault((u, v) if u <= v else (v, u), []).append(eid)
        for key in sorted(groups):
            eids = groups[key]
            if len(eids) < 2:
                continue
            for eid in eids:
                g.remove(eid)
            out = g.add(*key)
            moves.append(
                {"op": "parallel", "nodes": list(key), "arity": len(eids), "inputs": eids, "output": out}
            )
            changed = True
        # series pass: contract degree-2 non-terminals, nearest to A first
        dist = g.distances(a)
        candidates = [
            n for n in g.adj if n not in (a, b) and len(g.adj[n]) == 2
        ]
        candidates.sort(key=lambda n: (dist.get(n, 1 << 30), n))
        for node in candidates:
            if node not in g.adj or len(g.adj[node]) != 2:
                continue
            e1, e2 = sorted(g.adj[node])
            u = g.other(e1, node)
            w = g.other(e2, node)
            ku = (dist.get(u, 1 << 30), u)
            kw = (dist.get(w, 1 << 30), w)
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
                moves.append({"op": "drop_self_loop", "node": u, "link": out})
            changed = True
        if not changed:
            break
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
