"""The decomposition is a function of the network's shape: the answer
does not depend on node names, edge order or edge direction, edges off
the A-B paths go whatever they hang off, and the engine's cost stays
linear on deep ladders."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from qnetdet import network as network_module
from qnetdet.cli import EXIT_DISCONNECTED, EXIT_NOT_SERIES_PARALLEL, EXIT_OK, main
from qnetdet.errors import DisconnectedTerminals, NotSeriesParallel
from qnetdet.network import Edge, QuantumNetwork, _decompose, parse_network, render_report, report
from qnetdet.sampling import random_network, random_schmidt, substream
from qnetdet.schmidt import SchmidtVector

SEED = 20261018

PERTURBATIONS = (
    "self_loop",
    "pendant",
    "dangling_cycle",
    "island",
    "island_loop",
    "chord",
    "extra_a_b",
    "split_b",
)


def _outcome(net):
    """Topology, final vector and conversion figure, or the exception's type."""
    try:
        doc = report(net)
    except (DisconnectedTerminals, NotSeriesParallel) as exc:
        return type(exc)
    return doc["topology"], doc["det_vector"], doc["cep_probability"]


def _ladder(levels, left, right):
    """Endpoint pairs of G_k = series(e, parallel(G_(k-1), e), e), with
    the left series link only if `left` and the right one only if
    `right`; G_0 is one link.  The ends of G_levels are A and B, the
    other nodes are named by number."""
    pairs = [(0, 1)]
    s, t, fresh = 0, 1, 2
    for _ in range(levels):
        pairs.append((s, t))
        if left:
            pairs.append((fresh, s))
            s, fresh = fresh, fresh + 1
        if right:
            pairs.append((t, fresh))
            t, fresh = fresh, fresh + 1
    names = {s: "A", t: "B"}
    return [(names.get(u, str(u)), names.get(v, str(v))) for u, v in pairs]


def _scrambled(edges, rng):
    """The same edges with internal nodes renamed at random (names that
    sort before, between and after the terminals), permuted and some of
    them reversed.  Each edge is a tuple (u, v, *rest)."""
    internal = sorted({n for e in edges for n in e[:2]} - {"A", "B"})
    prefix = ("", "Z", "n")[int(rng.integers(3))]
    names = {n: f"{prefix}{int(lab)}" for n, lab in zip(internal, rng.permutation(len(internal)))}
    names.update(A="A", B="B")
    out = []
    for i in rng.permutation(len(edges)):
        u, v, *rest = edges[i]
        u, v = names[u], names[v]
        out.append((v, u, *rest) if rng.random() < 0.5 else (u, v, *rest))
    return out


def _perturbed(pairs, rng):
    """`pairs` with one to three off-path additions, extra links or a
    split terminal."""
    nodes = sorted({n for p in pairs for n in p})
    count = [0]

    def new():
        count[0] += 1
        return f"x{count[0]}"

    out = list(pairs)
    for _ in range(int(rng.integers(1, 4))):
        kind = PERTURBATIONS[int(rng.integers(len(PERTURBATIONS)))]
        n = nodes[int(rng.integers(len(nodes)))]
        m = nodes[int(rng.integers(len(nodes)))]
        x, y, z = new(), new(), new()
        if kind == "split_b":
            # B's links move to a new node, which may leave B unreachable
            out = [tuple(x if w == "B" else w for w in p) for p in out]
            continue
        out += {
            "self_loop": [(n, n)],
            "pendant": [(n, x)],
            "dangling_cycle": [(n, x), (x, y), (y, n)],
            "island": [(x, y)],
            "island_loop": [(x, y), (y, z), (z, x)],
            "chord": [(n, m)],
            "extra_a_b": [("A", "B")],
        }[kind]
    return out


def _network(edges, d):
    return QuantumNetwork(d, ("A", "B"), [Edge(u, v, link) for u, v, link in edges])


def _linked(pairs, d, rng):
    return [(u, v, random_schmidt(d, rng)) for u, v in pairs]


class TestInvariance:
    """A shape and its scramble give bitwise-equal reports, or raise the
    same error; from d = 4 on the series rule is not associative, so
    this pins the fold order to the shape."""

    def test_random_networks(self):
        outcomes = {"ok": 0, NotSeriesParallel: 0, DisconnectedTerminals: 0}
        for i in range(600):
            rng = substream(SEED, "decompose_invariance", i)
            d = 2 + i % 5
            pairs = [(e.u, e.v) for e in random_network(d, 30, rng).edges]
            if i % 3:
                pairs = _perturbed(pairs, rng)
            edges = _linked(pairs, d, rng)
            got = _outcome(_network(edges, d))
            assert got == _outcome(_network(_scrambled(edges, rng), d)), pairs
            outcomes[got if isinstance(got, type) else "ok"] += 1
        # every outcome is exercised
        assert min(outcomes.values()) >= 10, outcomes

    @pytest.mark.parametrize("left, right", [(False, True), (True, False), (True, True)])
    def test_ladders(self, left, right):
        rng = substream(SEED, "decompose_ladders", 2 * left + right)
        for levels in (1, 2, 3, 5, 8, 13):
            pairs = _ladder(levels, left, right)
            for shape in (pairs, _perturbed(pairs, rng)):
                edges = _linked(shape, 4, rng)
                want = _outcome(_network(edges, 4))
                assert _outcome(_network(_scrambled(edges, rng), 4)) == want


OFF_PATH_LINKS = ([0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4], [0.95, 0.05])


def _island_ladder(levels):
    """A nested ladder from X to Y, neither a terminal, that reduces
    to nothing but a bundle."""
    pairs = [("X", "y0")]
    for level in range(levels):
        far = "Y" if level == levels - 1 else f"y{level + 1}"
        pairs += [("X", f"y{level}"), (f"y{level}", far)]
    return pairs


def _off_path_text(pairs):
    edges = [{"u": u, "v": v, "schmidt": OFF_PATH_LINKS[i % 5]} for i, (u, v) in enumerate(pairs)]
    return json.dumps({"dimension": 2, "terminals": ["A", "B"], "edges": edges})


# Shapes with edges on no A-B path, each with the moves, root and the
# first 16 hex digits of the sha256 of render_report(net, {}) recorded
# before the reduction ran ahead of the search for those edges
OFF_PATH = {
    # not series-parallel, so it reduces only once it is dropped
    "k4_off_an_inner_node": (
        [("A", "c"), ("c", "k1"), ("k1", "k2"), ("c", "k2"), ("k2", "k3"), ("c", "B"), ("k1", "k3"), ("c", "k3"), ("A", "B")],
        [
            ("drop", (1,), ("c", "k1")),
            ("drop", (2,), ("k1", "k2")),
            ("drop", (3,), ("c", "k2")),
            ("drop", (4,), ("k2", "k3")),
            ("drop", (6,), ("k1", "k3")),
            ("drop", (7,), ("c", "k3")),
            ("series", (0, 5, 9), ("c", "A", "B")),
            ("parallel", (9, 8, 10), ("A", "B")),
        ],
        10,
        "6baabb992086bffe",
    ),
    "triangle_off_a_terminal": (
        [("A", "m"), ("A", "t1"), ("m", "B"), ("t1", "t2"), ("t2", "A"), ("A", "B")],
        [
            ("drop", (1,), ("A", "t1")),
            ("drop", (3,), ("t1", "t2")),
            ("drop", (4,), ("t2", "A")),
            ("series", (0, 2, 6), ("m", "A", "B")),
            ("parallel", (6, 5, 7), ("A", "B")),
        ],
        7,
        "ea61c132e2b340fc",
    ),
    # t1 and t2 are both queued; the first relayed leaves the other one
    # neighbour before it is popped
    "triangle_off_an_inner_node": (
        [("A", "c"), ("c", "t1"), ("c", "d"), ("t1", "t2"), ("d", "B"), ("t2", "c"), ("A", "d")],
        [
            ("drop", (1,), ("c", "t1")),
            ("drop", (3,), ("t1", "t2")),
            ("drop", (5,), ("t2", "c")),
            ("series", (0, 2, 7), ("c", "A", "d")),
            ("parallel", (7, 6, 8), ("A", "d")),
            ("series", (8, 4, 9), ("d", "A", "B")),
        ],
        9,
        "dbfb9f3d9dfcfc9a",
    ),
    "pendant_path": (
        [("A", "c"), ("c", "p1"), ("p1", "p2"), ("c", "B"), ("p2", "p3"), ("A", "B")],
        [
            ("drop", (1,), ("c", "p1")),
            ("drop", (2,), ("p1", "p2")),
            ("drop", (4,), ("p2", "p3")),
            ("series", (0, 3, 6), ("c", "A", "B")),
            ("parallel", (6, 5, 7), ("A", "B")),
        ],
        7,
        "6ae31d82e274c59e",
    ),
    "island_with_a_cycle": (
        [("A", "m"), ("x", "y"), ("m", "B"), ("y", "z"), ("z", "x"), ("z", "w"), ("A", "B")],
        [
            ("drop", (1,), ("x", "y")),
            ("drop", (3,), ("y", "z")),
            ("drop", (4,), ("z", "x")),
            ("drop", (5,), ("z", "w")),
            ("series", (0, 2, 7), ("m", "A", "B")),
            ("parallel", (7, 6, 8), ("A", "B")),
        ],
        8,
        "92be3a3b414c36f7",
    ),
}


class TestOffPath:
    """Edges on no A-B path go as drop moves in input order, whatever
    they hang off, and what they hang off reduces as if they had never
    been there: the moves, and the reports' bytes, recorded on shapes
    that the reduction meets before the search for such edges."""

    @pytest.mark.parametrize("name", sorted(OFF_PATH))
    def test_recorded_moves_and_bytes(self, name):
        pairs, moves, root, digest = OFF_PATH[name]
        net = parse_network(_off_path_text(pairs))
        assert _decompose(net) == (moves, root)
        assert hashlib.sha256(render_report(net, {}).encode()).hexdigest()[:16] == digest

    def _reduce(self, tmp_path, capsys, pairs):
        path = tmp_path / "net.json"
        path.write_text(_off_path_text(pairs), encoding="utf-8")
        code = main(["reduce", str(path), "--out", str(tmp_path / "out.json")])
        return code, capsys.readouterr().err

    def test_bridge_with_a_hanging_cycle_stalls_as_the_bridge(self, tmp_path, capsys):
        pairs = [("A", "P"), ("A", "Q"), ("P", "h1"), ("P", "Q"), ("h1", "h2"), ("P", "B"), ("h2", "P"), ("Q", "B")]
        assert self._reduce(tmp_path, capsys, pairs) == (
            EXIT_NOT_SERIES_PARALLEL,
            "qnetdet: reduction stalled with 5 edges, e.g. between A and P\n",
        )
        with pytest.raises(NotSeriesParallel) as info:
            _decompose(parse_network(_off_path_text(pairs)))
        assert info.value.remnant == [("A", "P"), ("A", "Q"), ("B", "P"), ("B", "Q"), ("P", "Q")]

    def test_terminals_disconnected_beside_a_large_island(self, tmp_path, capsys):
        pairs = [("A", "a1"), ("a1", "a2"), ("B", "b1"), *_island_ladder(400)]
        assert self._reduce(tmp_path, capsys, pairs) == (EXIT_DISCONNECTED, "qnetdet: no path between A and B\n")


# A cold `qnetdet reduce` of the 100,004-edge ladder below peaked at
# 186 MB and took 1.6 s on Linux under Python 3.11 on a shared 2-CPU
# Xeon host (median of 5); with one float per qubit edge id in place of
# a vector, 184.2 MB against 184.7 MB before on that host (medians of 5,
# alternating), the writer's strings still making the peak.  The budget
# leaves 37 MB, a fifth, as headroom.  A writer that builds the trace
# as event dicts, render_json(report()), peaks at about 201 MB, within
# it: the writer's byte tests hold that route (tests/test_cli.py,
# test_json_bytes_match_without_event_dicts).  The time limit only
# stops a run that has stalled.
LADDER_RSS_BUDGET_MB = 221
LADDER_TIMEOUT_S = 120

# the child reduces; its parent, a fresh process with no other child,
# reads the child's peak resident set
_PEAK_RSS = """
import resource, subprocess, sys
*args, timeout = sys.argv[1:]
code = subprocess.run([sys.executable, "-m", "qnetdet", "reduce", *args], timeout=float(timeout)).returncode
scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale / 2**20)
"""


def _ci_ladder(levels):
    """The JSON text of the qubit ladder the CI step reduces, with
    `levels` levels in place of 5,000: G_k = series(parallel(G_(k-1), e),
    e) from one link, link tops from U(0.97, 0.995) of random.Random(0),
    and a self-loop, a pendant and an island on no A-B path."""
    rng = random.Random(0)

    def link():
        top = rng.uniform(0.97, 0.995)
        return [top, 1.0 - top]

    edges = [{"u": "A", "v": "n0", "schmidt": link()}]
    for level in range(levels):
        far = "B" if level == levels - 1 else f"n{level + 1}"
        edges.append({"u": "A", "v": f"n{level}", "schmidt": link()})
        edges.append({"u": f"n{level}", "v": far, "schmidt": link()})
    scale = levels // 5000
    edges.insert(2500 * scale, {"u": f"n{1200 * scale}", "v": f"n{1200 * scale}", "schmidt": link()})
    edges.insert(7000 * scale, {"u": f"n{3100 * scale}", "v": "p0", "schmidt": link()})
    edges.append({"u": "i0", "v": "i1", "schmidt": link()})
    return json.dumps({"dimension": 2, "terminals": ["A", "B"], "edges": edges})


LADDERS = [
    pytest.param(1000, False, True, id="nested_2001"),
    pytest.param(600, True, False, id="a_side_1201"),
    pytest.param(600, True, True, id="both_sides_1801"),
]


class TestCost:
    """Each edge joins the reduction graph once and each contraction adds
    one edge, so a ladder that unlocks one move at a time costs no
    rescan.  A network that reduces to one A-B edge is never searched
    for edges off the A-B paths; one that does not is searched once, on
    what the reduction left."""

    @staticmethod
    def _spied(monkeypatch, net):
        """(moves, the node count of each graph searched, the pairs
        linked) of one decomposition of `net`."""
        searches, links = [], []
        core, link = network_module._core, network_module._link

        def core_spy(graph, a, b):
            searches.append(len(graph))
            return core(graph, a, b)

        def link_spy(*args):
            links.append(args[1:3])
            return link(*args)

        monkeypatch.setattr(network_module, "_core", core_spy)
        monkeypatch.setattr(network_module, "_link", link_spy)
        moves, _ = _decompose(net)
        return [op for op, _, _ in moves], searches, links

    @pytest.mark.parametrize("levels, left, right", LADDERS)
    def test_ladder_searches(self, monkeypatch, levels, left, right):
        pairs = _scrambled(_ladder(levels, left, right), substream(SEED, "ladder_pin", levels))
        assert len(pairs) == 1 + levels * (1 + left + right)
        half = SchmidtVector([0.5, 0.5])
        ops, searches, links = self._spied(monkeypatch, _network([(u, v, half) for u, v in pairs], 2))
        series = ops.count("series")
        assert series == levels * (left + right)
        assert ops.count("parallel") == levels
        assert searches == []
        assert len(links) == len(pairs) + series

    def test_ci_ladder_is_searched_once_on_what_is_left(self, monkeypatch):
        # the pendant at n3100 stops the reduction there: the levels
        # below it reduce, and the search sees the 1,900 nodes from
        # n3100 up, the terminals, the pendant's end and the island
        net = parse_network(_ci_ladder(5000))
        ops, searches, links = self._spied(monkeypatch, net)
        assert ops.count("drop") == 3
        assert searches == [1900 + 5]
        assert len(links) == len(net.edges) - 1 + ops.count("series")

    def test_cli_4001_edge_ladder(self, tmp_path, schema_validator):
        rng = substream(SEED, "ladder_cli", 0)
        edges = []
        for u, v in _scrambled(_ladder(2000, False, True), rng):
            # strong links, so the vector stays away from the uniform one
            top = float(rng.uniform(0.97, 0.995))
            edges.append({"u": u, "v": v, "schmidt": [top, 1.0 - top]})
        path = tmp_path / "ladder.json"
        path.write_text(
            json.dumps({"dimension": 2, "terminals": ["A", "B"], "edges": edges}), encoding="utf-8"
        )
        out = tmp_path / "out.json"
        assert main(["reduce", str(path), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        schema_validator("reduce_output.schema.json").validate(doc)
        assert doc["edge_count"] == 4001
        assert math.fsum(doc["det_vector"]) == pytest.approx(1.0, abs=1e-9)

    def test_cold_reduce_of_a_100k_edge_ladder_stays_in_its_memory_budget(self, tmp_path, repo_root):
        pytest.importorskip("resource")
        path = tmp_path / "ladder.json"
        path.write_text(_ci_ladder(50_000), encoding="utf-8")
        paths = [str(repo_root / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(path), "--out", str(tmp_path / "out.json"), str(LADDER_TIMEOUT_S)],
            capture_output=True,
            text=True,
            timeout=LADDER_TIMEOUT_S + 30,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_mb = proc.stdout.split()
        assert int(code) == EXIT_OK
        assert float(peak_mb) <= LADDER_RSS_BUDGET_MB
        doc = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert doc["edge_count"] == 100_004
        assert sum(event["op"] == "drop" for event in doc["reduction_trace"]) == 3
