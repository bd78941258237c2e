"""The decomposition is a function of the network's shape: the answer
does not depend on node names, edge order or edge direction, and the
engine's cost stays linear on deep ladders."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from qnetdet import network as network_module
from qnetdet.cli import EXIT_OK, main
from qnetdet.errors import DisconnectedTerminals, NotSeriesParallel
from qnetdet.network import Edge, QuantumNetwork, _decompose, report
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


# A cold `qnetdet reduce` of the 100,004-edge ladder below peaked at
# 188 MB and took 1.7 s on Linux under Python 3.11 on a shared 2-CPU
# Xeon host (median of 5).  The budget leaves 37 MB, a fifth, as
# headroom.  A writer that builds the trace as event dicts,
# render_json(report()), peaks at 202 MB, within it: the writer's byte
# tests hold that route.  The time limit only stops a run that has
# stalled.
LADDER_RSS_BUDGET_MB = 225
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
    """One depth-first search over the whole graph; then each edge joins
    the reduction graph once and each contraction adds one edge, so a
    ladder that unlocks one move at a time costs no rescan."""

    @pytest.mark.parametrize("levels, left, right", LADDERS)
    def test_ladder_searches(self, monkeypatch, levels, left, right):
        searches, links = [], []
        core, link = network_module._core, network_module._link

        def core_spy(net):
            searches.append(net)
            return core(net)

        def link_spy(*args):
            links.append(args[1:3])
            return link(*args)

        monkeypatch.setattr(network_module, "_core", core_spy)
        monkeypatch.setattr(network_module, "_link", link_spy)
        pairs = _scrambled(_ladder(levels, left, right), substream(SEED, "ladder_pin", levels))
        assert len(pairs) == 1 + levels * (1 + left + right)
        half = SchmidtVector([0.5, 0.5])
        moves, _ = _decompose(_network([(u, v, half) for u, v in pairs], 2))
        ops = [op for op, _, _ in moves]
        series = ops.count("series")
        assert series == levels * (left + right)
        assert ops.count("parallel") == levels
        assert len(searches) == 1
        assert len(links) == len(pairs) + series

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
