"""The decomposition rounds run from worklists: a differential test
against the old engine, which rescans every edge and node and reruns a
breadth-first search each round, and pins on the new engine's cost."""

import json
import math

import pytest
from _decompose_oracle import _decompose as oracle_decompose

from qnetdet import network as network_module
from qnetdet.cli import EXIT_OK, main
from qnetdet.errors import DisconnectedTerminals, NotSeriesParallel
from qnetdet.network import Edge, QuantumNetwork, _decompose
from qnetdet.sampling import random_network, substream
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


def _outcome(decompose, net):
    """(moves, root), or the exception's type, message and remnant."""
    try:
        return decompose(net)
    except (DisconnectedTerminals, NotSeriesParallel) as exc:
        return type(exc), str(exc), getattr(exc, "remnant", None)


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


def _scrambled(pairs, rng):
    """The same shape with internal nodes renamed at random (names that
    sort before, between and after the terminals), edges permuted and
    some of them reversed."""
    internal = sorted({n for p in pairs for n in p} - {"A", "B"})
    prefix = ("", "Z", "n")[int(rng.integers(3))]
    names = {n: f"{prefix}{int(lab)}" for n, lab in zip(internal, rng.permutation(len(internal)))}
    names.update(A="A", B="B")
    out = []
    for i in rng.permutation(len(pairs)):
        u, v = pairs[i]
        out.append((names[v], names[u]) if rng.random() < 0.5 else (names[u], names[v]))
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


def _network(pairs, d):
    link = SchmidtVector([1.0 / d] * d)
    return QuantumNetwork(d, ("A", "B"), [Edge(u, v, link) for u, v in pairs])


def _random_shapes(count, salt):
    for i in range(count):
        rng = substream(SEED, salt, i)
        d = 2 + i % 5
        pairs = [(e.u, e.v) for e in random_network(d, 30, rng).edges]
        if i % 3:
            pairs = _perturbed(pairs, rng)
        yield d, _scrambled(pairs, rng)


class TestDifferential:
    """The worklist engine emits exactly the old engine's moves, root,
    exceptions, messages and remnants."""

    def test_random_networks(self):
        outcomes = {"ok": 0, NotSeriesParallel: 0, DisconnectedTerminals: 0}
        for d, pairs in _random_shapes(2000, "decompose_diff"):
            net = _network(pairs, d)
            got = _outcome(_decompose, net)
            assert got == _outcome(oracle_decompose, net), pairs
            outcomes[got[0] if len(got) == 3 else "ok"] += 1
        # every outcome is exercised
        assert min(outcomes.values()) >= 50, outcomes

    @pytest.mark.parametrize("left, right", [(False, True), (True, False), (True, True)])
    def test_ladders(self, left, right):
        rng = substream(SEED, "decompose_ladders", 2 * left + right)
        for levels in (1, 2, 3, 5, 8, 13, 40):
            pairs = _ladder(levels, left, right)
            for shape in (pairs, _scrambled(pairs, rng), _perturbed(pairs, rng)):
                net = _network(shape, 2)
                assert _outcome(_decompose, net) == _outcome(oracle_decompose, net)


LADDERS = [
    pytest.param(1000, False, True, id="nested_2001"),
    pytest.param(600, True, False, id="a_side_1201"),
    pytest.param(600, True, True, id="both_sides_1801"),
]


class TestCost:
    """Each round touches only what the round before it changed, so a
    ladder that unlocks one move per round needs no search per round."""

    @pytest.mark.parametrize("levels, left, right", LADDERS)
    def test_ladder_searches(self, monkeypatch, levels, left, right):
        calls = []
        search = network_module._Multigraph.distances

        def spy(graph, start):
            calls.append(start)
            return search(graph, start)

        monkeypatch.setattr(network_module._Multigraph, "distances", spy)
        pairs = _scrambled(_ladder(levels, left, right), substream(SEED, "ladder_pin", levels))
        assert len(pairs) == 1 + levels * (1 + left + right)
        moves, _ = _decompose(_network(pairs, 2))
        assert sum(m["op"] == "series" for m in moves) == levels * (left + right)
        assert sum(m["op"] == "parallel" for m in moves) == levels
        assert len(calls) <= 3

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
