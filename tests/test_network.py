"""Network ingestion, classification, reduction and the report document."""

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qnetdet.errors import (
    DanglingEndpoint,
    DisconnectedTerminals,
    MissingTerminal,
    MixedDimensions,
    NotSeriesParallel,
    SchemaError,
)
from qnetdet import network as network_module
from qnetdet._jsonio import render_json
from qnetdet.backend import kernels
from qnetdet.cli import EXIT_OK, main
from qnetdet.network import (
    Edge,
    QuantumNetwork,
    TopologyClass,
    cep_probability,
    classify_topology,
    network_from_dict,
    parse_network,
    reduce_series_parallel,
    report,
)
from qnetdet.rules import purify_rule, swap_rule
from qnetdet.sampling import random_network, random_schmidt, substream
from qnetdet.schmidt import SchmidtVector, kron, normalize_descending

SEED = 20240811


def _net(*uv_links, dimension=2, terminals=("A", "B")):
    edges = [Edge(u, v, SchmidtVector(link)) for u, v, link in uv_links]
    return QuantumNetwork(dimension, terminals, edges)


LAM = [0.9, 0.1]


class TestIngestion:
    def test_parse_roundtrip(self):
        text = json.dumps(
            {
                "dimension": 2,
                "terminals": ["A", "B"],
                "edges": [{"u": "A", "v": "B", "schmidt": [0.8, 0.2]}],
            }
        )
        net = parse_network(text)
        assert net.dimension == 2
        assert net.edges[0].link.entries == (0.8, 0.2)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_network("{not json")

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            network_from_dict({"dimension": 2})

    def test_bad_dimension(self):
        with pytest.raises(SchemaError):
            network_from_dict({"dimension": 0, "terminals": ["A", "B"], "edges": []})

    def test_terminal_count(self):
        # QuantumNetwork counts the terminals, for a parsed file as for a built one
        for terms in (["A"], ["A", "B", "C"], []):
            with pytest.raises(MissingTerminal, match="^exactly two distinct terminals are required$"):
                network_from_dict({"dimension": 2, "terminals": terms, "edges": []})

    def test_terminals_must_be_a_list(self):
        # a string of two letters is no pair of terminals
        with pytest.raises(MissingTerminal, match="^terminals must be a list of two node names$"):
            network_from_dict({"dimension": 2, "terminals": "AB", "edges": []})

    @pytest.mark.parametrize(
        "doc, error",
        [
            (
                {"terminals": ["A"], "edges": [{"u": "A", "v": "B", "schmidt": [0.6, 0.5]}]},
                (SchemaError, "edge 0 schmidt sums to 1.1, expected 1 within 1e-9"),
            ),
            (
                {"terminals": ["A", "B"], "edges": [{"u": "A", "v": 7, "schmidt": [0.5, 0.3, 0.2]}]},
                (MixedDimensions, "edge 0 has 3 entries, dimension is 2"),
            ),
            (
                {"terminals": ["A"], "edges": [{"u": "", "v": "B", "schmidt": LAM}]},
                (MissingTerminal, "exactly two distinct terminals are required"),
            ),
        ],
        ids=["terminals-and-vector", "endpoint-and-length", "terminals-then-endpoint"],
    )
    def test_link_vectors_are_checked_first(self, doc, error):
        # every link vector is checked edge by edge during the parse;
        # terminals, then endpoints, only afterwards, in QuantumNetwork
        with pytest.raises(error[0]) as info:
            network_from_dict({"dimension": 2, **doc})
        assert (type(info.value), str(info.value)) == error

    def test_endpoints_checked_once(self, monkeypatch):
        calls = []

        def spy(name):
            calls.append(name)
            return name

        monkeypatch.setattr(network_module, "_check_endpoint", spy)
        for n in (1, 5, 40):
            calls.clear()
            edges = [{"u": f"n{i}", "v": f"n{i + 1}", "schmidt": LAM} for i in range(n)]
            net = network_from_dict({"dimension": 2, "terminals": ["n0", f"n{n}"], "edges": edges})
            # two calls per edge, both from QuantumNetwork
            assert calls == [name for e in net.edges for name in (e.u, e.v)]

    def test_edge_shape(self):
        with pytest.raises(SchemaError):
            network_from_dict(
                {"dimension": 2, "terminals": ["A", "B"], "edges": [{"u": "A"}]}
            )

    def test_negative_entry(self):
        with pytest.raises(SchemaError):
            network_from_dict(
                {
                    "dimension": 2,
                    "terminals": ["A", "B"],
                    "edges": [{"u": "A", "v": "B", "schmidt": [1.1, -0.1]}],
                }
            )

    def test_unnormalized_link(self):
        with pytest.raises(SchemaError):
            network_from_dict(
                {
                    "dimension": 2,
                    "terminals": ["A", "B"],
                    "edges": [{"u": "A", "v": "B", "schmidt": [0.9, 0.2]}],
                }
            )

    def test_mixed_dimensions(self):
        with pytest.raises(MixedDimensions):
            network_from_dict(
                {
                    "dimension": 2,
                    "terminals": ["A", "B"],
                    "edges": [{"u": "A", "v": "B", "schmidt": [0.5, 0.3, 0.2]}],
                }
            )

    def test_endpoint_must_be_named(self):
        with pytest.raises(DanglingEndpoint):
            network_from_dict(
                {
                    "dimension": 2,
                    "terminals": ["A", "B"],
                    "edges": [{"u": "", "v": "B", "schmidt": [0.8, 0.2]}],
                }
            )

    def test_identical_terminals_rejected(self):
        with pytest.raises(MissingTerminal):
            QuantumNetwork(2, ("A", "A"), [])

    @pytest.mark.parametrize("terminal", [7, None, ""])
    def test_terminal_must_be_named(self, terminal):
        with pytest.raises(MissingTerminal, match=f"^terminal {terminal!r} is not a non-empty string$"):
            QuantumNetwork(2, ("A", terminal), [])

    def test_edge_of_another_dimension(self):
        edge = Edge("A", "B", SchmidtVector([0.5, 0.3, 0.2]))
        with pytest.raises(MixedDimensions, match="^link A-B has dimension 3, network has 2$"):
            QuantumNetwork(2, ("A", "B"), [edge])

    def test_edges_must_be_a_list(self):
        with pytest.raises(SchemaError, match="^edges must be a list$"):
            network_from_dict({"dimension": 2, "terminals": ["A", "B"], "edges": {}})


# One network per class, then shapes at the edges of the classes:
# off-path loops and cycles, pendants, islands and nested bundles.  An
# edge on no A-B path is dropped before the class is read.
CLASS_CASES = [
    ("single_link", [("A", "B")], TopologyClass.SIMPLE_SERIES),
    ("two_hop_chain", [("A", "M"), ("M", "B")], TopologyClass.SIMPLE_SERIES),
    ("parallel_pair", [("A", "B"), ("A", "B")], TopologyClass.SIMPLE_PARALLEL),
    (
        "chain_of_bundles",
        [("A", "M"), ("A", "M"), ("M", "B"), ("M", "B")],
        TopologyClass.PARALLEL_THEN_SERIES,
    ),
    ("triangle", [("A", "M"), ("M", "B"), ("A", "B")], TopologyClass.SERIES_THEN_PARALLEL),
    ("self_loop_on_chain", [("A", "M"), ("M", "B"), ("M", "M")], TopologyClass.SIMPLE_SERIES),
    ("isolated_loop", [("A", "B"), ("C", "C")], TopologyClass.SIMPLE_SERIES),
    (
        "triangle_hanging_at_relay",
        [("A", "M"), ("M", "B"), ("M", "X"), ("X", "Y"), ("Y", "M")],
        TopologyClass.SIMPLE_SERIES,
    ),
    (
        "triangle_at_terminal",
        [("A", "B"), ("A", "X"), ("X", "Y"), ("Y", "A")],
        TopologyClass.SIMPLE_SERIES,
    ),
    ("pendant_edge", [("A", "M"), ("M", "B"), ("M", "P")], TopologyClass.SIMPLE_SERIES),
    ("separate_two_cycle", [("A", "B"), ("I", "J"), ("I", "J")], TopologyClass.SIMPLE_SERIES),
    (
        "two_direct_links_and_chain",
        [("A", "B"), ("A", "B"), ("A", "M"), ("M", "B")],
        TopologyClass.SERIES_PARALLEL,
    ),
    (
        "bundle_inside_branch",
        [("A", "M"), ("A", "M"), ("M", "B"), ("A", "B")],
        TopologyClass.SERIES_PARALLEL,
    ),
    (
        "two_two_hop_chains",
        [("A", "M"), ("M", "B"), ("A", "N"), ("N", "B")],
        TopologyClass.SERIES_THEN_PARALLEL,
    ),
    (
        "bridge_hanging_at_relay",
        [("A", "M"), ("M", "B"), ("M", "P"), ("M", "Q"), ("P", "Q"), ("P", "R"), ("Q", "R")],
        TopologyClass.SIMPLE_SERIES,
    ),
]

# indices of the edges that CLASS_CASES drop, none for the other cases
DROPPED = {
    "self_loop_on_chain": [2],
    "isolated_loop": [1],
    "triangle_hanging_at_relay": [2, 3, 4],
    "triangle_at_terminal": [1, 2, 3],
    "pendant_edge": [2],
    "separate_two_cycle": [1, 2],
    "bridge_hanging_at_relay": [2, 3, 4, 5, 6],
}


class TestClassification:
    @pytest.mark.parametrize(
        "pairs, expected", [c[1:] for c in CLASS_CASES], ids=[c[0] for c in CLASS_CASES]
    )
    def test_class(self, pairs, expected):
        assert classify_topology(_net(*((u, v, LAM) for u, v in pairs))) is expected

    @pytest.mark.parametrize(
        "name, pairs", [c[:2] for c in CLASS_CASES], ids=[c[0] for c in CLASS_CASES]
    )
    def test_drop_events(self, name, pairs):
        # one event per dropped edge, first and in input order
        links = [[0.9 - 0.01 * i, 0.1 + 0.01 * i] for i in range(len(pairs))]
        trace = report(_net(*((u, v, l) for (u, v), l in zip(pairs, links))))["reduction_trace"]
        dropped = DROPPED.get(name, [])
        assert trace[: len(dropped)] == [
            {"op": "drop", "nodes": list(pairs[i]), "link": links[i]} for i in dropped
        ]
        assert all(ev["op"] != "drop" for ev in trace[len(dropped):])

    def test_bridge_not_series_parallel(self):
        bridge = _net(
            ("A", "P", LAM),
            ("A", "Q", LAM),
            ("P", "Q", LAM),
            ("P", "B", LAM),
            ("Q", "B", LAM),
        )
        assert classify_topology(bridge) is TopologyClass.NOT_SERIES_PARALLEL

    def test_disconnected(self):
        with pytest.raises(DisconnectedTerminals):
            classify_topology(_net(("A", "X", LAM)))


class TestReduction:
    def test_single_link_unchanged(self):
        vec, trace = reduce_series_parallel(_net(("A", "B", [0.8, 0.2])))
        assert vec.entries == (0.8, 0.2)
        assert trace == []

    def test_chain_is_swap(self):
        vec, _ = reduce_series_parallel(_net(("A", "M", LAM), ("M", "B", LAM)))
        want = swap_rule(SchmidtVector(LAM), SchmidtVector(LAM))
        assert vec.entries == pytest.approx(want.entries, abs=1e-12)

    def test_parallel_pair_is_purify(self):
        vec, _ = reduce_series_parallel(_net(("A", "B", LAM), ("A", "B", LAM)))
        want = purify_rule(kron(SchmidtVector(LAM), SchmidtVector(LAM)), 2)
        assert vec.entries == pytest.approx(want.entries, abs=1e-12)

    def test_triangle_closed_form(self):
        vec, _ = reduce_series_parallel(
            _net(("A", "M", LAM), ("M", "B", LAM), ("A", "B", LAM))
        )
        top = 9.0 * (25.0 + 4.0 * math.sqrt(34.0)) / 500.0
        assert vec.entries[0] == pytest.approx(top, abs=1e-12)

    def test_order_of_moves_does_not_matter(self):
        # same network, edges listed in scrambled order
        edges = [("A", "M", LAM), ("M", "B", LAM), ("A", "B", LAM)]
        base, _ = reduce_series_parallel(_net(*edges))
        perm, _ = reduce_series_parallel(_net(*edges[::-1]))
        assert base.entries == pytest.approx(perm.entries, abs=1e-12)

    def test_bridge_raises_with_remnant(self):
        bridge = _net(
            ("A", "P", LAM),
            ("A", "Q", LAM),
            ("P", "Q", LAM),
            ("P", "B", LAM),
            ("Q", "B", LAM),
        )
        with pytest.raises(NotSeriesParallel) as err:
            reduce_series_parallel(bridge)
        assert err.value.remnant
        assert "between" in str(err.value)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedTerminals):
            reduce_series_parallel(_net(("A", "X", LAM)))

    def test_self_loop_dropped(self):
        vec, _ = reduce_series_parallel(
            _net(("A", "B", [0.8, 0.2]), ("C", "C", [0.5, 0.5]))
        )
        assert vec.entries == (0.8, 0.2)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_chain_folds_left_to_right(self, d):
        # edges listed out of order and reversed: the fold runs from A
        rng = substream(SEED, "chain_fold", d)
        links = [random_schmidt(d, rng) for _ in range(6)]
        path = ["A", "r4", "r1", "r3", "r0", "r2", "B"]
        edges = [(path[i + 1], path[i], links[i]) for i in (3, 0, 5, 2, 4, 1)]
        vec, trace = reduce_series_parallel(_net(*edges, dimension=d))
        assert vec == functools.reduce(swap_rule, links)
        assert [ev["through"] for ev in trace] == [["A", path[i]] for i in range(2, 7)]

    @pytest.mark.parametrize("trial", range(50))
    def test_random_networks_reduce(self, trial):
        rng = substream(SEED, "reduce_random", trial)
        d = int(rng.integers(2, 4))
        net = random_network(d, 7, rng)
        vec, _ = reduce_series_parallel(net)
        assert vec.dimension == d
        assert math.fsum(vec.entries) == pytest.approx(1.0, abs=1e-9)


def _strong_link(d, low, rng):
    """Link whose top entry is drawn from [low, 1), low >= 1/2."""
    top = rng.uniform(low, 1.0)
    return normalize_descending([top, *(rng.dirichlet(np.ones(d - 1)) * (1.0 - top))])


class TestBundles:
    """A bundle is folded pairwise, so its cost grows linearly in its
    size, and its answer does not depend on the order of its edges."""

    @pytest.mark.parametrize("d, k", [(4, 9)])
    def test_purify_sees_at_most_d_squared_entries(self, monkeypatch, d, k):
        sizes = []
        purify = network_module.purify_rule

        def spy(x, dim):
            sizes.append(len(x))
            return purify(x, dim)

        monkeypatch.setattr(network_module, "purify_rule", spy)
        rng = substream(SEED, "bundle_spy", d)
        reduce_series_parallel(
            _net(*[("A", "B", random_schmidt(d, rng)) for _ in range(k)], dimension=d)
        )
        assert len(sizes) == k - 1
        assert max(sizes) <= d * d

    def test_qubit_bundle_calls_no_purify_route(self, monkeypatch):
        # at d = 2 each pairwise step is the closed form rules._purify_qubit
        steps = []
        closed_form = network_module._purify_qubit

        def spy(xs, ys):
            steps.append((xs, ys))
            return closed_form(xs, ys)

        def refuse(*args):
            raise AssertionError("a qubit bundle reached the purify route")

        monkeypatch.setattr(network_module, "_purify_qubit", spy)
        monkeypatch.setattr(network_module, "purify_rule", refuse)
        monkeypatch.setattr(kernels, "purify_kernel", refuse)
        rng = substream(SEED, "bundle_spy", 2)
        _, trace = reduce_series_parallel(_net(*[("A", "B", random_schmidt(2, rng)) for _ in range(12)]))
        assert [event["arity"] for event in trace] == [12]
        assert len(steps) == 11

    @pytest.mark.parametrize(
        "d, k, low, above",
        [(2, 40, 0.985, True), (4, 20, 0.95, True), (2, 40, 0.5, False), (4, 20, 0.5, False)],
    )
    def test_top_entry_closed_form(self, d, k, low, above):
        # the largest product of the bundle, or the level 1/d if that is larger
        rng = substream(SEED, "bundle_top", d * 1000 + round(low * 1000))
        links = [_strong_link(d, low, rng) for _ in range(k)]
        vec, _ = reduce_series_parallel(_net(*[("A", "B", v) for v in links], dimension=d))
        prod = math.prod(v.entries[0] for v in links)
        assert (prod > 1.0 / d) == above
        assert vec.entries[0] == pytest.approx(max(prod, 1.0 / d), abs=1e-12)
        assert math.fsum(vec.entries) == pytest.approx(1.0, abs=1e-12)

    def test_cli_thirty_link_qubit_bundle(self, tmp_path):
        rng = substream(SEED, "bundle_cli", 0)
        tops = rng.uniform(0.5, 1.0, size=30).tolist()
        doc = {
            "dimension": 2,
            "terminals": ["A", "B"],
            "edges": [{"u": "A", "v": "M", "schmidt": [p, 1.0 - p]} for p in tops]
            + [{"u": "M", "v": "B", "schmidt": [0.9, 0.1]}],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["reduce", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["reduction_trace"][0]["arity"] == 30

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_edge_order_of_bundle_is_irrelevant(self, d, k):
        rng = substream(SEED, "bundle_order", d * 10 + k)
        links = [random_schmidt(d, rng) for _ in range(k - 1)]
        links.append(links[0])  # equal members too
        rest = [("M", "B", random_schmidt(d, rng)), ("A", "B", random_schmidt(d, rng))]
        base = report(_net(*[("A", "M", v) for v in links], *rest, dimension=d))
        for _ in range(4):
            perm = [links[i] for i in rng.permutation(k)]
            doc = report(_net(*rest, *[("A", "M", v) for v in perm], dimension=d))
            assert np.max(np.abs(np.subtract(doc["det_vector"], base["det_vector"]))) <= 1e-15
            assert render_json(doc) == render_json(base)


class TestCep:
    def test_single_link(self):
        assert cep_probability(_net(("A", "B", LAM))) == pytest.approx(0.2, abs=1e-12)

    def test_chain_multiplies(self):
        net = _net(("A", "M", LAM), ("M", "B", LAM))
        assert cep_probability(net) == pytest.approx(0.04, abs=1e-12)

    def test_parallel_any_success(self):
        net = _net(("A", "B", LAM), ("A", "B", LAM))
        assert cep_probability(net) == pytest.approx(0.36, abs=1e-12)

    def test_triangle(self):
        net = _net(("A", "M", LAM), ("M", "B", LAM), ("A", "B", LAM))
        assert cep_probability(net) == pytest.approx(0.232, abs=1e-12)


# A-x, A-w-x, x-y-B at d=4, where swap_rule is not associative: the
# chain A-x-y-B folds left to right from A, swap(swap(P, x-y), y-B)
# with P the A-x bundle.
ORDER_SENSITIVE_D4 = [
    ("A", "x", [0.4, 0.3, 0.2, 0.1]),
    ("A", "w", [0.5, 0.25, 0.15, 0.1]),
    ("w", "x", [0.7, 0.1, 0.1, 0.1]),
    ("x", "y", [0.35, 0.3, 0.2, 0.15]),
    ("y", "B", [0.6, 0.2, 0.15, 0.05]),
]
ORDER_SENSITIVE_D4_REPORT = (
    '{"dimension": 4, "terminals": ["A", "B"], "edge_count": 5, "topology": "SeriesParallel", '
    '"det_vector": [0.6195550633, 0.210386550055, 0.127300657093, 0.0427577295525], '
    '"concurrence": {"C_1": 1, "C_2": 0.859344977187, "C_3": 0.752990807946, "C_4": 0.652823504206}, '
    '"cep_probability": 0.05952, "reduction_trace": ['
    '{"op": "series", "node": "w", "through": ["A", "x"], '
    '"inputs": [[0.5, 0.25, 0.15, 0.1], [0.7, 0.1, 0.1, 0.1]], '
    '"output": [0.74470907284, 0.13738620655, 0.0727846686515, 0.0451200519587]}, '
    '{"op": "parallel", "nodes": ["A", "x"], "arity": 2, '
    '"inputs": [[0.4, 0.3, 0.2, 0.1], [0.74470907284, 0.13738620655, 0.0727846686515, 0.0451200519587]], '
    '"output": [0.297883629136, 0.234038790288, 0.234038790288, 0.234038790288]}, '
    '{"op": "series", "node": "x", "through": ["A", "y"], '
    '"inputs": [[0.297883629136, 0.234038790288, 0.234038790288, 0.234038790288], [0.35, 0.3, 0.2, 0.15]], '
    '"output": [0.362129947774, 0.293806218394, 0.19757662852, 0.146487205311]}, '
    '{"op": "series", "node": "y", "through": ["A", "B"], '
    '"inputs": [[0.362129947774, 0.293806218394, 0.19757662852, 0.146487205311], [0.6, 0.2, 0.15, 0.05]], '
    '"output": [0.6195550633, 0.210386550055, 0.127300657093, 0.0427577295525]}]}\n'
)


class TestReport:
    def test_order_sensitive_d4_bytes(self):
        doc = report(_net(*ORDER_SENSITIVE_D4, dimension=4))
        assert render_json(doc) == ORDER_SENSITIVE_D4_REPORT
        ax, aw, wx, xy, yb = (SchmidtVector(link) for _, _, link in ORDER_SENSITIVE_D4)
        low, high = sorted([ax, swap_rule(aw, wx)], key=lambda vec: vec.entries)
        bundle = purify_rule([p * q for p in low.entries for q in high.entries], 4)
        assert doc["det_vector"] == list(swap_rule(swap_rule(bundle, xy), yb).entries)

    def test_decomposes_once(self, monkeypatch):
        calls = []
        decompose = network_module._decompose

        def counted(net):
            calls.append(net)
            return decompose(net)

        monkeypatch.setattr(network_module, "_decompose", counted)
        report(_net(("A", "M", LAM), ("M", "B", LAM), ("A", "B", LAM)))
        assert len(calls) == 1

    def test_document_shape(self):
        doc = report(_net(("A", "M", LAM), ("M", "B", LAM), ("A", "B", LAM)))
        assert doc["dimension"] == 2
        assert doc["topology"] == "SeriesThenParallel"
        assert doc["edge_count"] == 3
        assert doc["concurrence"]["C_1"] == pytest.approx(1.0)
        assert doc["concurrence"]["C_2"] == pytest.approx(0.673, abs=5e-4)
        assert doc["cep_probability"] == pytest.approx(0.232, abs=1e-12)
        assert doc["reduction_trace"]
        ops = {step["op"] for step in doc["reduction_trace"]}
        assert ops <= {"series", "parallel", "drop"}


# Configures logging at DEBUG, before or after importing qnetdet as
# argv[1] says, then reports networks/triangle.json.
_LIBRARY_DEBUG = """
import sys

def configure():
    import logging
    logging.basicConfig(level=logging.DEBUG, stream=sys.stdout, format="%(levelname)s %(name)s: %(message)s")

if sys.argv[1] == "before":
    configure()
import qnetdet
if sys.argv[1] == "after":
    configure()
with open("networks/triangle.json", encoding="utf-8") as fh:
    qnetdet.report(qnetdet.parse_network(fh.read()))
"""


class TestDebugLog:
    """The decomposition's DEBUG line reaches a library caller that
    configured logging, whether before or after importing qnetdet."""

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_library_caller_gets_the_line(self, repo_root, when):
        paths = [str(repo_root / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        proc = subprocess.run(
            [sys.executable, "-c", _LIBRARY_DEBUG, when],
            cwd=repo_root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert proc.stdout == (
            "DEBUG qnetdet.network: decomposed 3 edges: "
            "dropped=0 series_moves=1 parallel_moves=1 max_bundle_arity=2\n"
        )
