"""The output checker accepts the program's reports and flags corrupted
trace outputs, corrupted final vectors and incomplete traces."""

import copy
import json

import pytest

import netgen
import outcheck
from qnetdet._jsonio import render_json
from qnetdet.network import parse_network, report


@pytest.fixture(scope="module", params=sorted(netgen.SHAPES))
def case(request):
    doc = netgen.make_pool(request.param, 1, 1)[0]
    rep = json.loads(render_json(report(parse_network(netgen.dumps(doc)))))
    return rep, doc["dimension"], len(doc["edges"])


def test_program_output_passes(case):
    rep, d, edges = case
    assert outcheck.check_reduce(rep, d, edges) == []


@pytest.mark.parametrize("op", ["series", "parallel"])
def test_corrupted_trace_output_is_flagged(case, op):
    rep, d, edges = case
    bad = copy.deepcopy(rep)
    event = next(ev for ev in bad["reduction_trace"] if ev["op"] == op)
    event["output"][0] += 1e-6
    event["output"][-1] -= 1e-6
    assert any(f"{op} output" in e for e in outcheck.check_reduce(bad, d, edges))


def test_corrupted_final_vector_is_flagged(case):
    rep, d, edges = case
    bad = copy.deepcopy(rep)
    bad["det_vector"][0] += 1e-6
    bad["det_vector"][1] -= 1e-6
    assert "det_vector differs from the last event's output" in outcheck.check_reduce(bad, d, edges)


def test_incomplete_trace_is_flagged(case):
    rep, d, edges = case
    bad = copy.deepcopy(rep)
    del bad["reduction_trace"][0]
    assert any("trace removes" in e for e in outcheck.check_reduce(bad, d, edges))


def test_references_match_closed_forms():
    # qubit series rule multiplies concurrences; the parallel rule keeps
    # the product of the top entries while it exceeds 1/d
    x, y = [0.9, 0.1], [0.8, 0.2]
    out = outcheck.series_reference(x, y)
    assert 2 * (out[0] * out[1]) ** 0.5 == pytest.approx(0.6 * 0.8, abs=1e-14)
    assert outcheck.parallel_reference([x, y], 2)[0] == pytest.approx(0.72, abs=1e-15)


def test_cli_bytes_and_exit_code():
    assert outcheck.check_cli(0, b"x", 0, b"x") == []
    assert outcheck.check_cli(0, b"y", 0, b"x") == ["stdout differs from the golden bytes"]
    assert outcheck.check_cli(0, b"", 3, None) == ["exit code 0, expected 3"]
