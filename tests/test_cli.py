"""Command-line behavior: golden outputs, exit codes, formats, seeds."""

import errno
import gc
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys

import _argv_cases
import pytest

from qnetdet import checks, cli, network
from qnetdet.cli import (
    EXIT_DISCONNECTED,
    EXIT_INVALID_POVM,
    EXIT_NOT_SERIES_PARALLEL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    main,
)
from qnetdet.rules import Povm, bell_povm_d2

# the bundled networks with a reduce golden, named by the golden files
GOLDEN_REDUCE = sorted(
    path.stem.removeprefix("reduce_")
    for path in (pathlib.Path(__file__).resolve().parent / "golden").glob("reduce_*.json")
)


@pytest.fixture
def run(tmp_path, monkeypatch, repo_root):
    """Invoke the entry point from the repository root, capturing the
    output file text and the exit code."""
    monkeypatch.chdir(repo_root)

    def _run(*argv, out_name="out.txt"):
        out = tmp_path / out_name
        code = main([*argv, "--out", str(out)])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return code, text

    return _run


class TestReduceGoldens:
    @pytest.mark.parametrize("name", GOLDEN_REDUCE)
    def test_json_bytes_match(self, run, golden_dir, name):
        code, text = run("reduce", f"networks/{name}.json")
        assert code == EXIT_OK
        expected = (golden_dir / f"reduce_{name}.json").read_text(encoding="utf-8")
        assert text == expected

    def test_csv_bytes_match(self, run, golden_dir):
        code, text = run("reduce", "networks/parallel_then_series.json", "--format", "csv")
        assert code == EXIT_OK
        expected = (golden_dir / "reduce_parallel_then_series.csv").read_text(encoding="utf-8")
        assert text == expected

    def test_every_golden_has_a_command(self, repo_root, golden_dir):
        # the goldens are exactly those the byte comparisons here and in
        # TestOutcomes read, and each reduce golden has its network
        compared = {f"reduce_{name}.json" for name in GOLDEN_REDUCE}
        compared |= {"reduce_parallel_then_series.csv", "outcomes_bell.json"}
        assert {path.name for path in golden_dir.iterdir()} == compared
        assert [name for name in GOLDEN_REDUCE if not (repo_root / "networks" / f"{name}.json").is_file()] == []

    @pytest.mark.parametrize("name", GOLDEN_REDUCE)
    def test_json_validates_against_schema(self, run, schema_validator, name):
        _, text = run("reduce", f"networks/{name}.json")
        schema_validator("reduce_output.schema.json").validate(json.loads(text))

    def test_csv_and_pretty_skip_the_trace(self, run, monkeypatch, repo_root, golden_dir):
        """--format csv and --pretty read the report's head only: with the
        trace builder and the writer broken, their bytes do not change."""
        names = [p.stem for p in sorted((repo_root / "networks").glob("*.json")) if p.stem != "bridge"]
        pretty = {}
        for name in names:
            net = network.parse_network((repo_root / "networks" / f"{name}.json").read_text(encoding="utf-8"))
            pretty[name] = cli._reduce_pretty(network.report(net))

        def broken(*args):
            raise AssertionError("the trace was built")

        monkeypatch.setattr(network, "_trace", broken)
        monkeypatch.setattr(network, "render_report", broken)
        monkeypatch.setattr(cli, "render_report", broken)
        code, text = run("reduce", "networks/parallel_then_series.json", "--format", "csv")
        assert code == EXIT_OK
        assert text == (golden_dir / "reduce_parallel_then_series.csv").read_text(encoding="utf-8")
        for name in names:
            assert run("reduce", f"networks/{name}.json", "--pretty") == (EXIT_OK, pretty[name])
        with pytest.raises(AssertionError, match="the trace was built"):
            run("reduce", "networks/chain.json")

    def test_pretty_is_not_json(self, run):
        code, text = run("reduce", "networks/triangle.json", "--pretty")
        assert code == EXIT_OK
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        assert "topology" in text and "SeriesThenParallel" in text

    def test_stdout_equals_file_output(self, monkeypatch, repo_root, golden_dir, capsys):
        monkeypatch.chdir(repo_root)
        assert main(["reduce", "networks/chain.json"]) == EXIT_OK
        captured = capsys.readouterr()
        expected = (golden_dir / "reduce_chain.json").read_text(encoding="utf-8")
        assert captured.out == expected

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "net, flags, code",
        [("chain", [], EXIT_OK), ("chain", ["--format", "csv"], EXIT_OK), ("bridge", [], EXIT_NOT_SERIES_PARALLEL)],
        ids=["json", "csv", "bridge"],
    )
    def test_reduce_runs_without_the_collector(self, run, monkeypatch, enabled, net, flags, code):
        # the command collects no garbage and leaves the collector as it found it
        seen = []
        parse = network.parse_network
        monkeypatch.setattr(cli, "parse_network", lambda text: seen.append(gc.isenabled()) or parse(text))
        (gc.enable if enabled else gc.disable)()
        try:
            assert run("reduce", f"networks/{net}.json", *flags)[0] == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False]


class TestReduceFailures:
    def test_bridge_not_series_parallel(self, run, capsys):
        code, _ = run("reduce", "networks/bridge.json")
        assert code == EXIT_NOT_SERIES_PARALLEL
        assert "reduction stalled" in capsys.readouterr().err

    def test_disconnected_terminals(self, tmp_path, run):
        doc = {
            "dimension": 2,
            "terminals": ["A", "B"],
            "edges": [
                {"u": "A", "v": "X", "schmidt": [0.9, 0.1]},
                {"u": "Y", "v": "B", "schmidt": [0.9, 0.1]},
            ],
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run("reduce", str(path))
        assert code == EXIT_DISCONNECTED

    def test_schema_error(self, tmp_path, run):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2}', encoding="utf-8")
        code, _ = run("reduce", str(path))
        assert code == EXIT_USAGE

    def test_missing_file(self, run):
        code, _ = run("reduce", "networks/no_such_network.json")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, path, err",
        [
            (["reduce", "networks"], "networks", errno.EISDIR),
            (["reduce", "networks/triangle.json", "--out", "networks"], "networks", errno.EISDIR),
            (["reduce", "networks/no_such_network.json"], "networks/no_such_network.json", errno.ENOENT),
        ],
        ids=["directory-input", "directory-out", "missing-file"],
    )
    def test_unreadable_path_is_usage_error(self, monkeypatch, repo_root, capsys, argv, path, err):
        # one line on stderr and exit 2, not a traceback
        monkeypatch.chdir(repo_root)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qnetdet: [Errno {err}] {os.strerror(err)}: {path!r}\n"

    def test_nan_link_rejected(self, tmp_path, run, capsys):
        # json accepts NaN, and NaN would slip past the sum check; the
        # schema check names the edge
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dimension": 2, "terminals": ["A", "B"], '
            '"edges": [{"u": "A", "v": "B", "schmidt": [NaN, 0.5]}]}',
            encoding="utf-8",
        )
        code, text = run("reduce", str(path))
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == "qnetdet: edge 0 schmidt has a non-finite entry\n"

    @pytest.mark.parametrize(
        "schmidt, err",
        [
            ("[0.5, Infinity]", "edge 0 schmidt has a non-finite entry"),
            ("[-Infinity, 0.5]", "edge 0 schmidt has a non-finite entry"),
            ("[1e308, 1e308]", "edge 0 schmidt sums to inf, expected 1 within 1e-9"),
            ("[1" + "0" * 400 + ", 0]", "edge 0 schmidt sums to inf, expected 1 within 1e-9"),
        ],
        ids=["inf", "minus-inf", "overflowing-sum", "huge-int"],
    )
    def test_malformed_numbers_are_usage_errors(self, tmp_path, run, capsys, schmidt, err):
        # one line on stderr and exit 2, not a traceback
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dimension": 2, "terminals": ["A", "B"], '
            f'"edges": [{{"u": "A", "v": "B", "schmidt": {schmidt}}}]}}',
            encoding="utf-8",
        )
        code, text = run("reduce", str(path))
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == f"qnetdet: {err}\n"

    @pytest.mark.parametrize(
        "terminals, edges, err",
        [
            (
                '["A", "B"]',
                '{"u": "", "v": "B", "schmidt": [0.5, 0.5]}, {"u": "A", "v": "B", "schmidt": [NaN, 0.5]}',
                "edge 1 schmidt has a non-finite entry",
            ),
            ('["A"]', '{"u": "A", "v": "B", "schmidt": [0.5, 0.5]}', "exactly two distinct terminals are required"),
        ],
        ids=["empty-endpoint-then-nan", "one-terminal"],
    )
    def test_doubly_malformed_file_reports_one_error(self, tmp_path, run, capsys, terminals, edges, err):
        # link vectors are checked edge by edge first, then terminals and
        # endpoints; either way one line on stderr and exit 2
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dimension": 2, "terminals": {terminals}, "edges": [{edges}]}}', encoding="utf-8")
        code, text = run("reduce", str(path))
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == f"qnetdet: {err}\n"

    @pytest.mark.parametrize("command", ["reduce", "outcomes"])
    def test_deeply_nested_file_is_usage_error(self, tmp_path, run, capsys, command):
        # json.loads raises RecursionError here, not JSONDecodeError
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "\n", encoding="utf-8")
        code, text = run(command, str(path))
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == "qnetdet: invalid JSON: nested too deeply\n"


class TestVerify:
    def test_bytes_identical_across_runs(self, run):
        args = ("verify", "lemmas", "--trials", "20", "--seed", "7")
        code1, text1 = run(*args, out_name="a.json")
        code2, text2 = run(*args, out_name="b.json")
        assert code1 == code2 == EXIT_OK
        assert text1 == text2

    def test_json_validates_against_schema(self, run, schema_validator):
        code, text = run("verify", "all", "--trials", "5", "--seed", "1")
        assert code == EXIT_OK
        doc = json.loads(text)
        schema_validator("verify_output.schema.json").validate(doc)
        assert len(doc["reports"]) == 17
        assert doc["manifest"]["config"]["trials"] == 5

    def test_violations_exit_code(self, run):
        code, text = run("verify", "lemma_det_preserving", "--trials", "10", "--tol", "1e-18")
        assert code == EXIT_VIOLATIONS
        doc = json.loads(text)
        assert doc["reports"][0]["passed"] is False
        assert doc["reports"][0]["violations"]

    def test_unknown_selector(self, run, capsys):
        code, _ = run("verify", "bogus_check")
        assert code == EXIT_USAGE
        assert "bogus_check" in capsys.readouterr().err

    def test_qubit_only_check_rejects_other_dimension(self, run):
        code, _ = run("verify", "theorem_worst_case_d2", "--d", "3", "--trials", "5")
        assert code == EXIT_USAGE

    def test_group_skips_qubit_only_check(self, run):
        code, text = run("verify", "theorems", "--d", "3", "--trials", "5")
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in json.loads(text)["reports"]}
        assert by_name["theorem_worst_case_d2"]["trials_run"] == 0
        assert "skipped" in by_name["theorem_worst_case_d2"]["extras"]

    def test_pretty_table(self, run):
        code, text = run("verify", "amgm", "--trials", "10", "--pretty")
        assert code == EXIT_OK
        assert text.startswith("PASS  reverse_amgm")
        assert "1/1 checks passed" in text

    def test_seed_env_fallback(self, run, monkeypatch):
        _, explicit = run("verify", "amgm", "--trials", "10", "--seed", "42", out_name="a.json")
        monkeypatch.setenv("QNETDET_SEED", "42")
        _, from_env = run("verify", "amgm", "--trials", "10", out_name="b.json")
        assert explicit == from_env
        monkeypatch.setenv("QNETDET_SEED", "not-a-number")
        code, _ = run("verify", "amgm", "--trials", "10", out_name="c.json")
        assert code == EXIT_USAGE

    def test_bad_config_is_usage_error(self, run):
        code, _ = run("verify", "all", "--d", "99", "--trials", "5")
        assert code == EXIT_USAGE
        code, _ = run("verify", "all", "--trials", "0")
        assert code == EXIT_USAGE

    def test_infinite_tolerance_rejected_before_any_check(self, monkeypatch, capsys):
        def no_checks(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(checks, "run_checks", no_checks)
        assert main(["verify", "all", "--tol", "inf"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "qnetdet: tolerance must be finite\n"

    def test_small_povm_size_rejected_before_any_check(self, monkeypatch, capsys):
        # run_checks itself stays; every check it could call raises
        def no_check(cfg):
            raise AssertionError("a check ran")

        for name in checks.CHECKS:
            monkeypatch.setitem(checks.CHECKS, name, no_check)
        assert main(["verify", "all", "--d", "3", "--povm-size", "4"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qnetdet: povm_size must be at least 9, dimension squared, got 4\n"

    def test_povm_size_at_dimension_squared_runs(self, run):
        code, text = run("verify", "theorem_simple_series", "--d", "3", "--trials", "3", "--povm-size", "9")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["manifest"]["config"]["povm_size"] == 9
        assert [r["passed"] for r in doc["reports"]] == [True]


class TestOutcomes:
    def test_bell_golden_bytes(self, run, golden_dir):
        code, text = run("outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell")
        assert code == EXIT_OK
        expected = (golden_dir / "outcomes_bell.json").read_text(encoding="utf-8")
        assert text == expected

    def test_json_validates_against_schema(self, run, schema_validator):
        _, text = run("outcomes", "--links", "0.8,0.2", "0.7,0.3")
        schema_validator("outcomes_output.schema.json").validate(json.loads(text))

    def test_deterministic_povm_uniform_probabilities(self, run):
        code, text = run("outcomes", "--links", "0.5,0.3,0.2", "0.6,0.3,0.1")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["element_count"] == 9
        assert len(doc["outcomes"]) == 9
        for entry in doc["outcomes"]:
            assert entry["probability"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        vec0 = doc["outcomes"][0]["vector"]
        for entry in doc["outcomes"][1:]:
            assert entry["vector"] == pytest.approx(vec0, abs=1e-9)

    def test_links_normalized_descending(self, run):
        code, text = run("outcomes", "--links", "1,9", "0.1,0.9")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["manifest"]["inputs"]["links"] == [[0.9, 0.1], [0.9, 0.1]]

    def test_chain_file_matches_links(self, run):
        _, from_file = run("outcomes", "networks/chain.json", out_name="a.json")
        _, from_links = run("outcomes", "--links", "0.9,0.1", "0.9,0.1", out_name="b.json")
        a, b = json.loads(from_file), json.loads(from_links)
        assert a["outcomes"] == b["outcomes"]
        assert a["averages"] == b["averages"]

    def test_chain_file_edge_order_does_not_matter(self, run, tmp_path):
        # the link at the first terminal is LA, whatever the order of the
        # edges in the file or of the endpoints in each edge
        am, mb = [0.7, 0.2, 0.1], [0.5, 0.3, 0.2]
        variants = {
            "ordered": [("A", "M", am), ("M", "B", mb)],
            "reversed": [("M", "B", mb), ("A", "M", am)],
            "swapped": [("M", "A", am), ("B", "M", mb)],
            "both": [("B", "M", mb), ("M", "A", am)],
        }
        docs = []
        for name, edges in variants.items():
            path = tmp_path / f"{name}.json"
            edge_docs = [{"u": u, "v": v, "schmidt": x} for u, v, x in edges]
            path.write_text(json.dumps({"dimension": 3, "terminals": ["A", "B"], "edges": edge_docs}))
            code, text = run("outcomes", str(path), "--povm", "random:9", "--seed", "5", out_name=f"{name}.out")
            assert code == EXIT_OK
            doc = json.loads(text)
            assert doc["manifest"]["inputs"].pop("network") == str(path)
            docs.append(doc)
        assert all(doc == docs[0] for doc in docs[1:])
        _, text = run("outcomes", "--links", "0.7,0.2,0.1", "0.5,0.3,0.2", "--povm", "random:9", "--seed", "5")
        from_links = json.loads(text)
        assert from_links["outcomes"] == docs[0]["outcomes"]
        assert from_links["averages"] == docs[0]["averages"]
        assert round(docs[0]["averages"]["C_2"], 12) == 0.601618288519

    def test_random_povm_seed_determinism(self, run):
        args = ("outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "random:6", "--seed", "5")
        _, a = run(*args, out_name="a.json")
        _, b = run(*args, out_name="b.json")
        assert a == b
        doc = json.loads(a)
        assert doc["element_count"] == 6
        total = sum(e["probability"] for e in doc["outcomes"])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["outcomes"], "qnetdet: provide a network file or --links\n"),
            (
                ["outcomes", "networks/chain.json", "--links", "0.9,0.1", "0.9,0.1"],
                "qnetdet: provide a network file or --links, not both\n",
            ),
        ],
        ids=["neither", "both"],
    )
    def test_network_or_links(self, run, capsys, argv, err):
        code, text = run(*argv)
        assert (code, text) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == err

    def test_bell_needs_qubits(self, run, capsys):
        code, _ = run("outcomes", "--links", "0.5,0.3,0.2", "0.6,0.3,0.1", "--povm", "bell")
        assert code == EXIT_INVALID_POVM
        assert "dimension" in capsys.readouterr().err

    def test_undersized_random_povm(self, run):
        code, _ = run("outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "random:2")
        assert code == EXIT_INVALID_POVM

    def test_random_povm_redrawn_until_complete(self, run):
        # the first draw of seed 31 misses completeness by more than
        # validate_povm allows; the sampler draws again
        flat = ",".join(["0.125"] * 8)
        code, text = run("outcomes", "--links", flat, flat, "--povm", "random", "--seed", "31")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["element_count"] == 64
        assert math.fsum(e["probability"] for e in doc["outcomes"]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_random_povm(self, repo_root):
        got = _fresh(repo_root, ["outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "random:0"])
        assert got["code"] == EXIT_INVALID_POVM
        assert got["err"] == "qnetdet: 0 elements cannot complete a measurement at dimension 2, which needs 4\n"

    def test_negative_random_povm_count(self, run, capsys):
        code, text = run("outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "random:-3")
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == "qnetdet: malformed element count in 'random:-3': must not be negative\n"

    def test_incomplete_measurement_exit_code(self, run, monkeypatch):
        monkeypatch.setattr(cli, "_build_povm", lambda spec, d, seed: Povm(0.5 * bell_povm_d2().elements))
        code, text = run("outcomes", "--links", "0.9,0.1", "0.9,0.1")
        assert code == EXIT_INVALID_POVM and text == ""

    def test_unknown_povm_name(self, run):
        code, _ = run("outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "mystery")
        assert code == EXIT_USAGE

    def test_file_xor_links(self, run):
        code, _ = run("outcomes", "networks/chain.json", "--links", "0.9,0.1", "0.9,0.1")
        assert code == EXIT_USAGE
        code, _ = run("outcomes")
        assert code == EXIT_USAGE

    def test_nan_link_rejected(self, run):
        code, text = run("outcomes", "--links", "nan,0.5", "0.9,0.1")
        assert code == EXIT_USAGE and text == ""

    def test_overflowing_link_rejected(self, run, capsys):
        code, text = run("outcomes", "--links", "1e308,1e308", "0.5,0.5", "--povm", "bell")
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == "qnetdet: entries sum beyond the largest float\n"

    def test_mismatched_link_lengths(self, run):
        code, _ = run("outcomes", "--links", "0.9,0.1", "0.5,0.3,0.2")
        assert code == EXIT_USAGE

    def test_wrong_file_shape(self, run, capsys):
        code, _ = run("outcomes", "networks/triangle.json")
        assert code == EXIT_USAGE
        assert "two links" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--links", "a,b", "0.5,0.5"], "link must be comma-separated numbers, got 'a,b'"),
            (["PAIR", "--povm", "bell"], "the two links must form a chain between the terminals"),
            (["--links", "0.9,0.1", "0.9,0.1", "--povm", "random:x"], "malformed element count in 'random:x'"),
        ],
        ids=["non-numeric-link", "two-links-not-a-chain", "non-numeric-count"],
    )
    def test_malformed_input_is_one_usage_line(self, tmp_path, run, capsys, argv, err):
        # two links that both join A and B: two edges, but no chain
        pair = tmp_path / "pair.json"
        edge = {"u": "A", "v": "B", "schmidt": [0.5, 0.5]}
        pair.write_text(json.dumps({"dimension": 2, "terminals": ["A", "B"], "edges": [edge, edge]}))
        code, text = run("outcomes", *(str(pair) if a == "PAIR" else a for a in argv))
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err == f"qnetdet: {err}\n"

    def test_pretty_table(self, run):
        code, text = run(
            "outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell", "--pretty"
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0].startswith("probability")
        assert len(lines) == 6
        assert lines[-1].startswith("averages:")


class TestManifest:
    def test_timestamp_off_by_default(self, run):
        _, text = run("reduce", "networks/single_link.json")
        assert json.loads(text)["manifest"]["timestamp"] is None

    def test_timestamp_flag(self, run):
        _, text = run("reduce", "networks/single_link.json", "--timestamp")
        stamp = json.loads(text)["manifest"]["timestamp"]
        assert isinstance(stamp, str) and stamp.endswith("+00:00")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("qnetdet ")

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--format", "xml", "x.json"])
        assert exc.value.code == 2


class TestVerbose:
    """-v sends the package's log records to stderr and leaves the
    output bytes alone."""

    @pytest.fixture
    def stdio(self, capsys, monkeypatch, repo_root):
        monkeypatch.chdir(repo_root)

        def _run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        return _run

    def test_reduce_stdout_unchanged(self, stdio):
        code, plain, quiet = stdio("reduce", "networks/triangle.json")
        assert code == EXIT_OK and quiet == ""
        for flag in ("-v", "-vv", "--verbose"):
            code, out, _ = stdio(flag, "reduce", "networks/triangle.json")
            assert code == EXIT_OK
            assert out == plain

    def test_skip_notice_on_stderr(self, stdio):
        _, _, quiet = stdio("verify", "all", "--d", "3", "--trials", "2")
        assert "theorem_worst_case_d2" not in quiet
        code, _, err = stdio("-v", "verify", "all", "--d", "3", "--trials", "2")
        assert code == EXIT_OK
        assert "skipping theorem_worst_case_d2" in err

    def test_debug_line_per_decomposition(self, stdio):
        _, _, info = stdio("-v", "reduce", "networks/triangle.json")
        assert "decomposed" not in info
        _, _, debug = stdio("-vv", "reduce", "networks/triangle.json")
        assert debug.count("decomposed 3 edges:") == 1
        assert "dropped=0 series_moves=1 parallel_moves=1 max_bundle_arity=2" in debug
        assert "rounds" not in debug

    def test_debug_line_per_check(self, stdio):
        from qnetdet.checks import GROUPS

        argv = ("verify", "all", "--d", "3", "--trials", "2")
        code, plain, _ = stdio(*argv)
        assert code == EXIT_OK
        code, out, err = stdio("-vv", *argv)
        assert code == EXIT_OK and out == plain
        for name in GROUPS["all"]:
            assert len(re.findall(rf"\b{name}\b", err)) == 1, name
        # every check that ran logs its trials, seconds and trial rate;
        # the qubit-only check is skipped at d=3 and logs only the skip
        ran = [name for name in GROUPS["all"] if name != "theorem_worst_case_d2"]
        for name in ran:
            trials = 1 if name == "counterexample" else 2
            pattern = rf"DEBUG qnetdet\.checks: check {name}: {trials} trials in \d+\.\d{{3}} s \((\d+\.\d|inf) trials/s\)\n"
            assert re.search(pattern, err), name
        _, _, info = stdio("-v", *argv)
        assert "trials/s" not in info

    def test_logging_restored_after_run(self, stdio):
        package = logging.getLogger("qnetdet")
        handlers, level = list(package.handlers), package.level
        stdio("-vv", "reduce", "networks/bridge.json")
        assert package.handlers == handlers and package.level == level


# Imports `qnetdet.cli` and runs `cli.main(argv)` (only the import when
# argv is null) in a fresh interpreter, and prints what happened as
# JSON: the exit code, the output, the modules loaded at the end and
# those the import and the call loaded (what the interpreter's site hook
# loaded before does not count), and the package logger's state.
_FRESH = """
import contextlib, io, json, sys
before = set(sys.modules)
from qnetdet import cli
argv = json.loads(sys.argv[1])
code, out, err = None, io.StringIO(), io.StringIO()
if argv is not None:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
loaded = set(sys.modules)
import logging
package = logging.getLogger("qnetdet")
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "numpy": "numpy" in loaded, "all": sorted(loaded), "new": sorted(loaded - before),
                  "logger": [package.level, len(package.handlers)]}))
"""


def _fresh(repo_root, argv):
    paths = [str(repo_root / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, json.dumps(argv)],
        cwd=repo_root,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


# modules that a cold `reduce` at d <= 3 does not run
_NOT_FOR_REDUCE = {"dataclasses", "inspect", "logging", "datetime", "csv", "typing"}

# what argparse loads; only an argv that `cli` does not read itself needs it
_ARGPARSE = {"argparse", "gettext", "locale"}

# the plain argv of the cold-start tests, with their exit codes and the
# flag modules they may load
COLD_REDUCE = {
    "json": (["reduce", "networks/chain.json"], EXIT_OK, set()),
    "csv": (["reduce", "networks/parallel_then_series.json", "--format", "csv"], EXIT_OK, set()),
    "pretty": (["reduce", "networks/nested_qutrit.json", "--pretty"], EXIT_OK, set()),
    "verbose": (["-vv", "reduce", "networks/triangle.json"], EXIT_OK, {"logging"}),
    "bridge": (["reduce", "networks/bridge.json"], EXIT_NOT_SERIES_PARALLEL, set()),
    "info": (["-v", "reduce", "networks/triangle.json"], EXIT_OK, {"logging"}),
    "timestamp": (["reduce", "networks/chain.json", "--timestamp"], EXIT_OK, {"datetime"}),
}
COLD_NUMPY = {
    "verify": ["verify", "reverse_amgm", "--trials", "5"],
    "outcomes-bell": ["outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell"],
    "outcomes-random": ["outcomes", "networks/chain.json", "--povm", "random:6", "--seed", "5"],
}


class TestColdStart:
    """`reduce` runs without numpy, and loads a module that serves one
    flag only when that flag is given; the commands that need numpy
    load it.  No plain argv loads argparse."""

    def test_import_loads_no_numpy(self, repo_root):
        got = _fresh(repo_root, None)
        assert got["numpy"] is False
        assert not set(got["new"]) & (_NOT_FOR_REDUCE | _ARGPARSE)

    @pytest.mark.parametrize(
        "argv, code, allowed",
        [*COLD_REDUCE.values(), (["--help"], EXIT_OK, _ARGPARSE)],
        ids=[*COLD_REDUCE, "help"],
    )
    def test_reduce_loads_no_numpy(self, repo_root, argv, code, allowed):
        got = _fresh(repo_root, argv)
        assert got["code"] == code
        assert got["out"] or got["err"]
        assert got["numpy"] is False
        assert set(got["new"]) & (_NOT_FOR_REDUCE | _ARGPARSE) <= allowed
        # what argparse itself imports differs from one Python to the next
        assert allowed - {"gettext", "locale"} <= set(got["all"])

    @pytest.mark.parametrize(
        "flag, err",
        [
            ("-v", ""),
            (
                "-vv",
                "qnetdet: DEBUG qnetdet.network: decomposed 3 edges: "
                "dropped=0 series_moves=1 parallel_moves=1 max_bundle_arity=2\n",
            ),
        ],
    )
    def test_verbose_lines_from_a_cold_start(self, repo_root, flag, err):
        got = _fresh(repo_root, [flag, "reduce", "networks/triangle.json"])
        assert got["code"] == EXIT_OK
        assert got["err"] == err
        assert got["out"] == _fresh(repo_root, ["reduce", "networks/triangle.json"])["out"]

    @pytest.mark.parametrize("argv", COLD_NUMPY.values(), ids=COLD_NUMPY)
    def test_numpy_commands_still_run(self, repo_root, argv):
        got = _fresh(repo_root, argv)
        assert got["code"] == EXIT_OK, got["err"]
        assert json.loads(got["out"])["manifest"]["subcommand"] == argv[0]
        assert got["numpy"] is True
        assert not set(got["new"]) & _ARGPARSE

    def test_verify_loads_no_dataclasses(self, repo_root):
        # its config and reports are __slots__ records, as the value classes are
        got = _fresh(repo_root, ["verify", "reverse_amgm", "--trials", "5"])
        assert got["code"] == EXIT_OK, got["err"]
        assert "dataclasses" not in got["new"]


class TestBlasThreads:
    """The d >= 4 series rule runs on LAPACK; its bytes do not depend on
    how many threads BLAS may use."""

    def test_d8_chain_reduce_bytes(self, repo_root, tmp_path):
        import numpy as np

        rng = np.random.default_rng(60)
        nodes = ["A", *(f"n{i}" for i in range(1, 60)), "B"]
        doc = {
            "dimension": 8,
            "terminals": ["A", "B"],
            "edges": [
                {"u": u, "v": v, "schmidt": rng.dirichlet(np.ones(8)).tolist()} for u, v in zip(nodes, nodes[1:])
            ],
        }
        path = tmp_path / "chain_d8.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths = [str(repo_root / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "qnetdet", "reduce", str(path)],
                cwd=repo_root,
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append(proc.stdout)
        assert json.loads(outs[0])["edge_count"] == 60
        assert outs[0] == outs[1]


class TestParserReuse:
    """`main` builds no argument parser for an argv it reads itself and
    one for each argv it defers to argparse, and successive calls in one
    process change no output byte and no logger state."""

    SEQUENCE = [
        ["-vv", "reduce", "networks/triangle.json"],
        ["reduce", "networks/triangle.json"],
        ["reduce", "networks/chain.json", "--format", "csv"],
        ["reduce", "networks/chain.json"],
        ["verify", "reverse_amgm", "--trials", "5"],
        ["reduce", "networks/parallel_pair.json", "--pretty"],
        ["-v", "verify", "all", "--d", "3", "--trials", "2"],
        ["reduce", "networks/bridge.json"],
        ["outcomes", "--links", "0.9,0.1", "0.9,0.1", "--povm", "bell", "--pretty"],
    ]
    # argv that only argparse reads: an option with its value after "=",
    # and an abbreviated option
    ARGPARSE = [
        ["reduce", "networks/chain.json", "--format=csv"],
        ["reduce", "networks/triangle.json", "--pre"],
    ]

    def test_successive_calls_match_fresh_runs(self, monkeypatch, repo_root, capsys):
        monkeypatch.chdir(repo_root)
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        package = logging.getLogger("qnetdet")
        for argv in [*self.SEQUENCE, *self.ARGPARSE, *self.SEQUENCE[:2]]:
            built.clear()
            code = main(argv)
            captured = capsys.readouterr()
            fresh = _fresh(repo_root, argv)
            assert (code, captured.out, captured.err) == (fresh["code"], fresh["out"], fresh["err"]), argv
            assert [package.level, len(package.handlers)] == fresh["logger"], argv
            assert len(built) == (argv in self.ARGPARSE), argv


class TestReader:
    """`main` reads plain argv without argparse, to the namespace
    argparse would return, and defers every other argv to it."""

    def test_agrees_with_argparse_on_the_corpus(self):
        cases = _argv_cases.corpus()
        bad, answered = _argv_cases.disagreements(cases)
        assert bad == []
        # both routes are exercised
        assert 0 < answered < len(cases)

    def test_answers_the_tested_and_benchmarked_argv(self):
        plain = [
            *_argv_cases.ANSWERED,
            *(argv for argv, _, _ in COLD_REDUCE.values()),
            *COLD_NUMPY.values(),
            *TestParserReuse.SEQUENCE,
        ]
        assert [argv for argv in plain if cli._read(argv) is None] == []
        assert _argv_cases.disagreements(plain) == ([], len(plain))
        assert [argv for argv in TestParserReuse.ARGPARSE if cli._read(argv) is not None] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["--version"],
            ["reduce", "-h"],
            ["verify", "--seed", "-3"],
            ["outcomes", "--links", "-0.1,1.1", "0.5,0.5"],
            ["verify", "--", "all"],
            ["verify", "--d", "3", "all"],
        ],
    )
    def test_defers(self, argv):
        assert cli._read(argv) is None
