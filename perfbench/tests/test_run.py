"""The benchmark command: metric names match BENCHMARK.json, a short run
checks its outputs, and a directory without the program is refused."""

import json
import pathlib
import shutil
import subprocess
import sys

import metrics
import workload

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_short_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= workload.MIN_OPS
    assert list(out["metrics"]) == [name for name, _ in metrics.END_TO_END]


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "reduce-bundles", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert list(out["metrics"]) == [name for name, _ in metrics.PER_LAYER]
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["rules.purify_rule.calls"] > 0 and m["network.max_bundle_arity"] >= 6


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
