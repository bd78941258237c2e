"""Acceptance gate: the documented numerical guarantees of the package.

Each test covers one published guarantee and prints a single
"[criterion NN] label: PASS|FAIL" line to the terminal in addition to
the usual pytest verdict.  Tolerances and runtime budgets are part of
the guarantee, not implementation details.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from qnetdet import sampling
from qnetdet.checks import CHECKS, CheckConfig, reproduce_counterexample, run_checks
from qnetdet.cli import EXIT_OK, main
from qnetdet.rules import (
    deterministic_swap_povm,
    enumerate_swap_outcomes,
    swap_rule,
    validate_povm,
)
from qnetdet.schmidt import SchmidtVector, concurrence, det_vec

SEED = 0


def _line(capsys, num, label, verdict):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {verdict}")


@contextlib.contextmanager
def _gate(capsys, num, label):
    try:
        yield
    except BaseException:
        _line(capsys, num, label, "FAIL")
        raise
    _line(capsys, num, label, "PASS")


def test_criterion_01_triangle_reference_values(capsys):
    with _gate(capsys, 1, "triangle reference values"):
        t0 = time.perf_counter()
        data = reproduce_counterexample()
        elapsed = time.perf_counter() - t0
        top = 9.0 * (25.0 + 4.0 * math.sqrt(34.0)) / 500.0
        assert data["det_vector"][0] == pytest.approx(top, abs=1e-9)
        assert data["det_value"] == pytest.approx(0.673, abs=5e-4)
        assert data["zz_value"] == pytest.approx(0.695, abs=5e-4)
        assert data["mixture"] == pytest.approx([0.819, 0.181], abs=1e-3)
        assert data["mixture_majorizes_swap"] is False
        assert elapsed < 1.0


def test_criterion_02_series_rule_value(capsys):
    with _gate(capsys, 2, "series rule on two (0.9,0.1) links"):
        out = swap_rule(SchmidtVector((0.9, 0.1)), SchmidtVector((0.9, 0.1)))
        top = (1.0 + math.sqrt(0.8704)) / 2.0
        assert out.entries[0] == pytest.approx(top, abs=1e-9)
        assert out.entries[1] == pytest.approx(1.0 - top, abs=1e-9)


def test_criterion_03_deterministic_measurement_equivalence(capsys):
    with _gate(capsys, 3, "deterministic measurement reproduces the rule"):
        t0 = time.perf_counter()
        for d in (2, 3, 4):
            povm = deterministic_swap_povm(d)
            assert validate_povm(povm)
            uniform = 1.0 / (d * d)
            for trial in range(100):
                rng = sampling.substream(SEED, f"acceptance_povm_{d}", trial)
                x = sampling.random_schmidt(d, rng)
                y = sampling.random_schmidt(d, rng)
                target = np.asarray(swap_rule(x, y).entries)
                outcomes = list(enumerate_swap_outcomes(x, y, povm))
                assert len(outcomes) == d * d
                for p, vec in outcomes:
                    assert p == pytest.approx(uniform, abs=1e-10)
                    got = np.zeros(d)
                    got[: vec.dimension] = vec.entries
                    assert np.max(np.abs(got - target)) < 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0


def test_criterion_04_top_order_multiplicativity(capsys):
    with _gate(capsys, 4, "top-order concurrence multiplicativity"):
        for d in (2, 3, 4):
            rng = sampling.substream(SEED, "acceptance_mult", d)
            worst = 0.0
            for _ in range(10_000):
                x = sampling.random_schmidt(d, rng)
                y = sampling.random_schmidt(d, rng)
                lhs = concurrence(swap_rule(x, y), d)
                rhs = concurrence(x, d) * concurrence(y, d)
                worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
            assert worst <= 1e-8


def test_criterion_05_optimality_monte_carlo(capsys):
    with _gate(capsys, 5, "optimality sweeps, a thousand samples each"):
        t0 = time.perf_counter()
        names = (
            "theorem_single_link",
            "theorem_simple_series",
            "theorem_simple_parallel",
            "theorem_parallel_then_series",
        )
        for d in (2, 3):
            cfg = CheckConfig(dimension=d, trials=1000, seed=SEED, tolerance=1e-9)
            for name in names:
                rep = CHECKS[name](cfg)
                assert rep.passed, f"{name} at d={d}: {rep.violations[:2]}"
                assert rep.violations == ()
                assert rep.trials_run == 1000
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_06_majorization_lemma_suite(capsys):
    with _gate(capsys, 6, "majorization lemma suite"):
        for d in (2, 3):
            cfg = CheckConfig(dimension=d, trials=1000, seed=SEED)
            reports = run_checks("lemmas", cfg)
            assert len(reports) == 10
            for rep in reports:
                assert rep.passed, f"{rep.name} at d={d}"
                assert rep.violations == ()
            by_name = {r.name: r for r in reports}
            assert by_name["lemma_det_preserving"].max_slack <= 1e-8
            # the extremity sweep alternates input lengths d+1 and d+2
            assert by_name["lemma_extremity"].trials_run == 1000


def test_criterion_07_mean_gap_bounds(capsys):
    with _gate(capsys, 7, "arithmetic-geometric mean gap bounds"):
        rep = CHECKS["reverse_amgm"](CheckConfig(dimension=2, trials=10_000, seed=SEED))
        assert rep.passed
        assert rep.violations == ()
        assert rep.extras["equality_trials"] > 0
        assert rep.extras["equality_max_abs_slack"] <= 1e-12


def test_criterion_08_associativity_boundary(capsys):
    with _gate(capsys, 8, "series rule associativity boundary"):
        for d in (2, 3):
            rng = sampling.substream(SEED, "acceptance_assoc", d)
            worst = 0.0
            for _ in range(1000):
                x = sampling.random_schmidt(d, rng)
                y = sampling.random_schmidt(d, rng)
                z = sampling.random_schmidt(d, rng)
                left = np.asarray(swap_rule(swap_rule(x, y), z).entries)
                right = np.asarray(swap_rule(x, swap_rule(y, z)).entries)
                worst = max(worst, float(np.max(np.abs(left - right))))
            assert worst <= 1e-9
        rng = sampling.substream(SEED, "acceptance_assoc", 4)
        found = 0.0
        for _ in range(1000):
            x = sampling.random_schmidt(4, rng)
            y = sampling.random_schmidt(4, rng)
            z = sampling.random_schmidt(4, rng)
            left = np.asarray(swap_rule(swap_rule(x, y), z).entries)
            right = np.asarray(swap_rule(x, swap_rule(y, z)).entries)
            found = max(found, float(np.max(np.abs(left - right))))
            if found > 1e-6:
                break
        assert found > 1e-6


def test_criterion_09_claim_table_boundaries(capsys):
    with _gate(capsys, 9, "claimed cells hold, unclaimed cell logged only"):
        # parallel composition is optimal at every order
        for d in (2, 3):
            rep = CHECKS["theorem_simple_parallel"](
                CheckConfig(dimension=d, trials=1000, seed=SEED)
            )
            assert rep.passed and rep.violations == ()
        # series composition claims the top order only: the recorded
        # witness beats the rule at order 2 < d, yet the check passes
        rep = CHECKS["theorem_simple_series"](
            CheckConfig(dimension=3, trials=1000, seed=SEED)
        )
        assert rep.passed and rep.violations == ()
        wit = rep.extras["low_order_witness"]
        assert wit["order"] == 2
        assert wit["gap"] > 0.1


def test_criterion_10_reproducibility(capsys, tmp_path, monkeypatch, repo_root, golden_dir):
    with _gate(capsys, 10, "byte-identical outputs and golden corpus"):
        monkeypatch.chdir(repo_root)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "all", "--trials", "30", "--seed", "1"]
        assert main([*args, "--out", str(a)]) == EXIT_OK
        assert main([*args, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        for name in (
            "single_link",
            "chain",
            "parallel_pair",
            "triangle",
            "parallel_then_series",
            "nested_qutrit",
        ):
            out = tmp_path / f"{name}.json"
            assert main(["reduce", f"networks/{name}.json", "--out", str(out)]) == EXIT_OK
            golden = (golden_dir / f"reduce_{name}.json").read_bytes()
            assert out.read_bytes() == golden
