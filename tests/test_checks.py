"""Verification suite plumbing: configs, reports, determinism, and the
pass/fail behavior of every registered check."""

import json
import math

import numpy as np
import pytest

from qnetdet import checks, cli
from qnetdet._jsonio import render_json
from qnetdet.checks import (
    CHECKS,
    GROUPS,
    CheckConfig,
    CheckReport,
    reproduce_counterexample,
    run_checks,
)
from qnetdet.errors import DimensionNotTwo, DimensionTooLarge, DimensionTooSmall
from qnetdet.network import Edge
from qnetdet.rules import _swap_raw
from qnetdet.schmidt import SchmidtVector, majorization_slack

FAST = CheckConfig(dimension=2, trials=25, seed=3)


class TestConfig:
    def test_defaults(self):
        cfg = CheckConfig()
        assert cfg.dimension == 2 and cfg.trials == 1000 and cfg.seed == 0
        assert cfg.tolerance == 1e-9 and cfg.povm_size is None

    def test_resolved_povm_size(self):
        assert CheckConfig(dimension=3).resolved_povm_size == 9
        assert CheckConfig(dimension=3, povm_size=12).resolved_povm_size == 12

    def test_dimension_bounds(self):
        with pytest.raises(DimensionTooSmall):
            CheckConfig(dimension=1)
        with pytest.raises(DimensionTooLarge):
            CheckConfig(dimension=9)

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            CheckConfig(trials=0)
        with pytest.raises(ValueError):
            CheckConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            CheckConfig(povm_size=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            CheckConfig().trials = 5

    @pytest.mark.parametrize("field", ["dimension", "trials", "seed", "povm_size"])
    @pytest.mark.parametrize(
        "value",
        [3.0, 2.5, np.float64(3.0), "3", True, np.True_],
        ids=["float", "fraction", "np-float", "str", "bool", "np-bool"],
    )
    def test_non_integer_field_names_itself(self, field, value):
        # a plain ValueError naming the field, never a TypeError from
        # deep in a check, nor a float taken as it is
        with pytest.raises(ValueError) as info:
            CheckConfig(**{field: value})
        assert type(info.value) is ValueError
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_stored_as_int(self):
        cfg = CheckConfig(dimension=np.int64(3), trials=np.int32(2), seed=np.uint8(7), povm_size=np.int16(12))
        fields = ("dimension", "trials", "seed", "povm_size")
        assert [(type(getattr(cfg, f)), getattr(cfg, f)) for f in fields] == [(int, 3), (int, 2), (int, 7), (int, 12)]
        assert [r.trials_run for r in run_checks("lemma_det_preserving", cfg)] == [2]
        # the verify manifest renders the config as it is stored
        assert render_json({f: getattr(cfg, f) for f in cfg.__slots__}).startswith('{"dimension": 3, ')

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "tolerance must be a number, got True"),
            (np.True_, "tolerance must be a number, got np.True_"),
            ("1e-9", "tolerance must be a number, got '1e-9'"),
            (None, "tolerance must be a number, got None"),
            (math.inf, "tolerance must be finite"),
            (np.float64(math.inf), "tolerance must be finite"),
            (10**400, "tolerance must be finite"),
            (math.nan, "tolerance must be positive"),
            (-math.inf, "tolerance must be positive"),
            (0, "tolerance must be positive"),
        ],
        ids=["bool", "np-bool", "str", "none", "inf", "np-inf", "big-int", "nan", "minus-inf", "zero"],
    )
    def test_tolerance_must_be_a_finite_positive_number(self, value, message):
        # a plain ValueError, never a TypeError, and never a value that
        # the manifest cannot render after every check has run
        with pytest.raises(ValueError) as info:
            CheckConfig(tolerance=value)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.float64(1e-9), np.float32(0.5), 1], ids=["np-float64", "np-float32", "int"])
    def test_tolerance_stored_as_float(self, value):
        cfg = CheckConfig(tolerance=value)
        assert type(cfg.tolerance) is float and cfg.tolerance == float(value)
        assert render_json({f: getattr(cfg, f) for f in cfg.__slots__}).startswith('{"dimension": 2, ')

    def test_range_errors_keep_their_classes(self):
        with pytest.raises(DimensionTooSmall):
            CheckConfig(dimension=np.int64(1))
        with pytest.raises(DimensionTooLarge):
            CheckConfig(dimension=np.int64(9))
        for field in ("trials", "povm_size"):
            with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
                CheckConfig(**{field: np.int64(0)})


LEMMAS = (
    "lemma_convexity_swap",
    "lemma_det_preserving",
    "lemma_duality",
    "lemma_extremity",
    "lemma_convexity_purify",
    "lemma_sum_product",
    "isotone_maps",
    "prefix_power",
    "lemma_parallel_fold",
    "reduction_invariance",
)
THEOREMS = (
    "theorem_single_link",
    "theorem_simple_series",
    "theorem_simple_parallel",
    "theorem_parallel_then_series",
    "theorem_worst_case_d2",
)


class TestRegistry:
    def test_groups_cover_all_checks(self):
        grouped = set(GROUPS["all"])
        assert grouped == set(CHECKS)
        assert len(GROUPS["all"]) == len(CHECKS) == 17

    def test_group_contents(self):
        # registration order is report order: a check registered out of
        # place changes the bytes of `verify all`
        assert list(GROUPS.items()) == [
            ("lemmas", LEMMAS),
            ("amgm", ("reverse_amgm",)),
            ("theorems", THEOREMS),
            ("counterexample", ("counterexample",)),
            ("all", LEMMAS + ("reverse_amgm",) + THEOREMS + ("counterexample",)),
        ]
        assert list(CHECKS) == list(GROUPS["all"])

    def test_only_worst_case_has_a_precondition(self):
        cfg = CheckConfig(dimension=3, trials=1)
        unmet = {name for name in CHECKS if checks._unmet(name, cfg)}
        assert unmet == {"theorem_worst_case_d2"}
        assert checks._unmet("theorem_worst_case_d2", CheckConfig(dimension=2)) is None

    def test_registered_callable_raises_at_other_dimension(self):
        with pytest.raises(DimensionNotTwo, match="configured dimension 3"):
            CHECKS["theorem_worst_case_d2"](CheckConfig(dimension=3, trials=1))

    def test_unknown_selector(self):
        with pytest.raises(KeyError):
            run_checks("nonexistent", FAST)


@pytest.mark.parametrize("name", sorted(CHECKS))
@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_every_check_passes(name, dimension):
    cfg = CheckConfig(dimension=dimension, trials=25, seed=3)
    why = checks._unmet(name, cfg)
    if why:
        pytest.skip(why)
    rep = CHECKS[name](cfg)
    assert rep.passed
    assert rep.violations == ()
    assert rep.name == name
    # randomized checks sit at the floating-point floor; the fixed-instance
    # check compares against rounded reference values
    assert rep.max_slack < (1e-3 if name == "counterexample" else 1e-6)


class TestReportContract:
    def test_to_dict_keys(self):
        rep = CHECKS["lemma_det_preserving"](FAST)
        doc = rep.to_dict()
        assert list(doc)[:5] == ["name", "trials_run", "passed", "max_slack", "violations"]

    def test_passed_iff_no_violations(self):
        good = CHECKS["lemma_det_preserving"](FAST)
        assert good.passed and not good.violations
        bad = CHECKS["lemma_det_preserving"](
            CheckConfig(dimension=2, trials=25, seed=3, tolerance=1e-18)
        )
        assert not bad.passed and bad.violations

    def test_violation_payload_replayable(self):
        cfg = CheckConfig(dimension=2, trials=25, seed=3, tolerance=1e-18)
        a = CHECKS["lemma_det_preserving"](cfg)
        b = CHECKS["lemma_det_preserving"](cfg)
        assert a.to_dict() == b.to_dict()
        v = a.violations[0]
        assert {"trial", "x", "y", "lhs", "rhs"} <= set(v)

    def test_violation_cap_keeps_total(self):
        cfg = CheckConfig(dimension=2, trials=60, seed=3, tolerance=1e-18)
        rep = CHECKS["lemma_det_preserving"](cfg)
        assert len(rep.violations) == 25
        assert rep.extras["violations_truncated_from"] > 25

    def test_determinism_across_runs(self):
        cfg = CheckConfig(dimension=2, trials=40, seed=11)
        for name in ("lemma_convexity_swap", "reverse_amgm", "theorem_simple_series"):
            assert CHECKS[name](cfg).to_dict() == CHECKS[name](cfg).to_dict()

    def test_seed_changes_slack(self):
        a = CHECKS["lemma_det_preserving"](CheckConfig(trials=40, seed=1))
        b = CHECKS["lemma_det_preserving"](CheckConfig(trials=40, seed=2))
        assert a.max_slack != b.max_slack


class TestPlain:
    """`_plain` makes every value of a violation record or the extras
    JSON-ready: one row per kind of value, with the exact result types."""

    LINK = SchmidtVector([0.75, 0.25])

    @pytest.mark.parametrize(
        "value, want",
        [
            (LINK, [0.75, 0.25]),
            (Edge("A", "B", LINK), ["A", "B", [0.75, 0.25]]),
            ([1, 0.5, "a"], [1, 0.5, "a"]),
            ((np.float64(0.5), 2), [0.5, 2]),
            (np.array([0.25, 0.5]), [0.25, 0.5]),
            (np.array([[1.0], [2.0]]), [[1.0], [2.0]]),
            ({"k": (0.5,), "n": None}, {"k": [0.5], "n": None}),
            ("text", "text"),
            (True, True),
            (7, 7),
            (None, None),
            (0.125, 0.125),
            (np.float64(0.125), 0.125),
            (np.int64(3), 3.0),
            (np.bool_(True), 1.0),
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (np.float64(-math.inf), "-inf"),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_converts(self, value, want):
        got = checks._plain(value)
        assert got == want and repr(got) == repr(want)

        def types(v):
            if isinstance(v, list):
                return [types(x) for x in v]
            if isinstance(v, dict):
                return {k: types(x) for k, x in v.items()}
            return type(v)

        assert types(got) == types(want)


class TestNanSlack:
    def test_nan_is_a_violation_that_keeps_the_maximum(self):
        acc = checks._Acc(1e-9)
        acc.trial = 4
        acc.slack(-0.5)
        acc.slack(math.nan, lhs=math.nan, rhs=[1.0, math.inf])
        rep = acc.report("nan", 5)
        assert not rep.passed and rep.max_slack == -0.5
        assert rep.violations == ({"trial": 4, "lhs": "nan", "rhs": [1.0, "inf"]},)

    def test_verify_reports_a_nan_check_as_failed(self, monkeypatch, tmp_path):
        # every determinant NaN makes every lemma_det_preserving slack NaN
        monkeypatch.setattr(checks, "det_vec", lambda v: math.nan)
        out = tmp_path / "verify.json"
        argv = ["verify", "lemma_det_preserving", "--trials", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VIOLATIONS
        (rep,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
        assert rep["passed"] is False and rep["max_slack"] == 0
        assert [v["trial"] for v in rep["violations"]] == [0, 1, 2]
        assert all(v["lhs"] == v["rhs"] == "nan" for v in rep["violations"])


class TestMixingSlack:
    """The one mixing comparison behind both convexity lemmas."""

    def test_violation_record_keys_in_order(self):
        # a rule that flattens each input but peaks the mixture breaks
        # the claim: the mix of maps [1, 1] does not majorize [2, 0]
        def rule(x):
            return [sum(x), 0.0] if x[0] == x[1] else [sum(x) / 2] * 2

        acc = checks._Acc(1e-9)
        acc.trial = 3
        xs = [[0.75, 0.25], [0.25, 0.75]]
        checks._mixing_slack(acc, rule, xs, [1.0, 1.0], 2, z=[0.5, 0.5])
        rep = acc.report("mix", 4)
        assert not rep.passed
        assert rep.max_slack == majorization_slack([1.0, 1.0], [2.0, 0.0]) > 0
        (v,) = rep.violations
        assert list(v) == ["trial", "weights", "inputs", "z", "mix_of_maps", "map_of_mix"]
        assert v == {
            "trial": 3,
            "weights": [1.0, 1.0],
            "inputs": xs,
            "z": [0.5, 0.5],
            "mix_of_maps": [1.0, 1.0],
            "map_of_mix": [2.0, 0.0],
        }


class TestGroupRuns:
    def test_all_order_and_names(self):
        reports = run_checks("all", FAST)
        assert [r.name for r in reports] == list(GROUPS["all"])

    def test_worst_case_skipped_at_higher_dimension(self):
        reports = run_checks("theorems", CheckConfig(dimension=3, trials=10, seed=3))
        by_name = {r.name: r for r in reports}
        skipped = by_name["theorem_worst_case_d2"]
        assert skipped.passed and skipped.trials_run == 0
        assert "skipped" in skipped.extras
        assert all(r.passed for r in reports)

    def test_direct_call_raises_at_higher_dimension(self):
        with pytest.raises(DimensionNotTwo):
            run_checks("theorem_worst_case_d2", CheckConfig(dimension=3, trials=10))

    def test_single_check_selector(self):
        reports = run_checks("reverse_amgm", FAST)
        assert len(reports) == 1 and reports[0].name == "reverse_amgm"


class TestEqualityTracking:
    def test_amgm_equality_cases_at_float_floor(self):
        rep = CHECKS["reverse_amgm"](CheckConfig(trials=200, seed=5))
        assert rep.extras["equality_trials"] > 0
        assert rep.extras["equality_max_abs_slack"] <= 1e-12

    def test_series_deterministic_equality_gap(self):
        rep = CHECKS["theorem_simple_series"](CheckConfig(trials=30, seed=5))
        assert rep.extras["deterministic_equality_gap"] <= 1e-10

    def test_series_low_order_witness_logged_not_asserted(self):
        rep = CHECKS["theorem_simple_series"](
            CheckConfig(dimension=3, trials=20, seed=5)
        )
        wit = rep.extras["low_order_witness"]
        # the order-2 average beats the rule value, yet the check passes:
        # only the top order is claimed
        assert wit["order"] == 2
        assert wit["ensemble_average"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert wit["rule_value"] == pytest.approx(0.75, abs=1e-12)
        assert wit["gap"] > 0.11
        assert rep.passed

    def test_nested_demo_below_rule(self):
        rep = CHECKS["theorem_parallel_then_series"](CheckConfig(trials=10, seed=5))
        demo = rep.extras["nested_qubit_demo"]
        assert demo["rule_value"] == pytest.approx(0.6156, abs=1e-12)
        assert demo["nested_average"] == pytest.approx(0.5344277544238201, abs=1e-12)
        assert demo["nested_average"] < demo["rule_value"]


class TestSwapIsotoneBoundary:
    """From d = 4 on, the swap map is not isotone: x majorizing y does not
    make swap(x, z) majorize swap(y, z).  The triple is trial 5 of
    `verify all --d 4 --trials 20 --seed 3`; a 50-digit recomputation
    gives the same slack, 1.0920361e-4, where the series rule at d = 4 is
    accurate to ~1e-15 relative."""

    X = (3.950038918939517, 0.5342529452869308, 0.3612280790453193, 0.34067587250156656)
    Y = (3.950038918939517, 0.5342529452869308, 0.35837290611842787, 0.34353104542845797)
    Z = (0.4163925493275153, 0.5099796351323035, 0.5077443492274303, 0.20838258606125437)

    def test_counterexample_is_not_roundoff(self):
        assert majorization_slack(self.X, self.Y) <= 1e-15
        slack = majorization_slack(_swap_raw(self.X, self.Z), _swap_raw(self.Y, self.Z))
        assert slack == pytest.approx(1.0920361e-4, rel=1e-6)

    def test_recorded_not_asserted_from_d4(self):
        rep = CHECKS["isotone_maps"](CheckConfig(dimension=4, trials=20, seed=3))
        assert rep.passed and rep.max_slack < 1e-12
        assert rep.extras["swap_max_slack"] == pytest.approx(1.29432398874e-3, rel=1e-9)
        assert rep.extras["swap_worst_trial"] == 19

    @pytest.mark.parametrize("d, asserted", [(2, True), (3, True), (4, False), (5, False)])
    def test_swap_part_asserted_through_d3(self, monkeypatch, d, asserted):
        # a stand-in swap map that loses mass is never isotone: it fails
        # the check exactly where the swap part is asserted
        monkeypatch.setattr(checks, "_swap_raw", lambda a, b: [math.sqrt(v) for v in a])
        rep = CHECKS["isotone_maps"](CheckConfig(dimension=d, trials=10, seed=3))
        assert rep.passed is not asserted
        assert ("swap_max_slack" in rep.extras) is not asserted


class TestCounterexample:
    def test_reference_values(self):
        data = reproduce_counterexample()
        top = 9.0 * (25.0 + 4.0 * math.sqrt(34.0)) / 500.0
        assert data["det_vector"][0] == pytest.approx(top, abs=1e-9)
        assert data["det_value"] == pytest.approx(0.673, abs=5e-4)
        assert data["zz_value"] == pytest.approx(0.695, abs=5e-4)
        assert data["mixture"] == pytest.approx([0.819, 0.181], abs=1e-3)
        assert data["swap_vector"] == pytest.approx([0.966, 0.034], abs=5e-4)
        assert data["mixture_majorizes_swap"] is False
        assert data["zz_value"] > data["det_value"]
        assert data["worst_case_value"] <= data["det_value"]

    def test_check_wrapper_passes(self):
        rep = CHECKS["counterexample"](FAST)
        assert rep.passed and rep.trials_run == 1
        assert rep.extras["det_value"] == pytest.approx(0.673, abs=5e-4)


@pytest.mark.slow
@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_series_check_thousand_trials(dimension):
    # documented contract: zero violations at a thousand trials
    rep = CHECKS["theorem_simple_series"](
        CheckConfig(dimension=dimension, trials=1000, seed=0)
    )
    assert rep.passed and rep.trials_run == 1000
