"""Schmidt vector container, majorization predicates and monotones."""

import math
import random

import numpy as np
import pytest
from _digests import check

from qnetdet._jsonio import render_json
from qnetdet.errors import (
    DimensionMismatch,
    EmptyEnsemble,
    EmptyInput,
    KOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    ZeroSum,
)
from qnetdet.rules import _swap_raw, conversion_probability
from qnetdet.sampling import dominated_vector, random_schmidt, substream
from qnetdet.schmidt import (
    ProbabilisticEnsemble,
    SchmidtVector,
    _concurrences,
    _unit,
    adjugate_vec,
    concurrence,
    det_vec,
    kron,
    majorizes,
    normalize_descending,
    submajorization_slack,
)

SEED = 20240811
TRIALS = 200


class TestSchmidtVector:
    def test_sorts_descending(self):
        v = SchmidtVector([0.1, 0.5, 0.4])
        assert v.entries == (0.5, 0.4, 0.1)

    def test_clamps_roundoff_negative(self):
        v = SchmidtVector([1.0 + 5e-13, -5e-13])
        assert v.entries[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(NegativeEntry):
            SchmidtVector([1.1, -0.1])

    def test_rejects_bad_total(self):
        # the package's one test of a total against 1 within 1e-12
        with pytest.raises(ValueError):
            SchmidtVector([0.5, 0.4])
        with pytest.raises(ValueError, match=r"expected 1 within 1e-12$"):
            SchmidtVector([0.5, 0.5 + 2e-12])
        assert SchmidtVector([0.5, 0.5 + 5e-13]).entries == (0.5 + 5e-13, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteEntry):
            SchmidtVector([bad, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            SchmidtVector([])

    def test_sequence_protocol(self):
        v = SchmidtVector([0.2, 0.8])
        assert len(v) == 2 and v.dimension == 2
        assert v[0] == 0.8 and list(v) == [0.8, 0.2]

    def test_immutable(self):
        v = SchmidtVector([0.2, 0.8])
        with pytest.raises(Exception):
            v.entries = (1.0, 0.0)


class TestNormalize:
    def test_normalizes_and_sorts(self):
        v = normalize_descending([3.0, 1.0])
        assert v.entries == (0.75, 0.25)

    def test_zero_sum(self):
        with pytest.raises(ZeroSum):
            normalize_descending([0.0, 0.0])

    def test_negative(self):
        with pytest.raises(NegativeEntry):
            normalize_descending([1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteEntry):
            normalize_descending([bad, 0.5])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            normalize_descending([])

    def test_single_pass_matches_constructor_route(self):
        # vectors of 1 to 81 entries over ~3 decades at a random scale,
        # some set to 0.0, -0.0 or a roundoff negative, drawn by exact
        # arithmetic; the digests were recorded where the route before the
        # single validation pass (clamp, divide, and let the constructor
        # clamp and sort once more) gave the same bits on every draw
        rng = random.Random(f"{SEED}/single_pass")
        cases = []
        for _ in range(TRIALS):
            n = rng.randint(1, 81)
            scale = rng.randint(-20, 20)
            vals = [math.ldexp(0.5 + rng.random(), scale - rng.randint(0, 10)) for _ in range(n)]
            for i in rng.sample(range(n), rng.randrange(n)):
                vals[i] = (0.0, -0.0, -1e-12 * rng.random())[rng.randrange(3)]
            if max(vals) <= 0.0:
                vals[0] = 1.0
            cases.append(vals)

        def outcome(vals):
            got = normalize_descending(vals)
            assert type(got) is SchmidtVector
            assert all(math.copysign(1.0, v) > 0.0 for v in got.entries)
            return [v.hex() for v in got.entries]

        check({"single_pass": ("7f07d157392a9787", "236fafa834376bf6")}, "single_pass", cases, outcome)


class TestUnitBound:
    """``_unit`` does not re-sum its quotients: their ``fsum`` lies within
    2u of 1 at any length, u = 2**-53 (the proof is in its docstring),
    and the constructor's 1e-12 test accepts every output."""

    U = 2.0**-53
    MAX_LEN = 200_000
    KINDS = ("scaled", "spread", "subnormal", "dominant")

    def _draws(self, kind, rng):
        if kind == "subnormal":
            yield from ([5e-324], [1e-310], [5e-324, 1e-310], [5e-324] * 7, [1e-310, 1e-310, 5e-324])
        lengths = [1, self.MAX_LEN] + [int(10 ** rng.uniform(0, math.log10(self.MAX_LEN))) for _ in range(6)]
        for n in lengths:
            if kind == "scaled":  # one magnitude per vector, 1e-300 to 1e300
                yield (rng.exponential(size=n) * 10.0 ** rng.uniform(-300, 300)).tolist()
            elif kind == "spread":  # magnitudes from 1e-300 to 1e300 in one vector
                yield (10.0 ** rng.uniform(-300, 300, size=n)).tolist()
            elif kind == "subnormal":  # 5e-324 up to ~5e-312, with 1e-310
                vals = (rng.integers(1, 2**40, size=n) * 5e-324).tolist()
                vals[0] = 1e-310
                yield vals
            else:  # one dominant entry and a 1e-17 tail
                yield [1.0] + [1e-17] * (n - 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_quotients_sum_to_one_within_4u(self, kind):
        rng = np.random.default_rng([SEED, self.KINDS.index(kind)])
        for vals in self._draws(kind, rng):
            vec = _unit(vals)
            assert abs(math.fsum(vec.entries) - 1.0) <= 4 * self.U
            assert all(a >= b for a, b in zip(vec.entries, vec.entries[1:]))
            assert math.copysign(1.0, vec.entries[-1]) > 0.0
            assert SchmidtVector(vec.entries) == vec


class TestMajorization:
    def test_top_and_bottom(self):
        top = [1.0, 0.0, 0.0]
        uni = [1 / 3] * 3
        mid = [0.5, 0.3, 0.2]
        assert majorizes(top, mid) and majorizes(mid, uni) and majorizes(top, uni)
        assert not majorizes(uni, mid) and not majorizes(mid, top)

    def test_reflexive(self):
        v = [0.4, 0.35, 0.25]
        assert majorizes(v, v)

    def test_total_mismatch_fails(self):
        assert not majorizes([0.6, 0.5], [0.6, 0.4])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes([1.0], [0.5, 0.5])

    def test_input_order_irrelevant(self):
        assert majorizes([0.2, 0.8], [0.5, 0.5])

    def test_tolerance(self):
        assert majorizes([0.5, 0.5], [0.5 + 1e-12, 0.5 - 1e-12])
        assert not majorizes([0.5, 0.5], [0.5 + 1e-6, 0.5 - 1e-6], tol=1e-9)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_transfer_steps_lower_the_order(self, trial):
        # pairwise averaging can only move down in the majorization order
        rng = substream(SEED, "maj_transfer", trial)
        d = int(rng.integers(2, 7))
        x = sorted(rng.dirichlet(np.ones(d)).tolist(), reverse=True)
        y = dominated_vector(x, int(rng.integers(1, 5)), rng)
        assert majorizes(x, y)

    def test_weak_allows_total_shortfall(self):
        assert submajorization_slack([0.3, 0.3], [0.6, 0.4]) <= 0.0
        assert submajorization_slack([0.6, 0.4], [0.3, 0.3]) > 1e-9

    def test_weak_on_negative_entries(self):
        a = [math.log(0.9), math.log(0.1)]
        b = [math.log(0.8), math.log(0.1)]
        assert submajorization_slack(b, a) <= 0.0

    def test_weak_needs_equal_lengths(self):
        # zip would drop the third prefix, which exceeds by 0.3
        for lo, hi in (([0.5, 0.4, 0.3], [0.5, 0.4]), ([0.5], [0.5, 0.5])):
            with pytest.raises(LengthMismatch, match=f"^lengths {len(lo)} and {len(hi)} differ$"):
                submajorization_slack(lo, hi)


class TestKron:
    def test_known_product(self):
        v = kron(SchmidtVector([0.9, 0.1]), SchmidtVector([0.9, 0.1]))
        assert v.entries == pytest.approx((0.81, 0.09, 0.09, 0.01), abs=1e-15)

    def test_commutes(self):
        rng = substream(SEED, "kron", 0)
        x, y = random_schmidt(3, rng), random_schmidt(4, rng)
        assert np.allclose(kron(x, y).entries, kron(y, x).entries, atol=1e-15)


class TestSymmetricAndConcurrence:
    def test_c1_identically_one(self):
        rng = substream(SEED, "c1", 0)
        for d in (2, 3, 5):
            assert concurrence(random_schmidt(d, rng), 1) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_reaches_one(self):
        for d in (2, 3, 4):
            u = SchmidtVector([1.0 / d] * d)
            for k in range(1, d + 1):
                assert concurrence(u, k) == pytest.approx(1.0, abs=1e-12)

    def test_top_order_geometric_mean(self):
        rng = substream(SEED, "geo", 0)
        for d in (2, 3, 4):
            lam = random_schmidt(d, rng)
            want = d * det_vec(lam) ** (1.0 / d)
            assert concurrence(lam, d) == pytest.approx(want, rel=1e-12)

    def test_rank_deficiency_zeroes_high_orders(self):
        v = SchmidtVector([0.5, 0.5, 0.0])
        assert concurrence(v, 2) > 0.0
        assert concurrence(v, 3) == 0.0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_all_orders_at_once_equal_each_order(self, d):
        # one esyms pass gives every C_k bit for bit as concurrence(x, k),
        # on flat, spread and cut-support vectors
        rng = substream(SEED, "all_orders", d)
        for t in range(20):
            x = 10.0 ** rng.uniform(-12.0, 0.0, size=d) if t % 2 else rng.dirichlet(np.ones(d))
            if t % 3 == 0:
                x[int(rng.integers(1, d + 1)):] = 0.0
            v = normalize_descending(x.tolist())
            assert [c.hex() for c in _concurrences(v)] == [concurrence(v, k).hex() for k in range(1, d + 1)]

    def test_qubit_value(self):
        assert concurrence(SchmidtVector([0.9, 0.1]), 2) == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize(
        "call",
        [lambda: concurrence([], 2), lambda: det_vec([]), lambda: adjugate_vec([])],
        ids=["concurrence", "det", "adjugate"],
    )
    def test_empty_input(self, call):
        with pytest.raises(EmptyInput, match="^no entries$"):
            call()

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            concurrence([0.5, 0.5], 3)
        with pytest.raises(KOutOfRange):
            concurrence([0.5, 0.5], np.int64(3))

    def test_numpy_integer_k_gives_a_plain_float(self):
        c = concurrence(SchmidtVector([0.9, 0.1]), np.int64(2))
        assert type(c) is float and c == concurrence(SchmidtVector([0.9, 0.1]), 2)
        assert render_json({"concurrence": c}) == '{"concurrence": 0.6}\n'

    @pytest.mark.parametrize(
        "k",
        [2.0, 2.5, np.float64(2.0), "2", True, np.True_],
        ids=["float", "fraction", "np-float", "str", "bool", "np-bool"],
    )
    def test_non_integer_k_names_itself(self, k):
        with pytest.raises(ValueError) as info:
            concurrence([0.5, 0.5], k)
        assert type(info.value) is ValueError
        assert str(info.value) == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_monotone_under_domination(self, trial):
        # the dominated vector is the more entangled one, every order
        rng = substream(SEED, "mono", trial)
        d = int(rng.integers(2, 6))
        x = sorted(rng.dirichlet(np.ones(d)).tolist(), reverse=True)
        y = dominated_vector(x, int(rng.integers(1, 4)), rng)
        lx, ly = SchmidtVector(x), SchmidtVector(y)
        for k in range(1, d + 1):
            assert concurrence(lx, k) <= concurrence(ly, k) + 1e-12


class TestEnsemble:
    def test_probability_total_enforced(self):
        with pytest.raises(ValueError):
            ProbabilisticEnsemble([(0.7, SchmidtVector([1.0]))])

    def test_empty_rejected(self):
        with pytest.raises(EmptyEnsemble):
            ProbabilisticEnsemble([])

    def test_members_share_a_dimension(self):
        members = [(0.5, SchmidtVector([0.9, 0.1])), (0.5, SchmidtVector([0.5, 0.3, 0.2]))]
        with pytest.raises(DimensionMismatch, match="^ensemble members must share a dimension$"):
            ProbabilisticEnsemble(members)

    def test_dimension_is_the_members(self):
        ens = ProbabilisticEnsemble([(0.5, [0.9, 0.1, 0.0]), (0.5, SchmidtVector([0.5, 0.3, 0.2]))])
        assert ens.dimension == 3


class TestVectorAlgebra:
    def test_det_and_trace(self):
        assert det_vec([0.5, 0.4, 0.1]) == pytest.approx(0.02)

    def test_adjugate_matches_det_ratio(self):
        vals = [0.5, 0.3, 0.2]
        adj = adjugate_vec(vals)
        for a, v in zip(adj, vals):
            assert a * v == pytest.approx(det_vec(vals), rel=1e-12)

    def test_adjugate_survives_zeros(self):
        adj = adjugate_vec([0.6, 0.4, 0.0])
        assert adj == pytest.approx([0.0, 0.0, 0.24])

    def test_adjugate_keeps_input_order(self):
        assert adjugate_vec([2.0, 1.0]) == pytest.approx([1.0, 2.0])


class TestReaders:
    """A reader of plain entries turns an integer past the float range,
    and a sum of infinities of both signs, into NonFiniteEntry instead of
    a bare OverflowError or ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: majorizes([10**400, 0], [0.5, 0.5]),
            lambda: conversion_probability([10**400, 0], [0.5, 0.5]),
            lambda: kron([10**400], [1.0]),
            lambda: concurrence([10**400, 1], 1),
            lambda: det_vec([10**400]),
            lambda: adjugate_vec([10**400, 1]),
            lambda: submajorization_slack([10**400], [1.0]),
            lambda: _swap_raw([10**400, 1], [1, 1]),
            lambda: majorizes([math.inf, -math.inf], [0.5, 0.5]),
            lambda: conversion_probability([0.5, 0.5], [1e308, 1e308]),
            lambda: conversion_probability([0.5, 0.5], [math.inf, -math.inf]),
        ],
        ids=[
            "majorizes-big-int",
            "conversion-big-int",
            "kron-big-int",
            "concurrence-big-int",
            "det-big-int",
            "adjugate-big-int",
            "submajorization-big-int",
            "swap-raw-big-int",
            "majorizes-both-infinities",
            "conversion-overflowing-total",
            "conversion-both-infinities",
        ],
    )
    def test_raises_non_finite_entry(self, call):
        with pytest.raises(NonFiniteEntry):
            call()
