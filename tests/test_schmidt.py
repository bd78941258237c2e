"""Schmidt vector container, majorization predicates and monotones."""

import math

import numpy as np
import pytest
import _reduce_path_oracle as oracle

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
        with pytest.raises(ValueError):
            SchmidtVector([0.5, 0.4])

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
        # the route before the single validation pass: clamp, divide, and
        # let the SchmidtVector constructor clamp and sort once more
        def two_pass(values):
            clamped = oracle._clamped([float(v) for v in values])
            total = math.fsum(clamped)
            return SchmidtVector(v / total for v in clamped)

        rng = np.random.default_rng(SEED)
        for t in range(TRIALS):
            n = int(rng.integers(1, 82))
            vals = (rng.exponential(size=n) * 10.0 ** rng.uniform(-6, 6)).tolist()
            for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False):
                kind = int(rng.integers(0, 3))
                vals[i] = (0.0, -0.0, -float(rng.uniform(0.0, 1e-12)))[kind]
            if max(vals) <= 0.0:
                vals[0] = 1.0
            got = normalize_descending(vals)
            want = two_pass(vals)
            assert type(got) is SchmidtVector
            assert [v.hex() for v in got.entries] == [v.hex() for v in want.entries]
            assert got == want and hash(got) == hash(want)
            assert all(math.copysign(1.0, v) > 0.0 for v in got.entries)


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

    def test_qubit_value(self):
        assert concurrence(SchmidtVector([0.9, 0.1]), 2) == pytest.approx(0.6, abs=1e-12)

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
