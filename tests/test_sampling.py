"""Seeded samplers: determinism, constructed premises, completeness."""

import json
import math
import warnings

import _sampling_oracle as oracle
import numpy as np
import pytest

from qnetdet import checks, rules, sampling
from qnetdet.errors import DimensionTooSmall, EmptyInput, RejectionBudgetExceeded, SingularNormalizer
from qnetdet.network import reduce_series_parallel
from qnetdet.rules import Povm, validate_povm
from qnetdet.sampling import (
    dominated_vector,
    dominating_candidate,
    log_damped,
    random_network,
    random_positive,
    random_schmidt,
    sample_local_kraus,
    sample_povm,
    sample_povm_arrays,
    sample_wide_kraus,
    substream,
    tail_collapse,
)
from qnetdet.schmidt import majorizes, submajorization_slack

SEED = 20240811


class TestSubstream:
    def test_deterministic(self):
        a = substream(1, "x", 0).standard_normal(4)
        b = substream(1, "x", 0).standard_normal(4)
        assert np.array_equal(a, b)

    def test_separates_names_trials_seeds(self):
        base = substream(1, "x", 0).standard_normal(4)
        for other in (substream(1, "y", 0), substream(1, "x", 1), substream(2, "x", 0)):
            assert not np.array_equal(base, other.standard_normal(4))


class TestTrialStreams:
    """`_trial_streams` re-keys one generator per trial: each trial draws
    exactly what a new `substream(seed, name, t)` draws."""

    @staticmethod
    def _draws(rng, t):
        # a 32-bit draw first, which would return a leftover half of the
        # previous trial's draw if the re-key kept it
        out = [rng.integers(0, 2**32 - 1, size=2, dtype=np.uint32)]
        out.append(rng.standard_normal(5))
        out.append(rng.dirichlet(np.ones(2 + t % 5)))
        out.append(rng.integers(0, 1000, size=3))
        out.append(rng.uniform(0.2, 2.0, size=3))
        out.append(rng.exponential(1.0, size=1 + t % 4))
        out.append(rng.choice(7, size=2, replace=False))
        if t % 2:
            # one more 32-bit draw leaves half a 64-bit word in the state
            out.append(rng.random(dtype=np.float32))
            assert rng.bit_generator.state["has_uint32"] == 1
        return out

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("name", ["lemma_duality", "theorem_parallel_then_series", "x"])
    def test_rekeyed_draws_equal_fresh_substreams(self, seed, name):
        used = set()
        for t, rng in zip(range(50), sampling._trial_streams(seed, name)):
            used.add(id(rng))
            fresh = substream(seed, name, t)
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
            for got, want in zip(self._draws(rng, t), self._draws(fresh, t)):
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert len(used) == 1

    def test_runs_share_no_generator(self):
        a = next(sampling._trial_streams(1, "x"))
        b = next(sampling._trial_streams(1, "x"))
        assert a is not b


class TestVectors:
    def test_random_schmidt_valid(self):
        rng = substream(SEED, "rs", 0)
        for d in (2, 3, 6):
            v = random_schmidt(d, rng)
            assert v.dimension == d
            assert math.fsum(v.entries) == pytest.approx(1.0, abs=1e-12)

    def test_random_positive_bounded_away_from_zero(self):
        rng = substream(SEED, "rp", 0)
        vals = random_positive(100, rng)
        assert min(vals) > 0.0

    @pytest.mark.parametrize("trial", range(100))
    def test_dominated_vector_is_dominated(self, trial):
        rng = substream(SEED, "dom", trial)
        d = int(rng.integers(2, 8))
        x = sorted(rng.exponential(1.0, d).tolist(), reverse=True)
        y = dominated_vector(x, int(rng.integers(1, 6)), rng)
        assert majorizes(x, y)
        assert math.fsum(y) == pytest.approx(math.fsum(x), rel=1e-12)

    @pytest.mark.parametrize("trial", range(50))
    def test_log_damped_lowers_log_prefixes(self, trial):
        rng = substream(SEED, "damp", trial)
        x = sorted(rng.exponential(1.0, 5).tolist(), reverse=True)
        y = log_damped(x, rng)
        assert all(b <= a for a, b in zip(x, y))
        assert submajorization_slack(np.log(y), np.log(x)) <= 1e-9

    def test_tail_collapse(self):
        # keeps the largest entry, merges the other three into 0.6
        out = tail_collapse([0.4, 0.3, 0.2, 0.1], 2)
        assert out == pytest.approx([0.6, 0.4])
        assert math.fsum(out) == pytest.approx(1.0)
        assert out == sorted(out, reverse=True)

    @pytest.mark.parametrize(
        "values,dimension,want",
        [
            ([0.5, 0.5], 4, [0.5, 0.5, 0.0, 0.0]),
            ([0.5, 0.5], 2, [0.5, 0.5]),
            ([0.5, 0.3, 0.2], 1, [1.0]),
            ([0.2, 0.5, 0.3], 3, [0.5, 0.3, 0.2]),
            ([1.0], 3, [1.0, 0.0, 0.0]),
            ([], 2, [0.0, 0.0]),
        ],
    )
    def test_tail_collapse_has_exactly_dimension_entries(self, values, dimension, want):
        assert tail_collapse(values, dimension) == want

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_tail_collapse_below_one_entry_raises(self, dimension):
        with pytest.raises(DimensionTooSmall):
            tail_collapse([0.5, 0.3, 0.2], dimension)

    @pytest.mark.parametrize("base", [[0.7], [1], []])
    def test_dominated_vector_without_a_pair_draws_nothing(self, base):
        rng = substream(SEED, "dom1", 0)
        before = repr(rng.bit_generator.state)
        out = dominated_vector(base, 2, rng)
        assert out == [float(v) for v in base]
        assert [type(v) for v in out] == [float] * len(base)
        assert repr(rng.bit_generator.state) == before

    def test_random_schmidt_of_no_entries_is_empty_input(self):
        with pytest.raises(EmptyInput):
            random_schmidt(0, substream(SEED, "schmidt_dim", 0))

    def test_random_schmidt_negative_dimension(self):
        with pytest.raises(ValueError) as info:
            random_schmidt(-1, substream(SEED, "schmidt_dim", 0))
        assert str(info.value) == "negative dimensions are not allowed"

    @pytest.mark.parametrize("dimension", [True, 2.0, 2.5, "2"], ids=["bool", "float", "fraction", "str"])
    def test_random_schmidt_non_integer_dimension_names_itself(self, dimension):
        with pytest.raises(ValueError) as info:
            random_schmidt(dimension, substream(SEED, "schmidt_dim", 0))
        assert type(info.value) is ValueError
        assert str(info.value) == f"dimension must be an integer, got {dimension!r}"

    def test_random_schmidt_numpy_integer_dimension(self):
        x = random_schmidt(np.int64(3), substream(SEED, "schmidt_dim", 1))
        assert x == random_schmidt(3, substream(SEED, "schmidt_dim", 1))
        assert [type(v) for v in x.entries] == [float] * 3

    def test_dominating_candidate_contract(self):
        rng = substream(SEED, "domc", 0)
        values = random_schmidt(4, rng).entries
        cand, draws = dominating_candidate(values, 3, 500, rng)
        assert draws <= 500
        padded = list(cand.entries) + [0.0]
        assert majorizes(padded, values)

    def test_dominating_candidate_budget(self):
        rng = substream(SEED, "domb", 0)
        # a near-separable target leaves almost no room above it
        values = [1.0 - 3e-9, 1e-9, 1e-9, 1e-9]
        with pytest.raises(RejectionBudgetExceeded):
            dominating_candidate(values, 3, 5, rng)


class TestFlatDirichlet:
    """`sampling._flat` draws what `Generator.dirichlet` on unit alphas
    draws, bit for bit, and leaves the generator at the same position."""

    @pytest.mark.parametrize("n", [*range(1, 10), 16, 81])
    def test_bits_and_stream_position_equal_generator_dirichlet(self, n):
        for seed in range(300):
            a = np.random.default_rng([n, seed])
            b = np.random.default_rng([n, seed])
            got = sampling._flat(n, a)
            assert [type(v) for v in got] == [float] * n
            assert [v.hex() for v in got] == [v.hex() for v in oracle.dirichlet(n, b)]
            assert a.random() == b.random()

    def test_substream_draws_equal_generator_dirichlet(self):
        # the check suite's Philox substreams, not only default_rng's PCG64
        for t in range(200):
            a, b = substream(SEED, "flat", t), substream(SEED, "flat", t)
            n = 2 + t % 7
            assert [v.hex() for v in sampling._flat(n, a)] == [v.hex() for v in oracle.dirichlet(n, b)]
            assert a.random() == b.random()

    def test_no_entries(self):
        rng = np.random.default_rng(0)
        assert sampling._flat(0, rng) == []
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("d,trials,seed", [(2, 12, 0), (3, 8, 0), (4, 4, 3)])
    def test_reports_equal_those_of_generator_dirichlet(self, monkeypatch, d, trials, seed):
        cfg = checks.CheckConfig(d, trials, seed)

        def rendered():
            return [json.dumps(r.to_dict(), sort_keys=True) for r in checks.run_checks("all", cfg)]

        shipped = rendered()
        monkeypatch.setattr(sampling, "_flat", oracle.dirichlet)
        retired = rendered()
        assert len(shipped) == len(checks.CHECKS)
        assert shipped == retired


class TestMeasurements:
    @pytest.mark.parametrize("d,count", [(2, 4), (2, 7), (3, 9), (4, 16)])
    def test_povm_arrays_complete(self, d, count):
        rng = substream(SEED, "povm", d * 100 + count)
        els = sample_povm_arrays(d, count, rng)
        assert els.shape == (count, d, d)
        vecs = els.reshape(count, d * d)
        gram = vecs.conj().T @ vecs
        assert np.allclose(gram, np.eye(d * d), atol=1e-10)

    def test_povm_wrapper_validates(self):
        rng = substream(SEED, "povmw", 0)
        povm = sample_povm(2, 5, rng)
        assert validate_povm(povm)

    def test_povm_wrapper_holds_sampled_array(self):
        povm = sample_povm(3, 11, substream(SEED, "povmw", 1))
        els = sample_povm_arrays(3, 11, substream(SEED, "povmw", 1))
        assert np.array_equal(povm.elements, els)

    def test_undersized_povm_rejected(self):
        rng = substream(SEED, "povmu", 0)
        with pytest.raises(SingularNormalizer):
            sample_povm_arrays(2, 3, rng)

    @pytest.mark.parametrize("count", [-3, 0, 1, 8])
    def test_undersized_povm_rejected_before_drawing(self, count):
        rng = substream(SEED, "povmu", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNormalizer):
                sample_povm_arrays(3, count, rng)
        assert rng.random() == substream(SEED, "povmu", 1).random()

    def test_povm_wrapper_redraws_an_incomplete_draw(self, monkeypatch):
        # the first d = 8 draw of this stream misses completeness by more
        # than validate_povm's tolerance; it is rejected and the second
        # draw is returned.  The sampler tests each draw's stacked
        # elements with validate_povm's own test, rules._isometric
        seen = []

        def spy(stack):
            seen.append((stack.copy(), rules._isometric(stack)))
            return seen[-1][1]

        monkeypatch.setattr(sampling, "_isometric", spy)
        els = sample_povm_arrays(8, 64, substream(31, "outcomes", 0))
        assert [ok for _, ok in seen] == [False, True]
        assert [validate_povm(Povm(stack.reshape(64, 8, 8))) for stack, _ in seen] == [False, True]
        assert np.array_equal(els.reshape(64, 64), seen[1][0])
        monkeypatch.undo()
        povm = sample_povm(8, 64, substream(31, "outcomes", 0))
        assert validate_povm(povm) and np.array_equal(povm.elements, els)

    @pytest.mark.parametrize("d,count", [(2, 1), (2, 3), (3, 2), (4, 4)])
    def test_local_kraus_complete(self, d, count):
        rng = substream(SEED, "kraus", d * 10 + count)
        ks = sample_local_kraus(d, count, rng)
        total = sum(k.conj().T @ k for k in ks)
        assert np.allclose(total, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d,count", [(2, 2), (2, 5), (3, 3)])
    def test_wide_kraus_complete(self, d, count):
        rng = substream(SEED, "wide", d * 10 + count)
        ks = sample_wide_kraus(d, count, rng)
        assert ks.shape == (count, d, d * d)
        total = sum(k.conj().T @ k for k in ks)
        assert np.allclose(total, np.eye(d * d), atol=1e-12)


def _mezzadri_q(stack):
    # Q of the QR decomposition whose R has a positive real diagonal
    q, r = np.linalg.qr(stack)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


class TestWhitening:
    """Each sampler returns the Q factor of its complex-Gaussian draw,
    stacked as one matrix, whose R factor has a positive diagonal."""

    @pytest.mark.parametrize("d,count", [(2, 4), (2, 7), (3, 9), (3, 81), (4, 16), (9, 81)])
    def test_povm_is_positive_diagonal_qr(self, d, count):
        raw = sampling._complex_gaussian((count, d * d), substream(SEED, "qr", count))
        els = sample_povm_arrays(d, count, substream(SEED, "qr", count))
        want = _mezzadri_q(raw).reshape(count, d, d)
        assert np.max(np.abs(els - want)) <= 1e-12

    @pytest.mark.parametrize("d,count", [(2, 1), (2, 3), (3, 2), (4, 4)])
    def test_local_kraus_is_positive_diagonal_qr(self, d, count):
        raw = sampling._complex_gaussian((count, d, d), substream(SEED, "qrk", count))
        ks = sample_local_kraus(d, count, substream(SEED, "qrk", count))
        want = _mezzadri_q(raw.reshape(count * d, d)).reshape(count, d, d)
        assert np.max(np.abs(ks - want)) <= 1e-12

    @pytest.mark.parametrize("d,count", [(2, 2), (2, 5), (3, 3), (3, 4)])
    def test_wide_kraus_is_positive_diagonal_qr(self, d, count):
        raw = sampling._complex_gaussian((count, d, d * d), substream(SEED, "qrw", count))
        ks = sample_wide_kraus(d, count, substream(SEED, "qrw", count))
        want = _mezzadri_q(raw.reshape(count * d, d * d)).reshape(count, d, d * d)
        assert np.max(np.abs(ks - want)) <= 1e-12

    @pytest.mark.parametrize(
        "stack",
        [
            np.ones((4, 2), dtype=complex),
            np.zeros((3, 3), dtype=complex),
            np.arange(12.0).reshape(4, 3) + 0j,
            np.ones((2, 4), dtype=complex),
        ],
        ids=["equal_columns", "zero", "rank_two", "short"],
    )
    def test_rank_deficient_stack_gives_none(self, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampling._orthonormalized(stack) is None

    def test_ill_conditioned_stack_gives_none(self):
        # two columns 1e-7 apart: the Gram matrix has a Cholesky factor,
        # whose squared diagonal spans more than the condition floor
        rng = substream(SEED, "cond_floor", 0)
        stack = sampling._complex_gaussian((9, 3), rng)
        stack[:, 2] = stack[:, 1] + 1e-7 * sampling._complex_gaussian(9, rng)
        diag = np.linalg.cholesky(stack.conj().T @ stack).diagonal().real
        assert diag.min() ** 2 < sampling._COND_FLOOR * diag.max() ** 2
        assert sampling._orthonormalized(stack) is None


class TestKrausRedraw:
    """The three samplers share one draw-and-accept loop: a draw the
    completeness check rejects is followed by the stream's next one."""

    @pytest.mark.parametrize(
        "sampler,shape,width",
        [
            (sample_local_kraus, (3, 2, 2), 2),
            (sample_wide_kraus, (3, 2, 4), 4),
            (sample_povm_arrays, (4, 2, 2), 4),
        ],
        ids=["local", "wide", "povm"],
    )
    def test_rejected_draw_is_drawn_again(self, monkeypatch, sampler, shape, width):
        # the completeness check rejects the first draw; the second is
        # returned, as the next draw of the same stream
        seen = []

        def reject_first(stack):
            seen.append(stack.copy())
            return len(seen) > 1

        monkeypatch.setattr(sampling, "_isometric", reject_first)
        ks = sampler(shape[1], shape[0], substream(SEED, "redraw", 0))
        assert ks.shape == shape
        assert len(seen) == 2
        assert np.array_equal(ks.reshape(-1, width), seen[1])
        rng = substream(SEED, "redraw", 0)
        _, second = (sampling._complex_gaussian(shape, rng) for _ in range(2))
        assert np.max(np.abs(ks - _mezzadri_q(second.reshape(-1, width)).reshape(shape))) <= 1e-12

    @pytest.mark.parametrize(
        "sampler,count",
        [(sample_local_kraus, 3), (sample_wide_kraus, 3), (sample_povm_arrays, 4)],
        ids=["sample_local_kraus", "sample_wide_kraus", "sample_povm_arrays"],
    )
    def test_never_complete_exhausts_the_budget(self, monkeypatch, sampler, count):
        calls = []
        monkeypatch.setattr(sampling, "_isometric", lambda stack: calls.append(1) and False)
        with pytest.raises(SingularNormalizer, match="draws"):
            sampler(2, count, substream(SEED, "redraw", 1))
        assert len(calls) == sampling.RESAMPLE_BUDGET

    def test_no_local_kraus_operators_is_no_measurement(self):
        with pytest.raises(SingularNormalizer):
            sample_local_kraus(2, 0, substream(SEED, "redraw", 3))

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_undersized_wide_kraus_rejected_before_drawing(self, count):
        rng = substream(SEED, "redraw", 2)
        with pytest.raises(SingularNormalizer, match="cannot complete"):
            sample_wide_kraus(3, count, rng)
        assert rng.random() == substream(SEED, "redraw", 2).random()


class TestNetworks:
    @pytest.mark.parametrize("trial", range(30))
    def test_random_network_always_reducible(self, trial):
        rng = substream(SEED, "net", trial)
        d = int(rng.integers(2, 4))
        net = random_network(d, 6, rng)
        assert 1 <= len(net.edges) <= 6
        assert net.terminals == ("A", "B")
        vec, _ = reduce_series_parallel(net)
        assert vec.dimension == d
