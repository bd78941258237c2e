"""The one outcome route, `rules._outcome_spectra`, behind both
`enumerate_swap_outcomes` and the Monte Carlo checks: the same
ensembles, bit for bit, as the per-operator numpy helper it replaced,
and within 1e-14 of the pure-Python per-element loop that
`enumerate_swap_outcomes` ran before (both kept in _outcomes_oracle.py),
from one stacked SVD per measurement."""

import json

import numpy as np
import pytest
from _outcomes_oracle import _numpy_outcomes as oracle_outcomes
from _outcomes_oracle import per_element_outcomes

from qnetdet import checks, sampling
from qnetdet.backend import kernels
from qnetdet.checks import CheckConfig, _product_measurement
from qnetdet.rules import Povm, _outcome_spectra, bell_povm_d2, deterministic_swap_povm, enumerate_swap_outcomes
from qnetdet.schmidt import SchmidtVector, kron, normalize_descending

DRAWS = 12


def _rng(label, t):
    return sampling.substream(20261018, label, t)


def _assert_same(got, want):
    assert len(got) == len(want)
    for (p, spec), (q, ref) in zip(got, want):
        assert type(p) is float and p.hex() == q.hex()
        assert spec.dtype == ref.dtype and spec.shape == ref.shape
        assert spec.tobytes() == ref.tobytes()


def _pairs(ensemble):
    """The (probability, spectrum) pairs of `_outcome_spectra`'s
    (probabilities, spectra): a list of floats and one 2-D float array
    with a row per probability."""
    probs, spectra = ensemble
    assert type(probs) is list
    assert spectra.ndim == 2 and spectra.dtype == float and len(spectra) == len(probs)
    # LAPACK returns each matrix's singular values descending, and the
    # route takes them as they come
    assert (np.diff(spectra, axis=-1) <= 0.0).all()
    return list(zip(probs, spectra))


def _stacked(pairs):
    """The oracle's pairs in `_outcome_spectra`'s shape."""
    return [p for p, _ in pairs], np.array([spec for _, spec in pairs])


def _both(x, y, elements):
    got = _pairs(_outcome_spectra(x, y, elements))
    _assert_same(got, oracle_outcomes(x, y, elements))
    return got


def _link(d, rng):
    return sampling.random_schmidt(d, rng).entries


def _unit(d, i, j, scale=1.0):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = scale
    return m


class TestDifferential:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_strided_swap_measurements(self, d):
        for t in range(DRAWS):
            rng = _rng(f"swap{d}", t)
            x, y = _link(d, rng), _link(d, rng)
            els = sampling.sample_povm_arrays(d, d * d, rng)
            # the sampler's stack is strided, the case where vdot can round
            # differently over a non-contiguous row
            assert not els.flags.c_contiguous
            assert len(_both(x, y, els)) == d * d

    @pytest.mark.parametrize("d", [2, 3])
    def test_joint_measurements_with_d4_elements(self, d):
        for t in range(DRAWS // 2):
            rng = _rng(f"joint{d}", t)
            left = kron(sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng))
            right = kron(sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng))
            els = sampling.sample_povm_arrays(d * d, d**4, rng)
            _both(left.entries, right.entries, els)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nested_product_measurement(self, d):
        for t in range(DRAWS // 2):
            rng = _rng(f"nested{d}", t)
            left = kron(sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng))
            right = kron(sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng))
            ys = sampling.sample_povm_arrays(d, d * d, rng)
            zs = sampling.sample_povm_arrays(d, d * d, rng)
            _both(left.entries, right.entries, _product_measurement(ys, zs))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_local_kraus(self, d):
        for t in range(DRAWS):
            rng = _rng(f"local{d}", t)
            lam = _link(d, rng)
            kraus = sampling.sample_local_kraus(d, 1 + t % 4, rng)
            _both(np.ones(kraus.shape[1]), lam, kraus)

    @pytest.mark.parametrize("d", [2, 3])
    def test_wide_kraus(self, d):
        for t in range(DRAWS):
            rng = _rng(f"wide{d}", t)
            joint = kron(sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng))
            kraus = sampling.sample_wide_kraus(d, d + t % 3, rng)
            assert kraus.shape[1:] == (d, d * d)
            _both(np.ones(kraus.shape[1]), joint.entries, kraus)

    @pytest.mark.parametrize("d", [3, 4])
    def test_list_of_arrays(self, d):
        # the low-order witness's shape of input: a list of separate
        # arrays, several of them supported where the link vanishes
        link = [0.5, 0.5] + [0.0] * (d - 2)
        els = [_unit(d, i, j) for i in range(d) for j in range(d)]
        got = _both(link, link, els)
        assert len(got) == 4
        rng = _rng(f"list{d}", 0)
        views = list(sampling.sample_povm_arrays(d, d * d, rng))
        _both(_link(d, rng), _link(d, rng), views)

    def test_elements_below_the_floor_are_dropped(self):
        rng = _rng("floor", 0)
        els = sampling.sample_povm_arrays(3, 9, rng).copy()
        els[2] *= 1e-8
        els[5] *= 1e-9
        x, y = _link(3, rng), _link(3, rng)
        got = _both(x, y, els)
        assert len(got) == 7

    def test_every_element_below_the_floor(self):
        x = y = [1.0, 0.0]
        els = np.array([_unit(2, 1, 1), _unit(2, 0, 1), _unit(2, 1, 0), _unit(2, 0, 0, 1e-8)])
        assert _both(x, y, els) == []

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fixed_measurements(self, d):
        # the deterministic and Bell measurements, whose elements are
        # C-contiguous, on random and on rank-cut links
        povms = [deterministic_swap_povm(d)] + ([bell_povm_d2()] if d == 2 else [])
        for t in range(DRAWS):
            rng = _rng(f"fixed{d}", t)
            x, y = _link(d, rng), _link(d, rng)
            if t % 3 == 1:
                x = (*x[:-1], 0.0)
            for povm in povms:
                _both(x, y, povm.elements)


def test_one_svd_per_call(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = _rng("spy", 0)
    els = sampling.sample_povm_arrays(3, 9, rng)
    x, y = _link(3, rng), _link(3, rng)
    _outcome_spectra(x, y, els)
    assert calls == [(9, 3, 3)]
    calls.clear()
    _outcome_spectra([1.0, 0.0], [1.0, 0.0], np.array([_unit(2, 1, 1), _unit(2, 0, 1)]))
    assert len(calls) == 1
    # the per-operator oracle makes one call per element, which the spy sees
    calls.clear()
    oracle_outcomes(x, y, els)
    assert len(calls) == 9


@pytest.mark.parametrize("d", [2, 3])
def test_product_measurement_is_kron(d):
    for t in range(DRAWS // 2):
        rng = _rng(f"kron{d}", t)
        ys = sampling.sample_povm_arrays(d, d * d, rng)
        zs = sampling.sample_povm_arrays(d, d * d, rng)
        want = np.array([np.kron(yi, zj) for yi in ys for zj in zs])
        got = _product_measurement(ys, zs)
        assert got.shape == (d**4, d * d, d * d) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_theorem_reports_match_the_per_operator_route(d, monkeypatch):
    cfg = CheckConfig(dimension=d, trials=10, seed=4)

    def run():
        return json.dumps([r.to_dict() for r in checks.run_checks("theorems", cfg)], sort_keys=True)

    batched = run()
    monkeypatch.setattr(checks, "_outcome_spectra", lambda *args: _stacked(oracle_outcomes(*args)))
    monkeypatch.setattr(
        checks, "_product_measurement", lambda ys, zs: [np.kron(yi, zj) for yi in ys for zj in zs]
    )
    assert batched == run()


def _spread_link(d, rng):
    """A Schmidt vector with entries log-uniform over [1e-12, 1]."""
    return normalize_descending(10.0 ** rng.uniform(-12.0, 0.0, d))


def _measurements(d, rng):
    yield deterministic_swap_povm(d)
    if d == 2:
        yield bell_povm_d2()
    for count in (d * d, d * d + 3):
        yield sampling.sample_povm(d, count, rng)


class TestEnumerateSwapOutcomes:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_per_element_loop(self, d):
        for t in range(DRAWS):
            rng = _rng(f"enumerate{d}", t)
            if t % 3 == 0:
                x, y = sampling.random_schmidt(d, rng), sampling.random_schmidt(d, rng)
            else:
                x, y = _spread_link(d, rng), _spread_link(d, rng)
            for povm in _measurements(d, rng):
                got = list(enumerate_swap_outcomes(x, y, povm))
                want = per_element_outcomes(x, y, povm)
                assert len(got) == len(want)
                for (p, vec), (q, ref) in zip(got, want):
                    assert isinstance(vec, SchmidtVector)
                    assert abs(p - q) <= 1e-14
                    assert max(abs(a - b) for a, b in zip(vec.entries, ref.entries)) <= 1e-14

    def test_outcomes_below_the_floor_are_dropped(self):
        # rank-one qubit links leave two Bell outcomes at probability 0,
        # rank-two qutrit links five outcomes of the unit-matrix
        # measurement
        units = [_unit(3, i, j) for i in range(3) for j in range(3)]
        cases = [
            ([1.0, 0.0], [1.0, 0.0], bell_povm_d2(), 2),
            ([0.5, 0.5, 0.0], [0.7, 0.3, 0.0], Povm(units), 4),
        ]
        for x, y, povm, kept in cases:
            x, y = SchmidtVector(x), SchmidtVector(y)
            got = list(enumerate_swap_outcomes(x, y, povm))
            want = per_element_outcomes(x, y, povm)
            assert len(got) == len(want) == kept
            for (p, vec), (q, ref) in zip(got, want):
                assert abs(p - q) <= 1e-14
                assert vec.entries == pytest.approx(ref.entries, abs=1e-14)


def test_enumerate_makes_one_stacked_svd(monkeypatch):
    svd_calls = []
    sv_desc_calls = []
    svd = np.linalg.svd
    sv_desc = kernels.sv_desc

    def svd_spy(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def sv_desc_spy(*args):
        sv_desc_calls.append(args)
        return sv_desc(*args)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(kernels, "sv_desc", sv_desc_spy)
    rng = _rng("enumerate_spy", 0)
    for d in (2, 3, 4):
        x, y = _spread_link(d, rng), _spread_link(d, rng)
        for povm in _measurements(d, rng):
            svd_calls.clear()
            enumerate_swap_outcomes(x, y, povm)
            assert svd_calls == [(len(povm), d, d)]
            assert sv_desc_calls == []
