"""The batched outcome helper of the Monte Carlo checks: the same
ensembles, bit for bit, as the per-operator helper it replaced (kept in
_outcomes_oracle.py), from one stacked SVD per measurement."""

import json

import numpy as np
import pytest
from _outcomes_oracle import _numpy_outcomes as oracle_outcomes

from qnetdet import checks, sampling
from qnetdet.checks import CheckConfig, _numpy_outcomes, _product_measurement
from qnetdet.schmidt import kron

DRAWS = 12


def _rng(label, t):
    return sampling.substream(20261018, label, t)


def _assert_same(got, want):
    assert len(got) == len(want)
    for (p, spec), (q, ref) in zip(got, want):
        assert type(p) is float and p.hex() == q.hex()
        assert spec.dtype == ref.dtype and spec.shape == ref.shape
        assert spec.tobytes() == ref.tobytes()


def _both(x, y, elements):
    got = _numpy_outcomes(x, y, elements)
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
    _numpy_outcomes(x, y, els)
    assert calls == [(9, 3, 3)]
    calls.clear()
    _numpy_outcomes([1.0, 0.0], [1.0, 0.0], np.array([_unit(2, 1, 1), _unit(2, 0, 1)]))
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
    monkeypatch.setattr(checks, "_numpy_outcomes", oracle_outcomes)
    monkeypatch.setattr(
        checks, "_product_measurement", lambda ys, zs: [np.kron(yi, zj) for yi in ys for zj in zs]
    )
    assert batched == run()
