"""Pure-Python kernels: the generic Jacobi oracle against numpy, the
recorded bits of the library's 3 x 3 sweep and d = 3 series kernel, the
sweep where products of squared column norms underflow, the elementary
symmetric polynomials, and the two retired names the profiler wraps."""

import math
import random
import sys

import _jacobi3_cases as cases
import _jacobi_oracle as oracle
import numpy as np
import pytest
from _digests import check
from _series_oracle import esym, series_esym

from qnetdet import _kernels_py as kpy
from qnetdet.sampling import substream

SEED = 20240811
TRIALS = 60


def _random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSpectra:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_singular_values_match_numpy(self, trial):
        rng = substream(SEED, "sv", trial)
        # the generic loop's contract: at least as many rows as columns
        c = int(rng.integers(1, 7))
        r = int(rng.integers(c, 7))
        a = _random_complex((r, c), rng)
        got = oracle.sv_jacobi(r, c, a.ravel().tolist())
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(got, want, atol=1e-10)
        assert all(x >= y - 1e-15 for x, y in zip(got, got[1:]))


# (draws, outputs) digests, as _digests.check writes them, keyed by the
# seed of the draws: sv_desc on 100 matrices of each kind, swap_sv on 30
# link pairs of each pair of kinds, recorded where both gave the generic
# loop's bits on every draw
DIGESTS = {
    "sv3/gaussian": ("9c2198cf7e65aec7", "a69c18037278ce02"),
    "sv3/rank1": ("c440e79ff4b47cd7", "ac5491788f6a590a"),
    "sv3/rank2": ("a7c2a90d26d6013a", "6175ff9ae4f45837"),
    "sv3/real": ("6926e990ba1c6d0c", "dc0437b939ec0ef6"),
    "sv3/signed_zeros": ("4f0e16c8d67bd7ef", "b08cec655202d256"),
    "sv3/spread_columns": ("4e25bd2d1581ade7", "a144ed0509d58743"),
    "sv3/subnormal_entries": ("94ccfe8adaa3720a", "3004f7009b327d54"),
    "sv3/subnormal_squares": ("3a413499896beec3", "b4419318d15e3f8e"),
    "sv3/wide_columns": ("5d85509e0930e956", "c09cf83aac237972"),
    "sv3/zero_columns": ("3be5239e677e8450", "b24077c1129bc2f2"),
    "swap3/dirichlet/dirichlet": ("686452ea93340c64", "697f50da9c8b7319"),
    "swap3/dirichlet/near_uniform": ("e92bc1d72011e929", "ee99c510c3e6a447"),
    "swap3/dirichlet/product": ("a71c97b7a9bd4395", "65c808c8a4fa1869"),
    "swap3/dirichlet/rank2": ("7958d98930e8cf6d", "17ef08fe224a5d86"),
    "swap3/dirichlet/spread": ("5877654271a2e644", "1f0f2c0e4c87bc27"),
    "swap3/dirichlet/ties": ("cc47b1338aca33d1", "9038ee93c05b2b80"),
    "swap3/dirichlet/weak": ("f31498f69e58172c", "811e7ddb5dc6fed7"),
    "swap3/near_uniform/dirichlet": ("7b1e6a497d3db85e", "f65f1947e8f98702"),
    "swap3/near_uniform/near_uniform": ("484bd0c6813b05f6", "bc35340bd3fc9a4c"),
    "swap3/near_uniform/product": ("534dc12ffc8e621e", "72fd26b571f96322"),
    "swap3/near_uniform/rank2": ("1bddd4d85cc5b785", "40f1c6f9608f7b4f"),
    "swap3/near_uniform/spread": ("64dcbcbceb4cc9c0", "7e4d139da972c82f"),
    "swap3/near_uniform/ties": ("240d9cfc4e580093", "bc6e4f9f064d6eb9"),
    "swap3/near_uniform/weak": ("082266d63639ab55", "96bfd2dfb080fcfa"),
    "swap3/product/dirichlet": ("ce7d6403c27c2d43", "5b7b3d4fb2b2efb2"),
    "swap3/product/near_uniform": ("15b752e15d02dff6", "8df5eebb91d01a02"),
    "swap3/product/product": ("cf4e011a06705427", "77d00060c0463d4a"),
    "swap3/product/rank2": ("bc69e59a29c989c7", "293e67c67d171eb5"),
    "swap3/product/spread": ("00dd6bd1364af2bf", "25638f6f8c0b0534"),
    "swap3/product/ties": ("a0fdce464403976e", "cefcdbe9810cd2ef"),
    "swap3/product/weak": ("97dad6e5e48f3d4c", "77d00060c0463d4a"),
    "swap3/rank2/dirichlet": ("d7bda1b0967eab5a", "912519b85983f106"),
    "swap3/rank2/near_uniform": ("662873b28232c41c", "b39327c38cc339cc"),
    "swap3/rank2/product": ("46a633a2a0dda28e", "fde7c041f9aa9cfc"),
    "swap3/rank2/rank2": ("2ae3940974fab512", "37637de605bc06b0"),
    "swap3/rank2/spread": ("49e2b64f8d46593f", "6b5eeec259e3abb8"),
    "swap3/rank2/ties": ("13844a630196165d", "2debe432a91525c9"),
    "swap3/rank2/weak": ("6054fc8923783e88", "e83f44b6269c465f"),
    "swap3/spread/dirichlet": ("84718f3e402db54b", "a39e5b4d589ae6ae"),
    "swap3/spread/near_uniform": ("f753c9477fd2d772", "deff1609326e16f8"),
    "swap3/spread/product": ("5f429b45f413ddd0", "ffdd799ed30c00e2"),
    "swap3/spread/rank2": ("884f63b77db72705", "18f88e0a3eb8766c"),
    "swap3/spread/spread": ("e3c2a151217529e7", "7bba0fd44cd33a59"),
    "swap3/spread/ties": ("e7113b1d3b5c1980", "e0a0c729cff57cc8"),
    "swap3/spread/weak": ("f468b9c525cabf0e", "37eb8fc2fda377d0"),
    "swap3/ties/dirichlet": ("e239b7d918017551", "e788c727bef2423a"),
    "swap3/ties/near_uniform": ("77f8f783498952c3", "ff52e5b6935f56d5"),
    "swap3/ties/product": ("13c79096194d4cd8", "77d00060c0463d4a"),
    "swap3/ties/rank2": ("15ae027158f0b3f9", "fc8467bc462b1041"),
    "swap3/ties/spread": ("650d1415f199650a", "fe9b249627cbb319"),
    "swap3/ties/ties": ("7e6f4ea0e8b1619d", "90ae2092b3d730e8"),
    "swap3/ties/weak": ("ebf78bf683ede512", "1b5d55bcffb946fc"),
    "swap3/weak/dirichlet": ("6ecda923824f0463", "7b7c8c6add05a984"),
    "swap3/weak/near_uniform": ("d9a09d40c04fbf1e", "9db9a052b462f5bd"),
    "swap3/weak/product": ("de1ced74b6485920", "77d00060c0463d4a"),
    "swap3/weak/rank2": ("846b551b5416f98c", "8ee14512c3e9a816"),
    "swap3/weak/spread": ("41a680aba8dcc61d", "bfcebe8a10b3c089"),
    "swap3/weak/ties": ("85f802de99237475", "5baea8cfd00a38c3"),
    "swap3/weak/weak": ("99917c9481288486", "4b770455080db20b"),
}


class TestJacobi3x3:
    """The library's sv_desc and swap_sv give the recorded bits on every
    kind of input in tests/_jacobi3_cases.py."""

    @pytest.mark.parametrize("kind", sorted(cases.MATRIX_KINDS))
    def test_raw_matrices(self, kind):
        seed = f"sv3/{kind}"
        rng = random.Random(seed)
        draws = [cases.MATRIX_KINDS[kind](rng) for _ in range(100)]
        check(DIGESTS, seed, draws, lambda m: cases.hexes(kpy.sv_desc(m)))

    @pytest.mark.parametrize("x_kind", sorted(cases.LINK_KINDS))
    @pytest.mark.parametrize("y_kind", sorted(cases.LINK_KINDS))
    def test_link_pairs(self, x_kind, y_kind):
        seed = f"swap3/{x_kind}/{y_kind}"
        rng = random.Random(seed)
        draws = [(cases.LINK_KINDS[x_kind](rng), cases.LINK_KINDS[y_kind](rng)) for _ in range(30)]
        check(DIGESTS, seed, draws, lambda xy: cases.hexes(cases.library_swap_sv(*xy)))

    def test_complex_square_is_the_sum_of_squared_parts(self):
        # sv_desc squares an entry as (z * z.conjugate()).real, the loop
        # as x * x + y * y: CPython's product forms x * x - y * (-y),
        # which is the same float for every finite or infinite part
        big = sys.float_info.max
        parts = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-310, 1e-170, 1e-154,
                 0.3, -1.7, 1e154, -1e200, big, -big, math.inf, -math.inf]
        differ = []
        for x in parts:
            for y in parts:
                z = complex(x, y)
                if (z * z.conjugate()).real.hex() != (x * x + y * y).hex():
                    differ.append(z)
        assert differ == []


def _weak(e):
    return [1.0 - 2.0 * e, e, e]


# (x, y) where a product of two squared column norms underflows: with a
# uniform x at e = 1e-170 every pair kept rotating for 60 sweeps, and two
# weak links at e = 1e-160 also overflow tau * tau, which left a rotation
# at t = 0 and the smaller outputs 55 and 1.1 times too large.
UNDERFLOW_CASES = {
    "uniform_weak": ([1.0 / 3.0] * 3, _weak(1e-170)),
    "weak_weak": (_weak(1e-160), _weak(1e-160)),
}


class TestUnderflowingNorms:
    @pytest.mark.parametrize("case", sorted(UNDERFLOW_CASES))
    def test_converges(self, case, monkeypatch):
        x, y = UNDERFLOW_CASES[case]
        full = kpy.swap_sv(x, y)
        monkeypatch.setattr(kpy, "MAX_SWEEPS", 10)
        assert cases.hexes(kpy.swap_sv(x, y)) == cases.hexes(full)

    @pytest.mark.parametrize("case", sorted(UNDERFLOW_CASES))
    def test_matches_the_exact_sums(self, case):
        # both sides scaled by the exact power 2^600 (x and y by 2^300
        # each, which the rule multiplies), so that no exact e_k
        # underflows; the weak-weak outputs are subnormal floats, good to
        # about 1e-4 relative, the others to a few ulps
        x, y = UNDERFLOW_CASES[case]
        out = kpy.swap_sv(x, y)
        scale = 2.0**300
        want = series_esym([v * scale for v in x], [v * scale for v in y])
        got = [v * scale * scale for v in out]
        tol = 1e-3 if min(out) < sys.float_info.min else 1e-13
        for k, w in enumerate(want, start=1):
            assert abs(esym(got, k) - w) <= tol * w, (k, out)


class TestElementarySymmetric:
    def test_esym_known(self):
        vals = [1.0, 2.0, 3.0]
        assert kpy.esym(vals, 0) == 1.0
        assert kpy.esym(vals, 1) == pytest.approx(6.0)
        assert kpy.esym(vals, 2) == pytest.approx(11.0)
        assert kpy.esym(vals, 3) == pytest.approx(6.0)

    @pytest.mark.parametrize("trial", range(20))
    def test_esyms_entries_equal_esym(self, trial):
        # entry j of one pass up to order k is esym(xs, j), bit for bit,
        # on lists, tuples and numpy columns, with zeros and spread entries
        rng = substream(SEED, "esyms", trial)
        n = int(rng.integers(1, 9))
        rows = 10.0 ** rng.uniform(-12.0, 0.0, size=(5, n))
        rows[rng.random((5, n)) < 0.25] = 0.0
        k = int(rng.integers(0, n + 1))
        for xs in (rows[0].tolist(), tuple(rows[1].tolist())):
            got = kpy.esyms(xs, k)
            assert len(got) == k + 1
            assert [v.hex() for v in got] == [kpy.esym(xs, j).hex() for j in range(k + 1)]
        # the columns as entries: e_0 is the float 1.0, every other e_j
        # an array with one value per row
        cols = rows.T
        got = kpy.esyms(cols, k)
        for j in range(k + 1):
            assert [float(v).hex() for v in np.broadcast_to(got[j], 5)] == [
                float(v).hex() for v in np.broadcast_to(kpy.esym(cols, j), 5)
            ]


def test_retired_kernels_only_raise():
    # two separate objects: the profiler keys its wrappers by id
    assert kpy.swap_eig is not kpy.eigh_desc
    for fn in (kpy.swap_eig, kpy.eigh_desc):
        with pytest.raises(NotImplementedError, match=r"rules\.swap_rule"):
            fn([0.5, 0.5], [0.5, 0.5])
