"""Pure-Python kernels: singular values against numpy, the 3 x 3 path
against the generic loop, the elementary symmetric polynomials, and the
two retired names the profiler wraps."""

import math
import random
import sys

import numpy as np
import pytest

import _jacobi3_cases as cases
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
        # sv_desc's contract: at least as many rows as columns
        c = int(rng.integers(1, 7))
        r = int(rng.integers(c, 7))
        a = _random_complex((r, c), rng)
        got = kpy.sv_desc(r, c, a.ravel().tolist())
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(got, want, atol=1e-10)
        assert all(x >= y - 1e-15 for x, y in zip(got, got[1:]))


class TestJacobi3x3:
    """sv_desc's 3 x 3 path returns the generic loop's bits, on every
    kind of input in tests/_jacobi3_cases.py."""

    @pytest.mark.parametrize("kind", sorted(cases.MATRIX_KINDS))
    def test_raw_matrices(self, kind):
        rng = random.Random(f"sv3/{kind}")
        for _ in range(100):
            m = cases.MATRIX_KINDS[kind](rng)
            assert cases.hexes(kpy.sv_desc(3, 3, m)) == cases.hexes(kpy._sv_jacobi(3, 3, m)), m

    @pytest.mark.parametrize("x_kind", sorted(cases.LINK_KINDS))
    @pytest.mark.parametrize("y_kind", sorted(cases.LINK_KINDS))
    def test_link_pairs(self, x_kind, y_kind):
        rng = random.Random(f"swap3/{x_kind}/{y_kind}")
        for _ in range(30):
            x = cases.LINK_KINDS[x_kind](rng)
            y = cases.LINK_KINDS[y_kind](rng)
            assert cases.hexes(kpy.swap_sv(x, y)) == cases.hexes(cases.generic_swap_sv(x, y)), (x, y)

    def test_only_the_3x3_shape_leaves_the_generic_loop(self, monkeypatch):
        generic = kpy._sv_jacobi
        shapes = []

        def spy(rows, cols, a):
            shapes.append((rows, cols))
            return generic(rows, cols, a)

        monkeypatch.setattr(kpy, "_sv_jacobi", spy)
        rng = random.Random("sv3/route")
        kpy.sv_desc(3, 3, cases.MATRIX_KINDS["gaussian"](rng))
        kpy.swap_sv([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
        assert shapes == []
        kpy.sv_desc(3, 2, cases.MATRIX_KINDS["gaussian"](rng)[:6])
        kpy.swap_sv([0.5, 0.5], [0.9, 0.1])
        kpy.swap_sv([0.25] * 4, [0.4, 0.3, 0.2, 0.1])
        assert shapes == [(3, 2), (2, 2), (4, 4)]

    def test_complex_square_is_the_sum_of_squared_parts(self):
        # _sv_3x3 squares an entry as (z * z.conjugate()).real, the loop
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
