"""Pure-Python kernels: the generic Jacobi oracle against numpy, the
library's 3 x 3 sweep and d = 3 series kernel against that oracle, the
sweep where products of squared column norms underflow, the elementary
symmetric polynomials, and the two retired names the profiler wraps."""

import math
import random
import sys

import _jacobi3_cases as cases
import _jacobi_oracle as oracle
import numpy as np
import pytest
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


class TestJacobi3x3:
    """The library's sv_desc and swap_sv return the bits of the generic
    loop and series rule in tests/_jacobi_oracle.py, on every kind of
    input in tests/_jacobi3_cases.py."""

    @pytest.mark.parametrize("kind", sorted(cases.MATRIX_KINDS))
    def test_raw_matrices(self, kind):
        rng = random.Random(f"sv3/{kind}")
        for _ in range(100):
            m = cases.MATRIX_KINDS[kind](rng)
            assert cases.hexes(kpy.sv_desc(3, 3, m)) == cases.hexes(oracle.sv_jacobi(3, 3, m)), m

    @pytest.mark.parametrize("x_kind", sorted(cases.LINK_KINDS))
    @pytest.mark.parametrize("y_kind", sorted(cases.LINK_KINDS))
    def test_link_pairs(self, x_kind, y_kind):
        rng = random.Random(f"swap3/{x_kind}/{y_kind}")
        for _ in range(30):
            x = cases.LINK_KINDS[x_kind](rng)
            y = cases.LINK_KINDS[y_kind](rng)
            assert cases.hexes(cases.library_swap_sv(x, y)) == cases.hexes(oracle.swap_sv(x, y)), (x, y)

    def test_only_the_3x3_shape_leaves_the_generic_loop(self, monkeypatch):
        # the library keeps the 3 x 3 sweep alone; swap_sv reaches it
        # through the module name sv_desc, which the profiler wraps, once
        # per call at d = 3 and not at d = 1
        sweep = kpy.sv_desc
        shapes = []

        def spy(rows, cols, a):
            shapes.append((rows, cols))
            return sweep(rows, cols, a)

        monkeypatch.setattr(kpy, "sv_desc", spy)
        kpy.swap_sv([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
        kpy.swap_sv([1.0], [1.0])
        assert shapes == [(3, 3)]

    def test_other_shapes_and_dimensions_raise(self):
        rng = random.Random("sv3/shapes")
        m = cases.MATRIX_KINDS["gaussian"](rng)
        for rows, cols, a in ((3, 2, m[:6]), (2, 3, m[:6]), (4, 4, m + m[:7])):
            with pytest.raises(ValueError, match="3 x 3"):
                kpy.sv_desc(rows, cols, a)
        for x, y in (([0.5, 0.5], [0.9, 0.1]), ([0.25] * 4, [0.4, 0.3, 0.2, 0.1]), ([], [])):
            with pytest.raises(ValueError, match="d = 1 and 3"):
                kpy.swap_sv(x, y)

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
