"""Pure-Python kernels: dense-matrix spectra against numpy, and the
elementary symmetric polynomials."""

import numpy as np
import pytest

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

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_hermitian_eigenvalues_match_numpy(self, trial):
        rng = substream(SEED, "eigh", trial)
        n = int(rng.integers(1, 8))
        a = _random_complex((n, n), rng)
        h = a + a.conj().T
        got = kpy.eigh_desc(n, h.ravel().tolist())
        want = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.allclose(got, want, atol=1e-10)


class TestElementarySymmetric:
    def test_esym_known(self):
        vals = [1.0, 2.0, 3.0]
        assert kpy.esym(vals, 0) == 1.0
        assert kpy.esym(vals, 1) == pytest.approx(6.0)
        assert kpy.esym(vals, 2) == pytest.approx(11.0)
        assert kpy.esym(vals, 3) == pytest.approx(6.0)
