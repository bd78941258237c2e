"""Compiled and pure-Python kernels must be interchangeable."""

import numpy as np
import pytest

from qnetdet import _kernels_py as kpy
from qnetdet.backend import backend_name, kernels

SEED = 20240811
TRIALS = 60

try:
    from qnetdet import _kernels_c as kc
except ImportError:
    kc = None

needs_extension = pytest.mark.skipif(kc is None, reason="compiled extension not built")

_rng = np.random.default_rng(SEED)


def _rand_prob(d):
    v = _rng.dirichlet(np.ones(d))
    return sorted(v.tolist(), reverse=True)


def _rand_complex(n):
    m = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return m


def _rand_hermitian(n):
    m = _rand_complex(n)
    return (m + m.conj().T) / 2


PAIRS = [(_rand_prob(d), _rand_prob(d)) for d in (1, 2, 3, 4, 6, 8) for _ in range(TRIALS // 6)]
HERMS = [_rand_hermitian(d) for d in (2, 3, 5) for _ in range(10)]
RECTS = [
    (_rng.standard_normal((r, c)) + 1j * _rng.standard_normal((r, c)))
    for r, c in ((2, 2), (3, 5), (5, 3), (4, 4))
    for _ in range(8)
]


def test_backend_name():
    assert backend_name() in ("c", "py")
    assert kernels.BACKEND == backend_name()


def test_pure_backend_tag():
    assert kpy.BACKEND == "py"


@needs_extension
def test_compiled_backend_tag():
    assert kc.BACKEND == "c"


@needs_extension
@pytest.mark.parametrize("x,y", PAIRS)
def test_swap_eig_parity(x, y):
    a = kc.swap_eig(list(x), list(y))
    b = kpy.swap_eig(list(x), list(y))
    assert np.allclose(a, b, atol=1e-12, rtol=0)


@needs_extension
@pytest.mark.parametrize("x,y", PAIRS)
def test_swap_sv_parity(x, y):
    a = kc.swap_sv(list(x), list(y))
    b = kpy.swap_sv(list(x), list(y))
    assert np.allclose(a, b, atol=1e-12, rtol=0)


@needs_extension
@pytest.mark.parametrize("m", HERMS)
def test_eigh_parity(m):
    n = m.shape[0]
    flat = [complex(v) for v in m.ravel()]
    a = kc.eigh_desc(n, flat)
    b = kpy.eigh_desc(n, flat)
    assert np.allclose(a, b, atol=1e-12, rtol=0)
    assert np.allclose(a, np.linalg.eigvalsh(m)[::-1], atol=1e-10, rtol=0)


@needs_extension
@pytest.mark.parametrize("m", RECTS)
def test_sv_parity(m):
    r, c = m.shape
    flat = [complex(v) for v in m.ravel()]
    a = kc.sv_desc(r, c, flat)
    b = kpy.sv_desc(r, c, flat)
    assert np.allclose(a, b, atol=1e-12, rtol=0)
    assert np.allclose(a, np.linalg.svd(m, compute_uv=False), atol=1e-10, rtol=0)


@needs_extension
def test_purify_parity():
    for trial in range(TRIALS):
        d = 2 + trial % 5
        m = d + trial % 4
        xs = _rng.dirichlet(np.ones(m)).tolist()
        assert kc.purify_kernel(xs, d) == pytest.approx(kpy.purify_kernel(xs, d), abs=1e-14)


@needs_extension
def test_esym_parity():
    for trial in range(TRIALS):
        n = 1 + trial % 8
        xs = _rng.standard_normal(n).tolist()
        for k in range(n + 1):
            assert kc.esym(xs, k) == pytest.approx(kpy.esym(xs, k), rel=1e-12, abs=1e-13)
