"""The generic one-sided Jacobi loop and the series rule built on it, at
any dimension, for tests only.

`sv_jacobi(rows, cols, a)` is the iteration `_kernels_py.sv_desc` runs
straight-lined for the 3 x 3 shape; `swap_sv(x, y)` is the series rule
on it at any d, sorting its inputs.  Both keep their own constants and
Fourier factors.  They are an independent accuracy reference, not a
pin of the library's bits: test_matrices.py checks the loop against
numpy, test_rules.py holds the library's series rule to them at d = 2
and from d = 4 up, where it runs the tail step or LAPACK, and
_outcomes_oracle.py builds on `sv_jacobi`.  At d = 3, recorded digests
pin the library's bits (test_matrices.py, _jacobi3_cases.py) and exact
values its accuracy (_series_oracle.py).

The package never imports this module.
"""

import cmath
import functools
import math
import sys

OFF_TOL = 1e-14
MAX_SWEEPS = 60
_NORMAL_MIN = sys.float_info.min


def sv_jacobi(rows, cols, a):
    """Singular values of a rows x cols matrix, rows >= cols, descending,
    from the row-major flat list `a` of its entries.

    A pair of columns is rotated until its overlap g is at most OFF_TOL
    times the product of their norms, taken as sqrt(app * aqq) where
    that product is a normal float and as sqrt(app) * sqrt(aqq) where it
    underflows.  Where tau * tau overflows, the rotation's tangent is
    taken as 1 / (2 tau), its value to rounding."""
    # column-major storage: u[k] is column k
    u = [[complex(a[r * cols + k]) for r in range(rows)] for k in range(cols)]
    # squared column norms, refreshed only by the rotation that changes a
    # column and summed there in the same row order
    sq = []
    for col in u:
        acc = 0.0
        for v in col:
            acc += v.real * v.real + v.imag * v.imag
        sq.append(acc)
    for _ in range(MAX_SWEEPS):
        rotated = 0
        for p in range(cols):
            for q in range(p + 1, cols):
                up = u[p]
                uq = u[q]
                app = sq[p]
                aqq = sq[q]
                apq = 0j
                for i in range(rows):
                    apq += up[i].conjugate() * uq[i]
                g = abs(apq)
                prod = app * aqq
                norms = math.sqrt(prod) if prod >= _NORMAL_MIN else math.sqrt(app) * math.sqrt(aqq)
                if g <= OFF_TOL * norms or g == 0.0:
                    continue
                rotated += 1
                phase = apq / g
                tau = (aqq - app) / (2.0 * g)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                if t == 0.0:
                    # tau * tau overflowed; t is 1 / (2 tau) to rounding
                    t = 0.5 / tau
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = sp.conjugate()
                app = 0.0
                aqq = 0.0
                for i in range(rows):
                    vp = up[i]
                    vq = uq[i]
                    vp, vq = c * vp - spc * vq, sp * vp + c * vq
                    up[i] = vp
                    uq[i] = vq
                    app += vp.real * vp.real + vp.imag * vp.imag
                    aqq += vq.real * vq.real + vq.imag * vq.imag
                sq[p] = app
                sq[q] = aqq
        if rotated == 0:
            break
    sv = [math.sqrt(v) for v in sq]
    sv.sort(reverse=True)
    return sv


@functools.lru_cache(maxsize=None)
def _fourier_factors(d):
    """Row-major entries exp(-2 pi i jk / d), j, k = 1..d, of the
    unit-modulus Fourier matrix; cached per d."""
    return tuple(cmath.exp(-2j * cmath.pi * j * k / d) for j in range(1, d + 1) for k in range(1, d + 1))


def swap_sv(x, y):
    """Series rule spectrum at any d: the squared singular values of
    diag(sqrt x) F diag(sqrt y), times d, with F the unit-modulus Fourier
    matrix (1-based indices) and both inputs sorted descending here; x
    goes on the rows.  A descending list with total sum(x) * sum(y)."""
    d = len(x)
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    if d == 1:
        return [xs[0] * ys[0]]
    rx = [math.sqrt(v) if v > 0.0 else 0.0 for v in xs]
    ry = [math.sqrt(v) if v > 0.0 else 0.0 for v in ys]
    rd = 1.0 / math.sqrt(d)
    f = _fourier_factors(d)
    m = [rx[j] * ry[k] * rd * f[j * d + k] for j in range(d) for k in range(d)]
    sv = sv_jacobi(d, d, m)
    return [d * s * s for s in sv]
