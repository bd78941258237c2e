"""Dense numerical kernels in pure Python.

All kernels operate on flat Python lists and are sized for the small
matrices this package needs (dimension <= 16).  Library code reaches
them through qnetdet.backend.kernels.

Singular values use a one-sided Jacobi iteration on columns (sv_desc).
It stops on a relative criterion per column pair and keeps small
singular values at high relative accuracy.  swap_sv, built on it, is
the series rule at d = 3 (see rules._series): within 1.6e-15 relative
of 60-digit values on entries spread down to 1e-12.  The rule at d = 2
is a closed form in rules and from d = 4 up one LAPACK SVD; measurement
outcomes go through one stacked LAPACK SVD (rules._outcome_spectra).

swap_eig and eigh_desc, once a two-sided Jacobi route for the series
rule, are retired: their bodies are gone, and each only raises.  The
names stay because the profiler in perfbench/tracer.py wraps them.
"""

from __future__ import annotations

import cmath
import functools
import math

# sv_desc's convergence threshold on the relative overlap of a column pair.
OFF_TOL = 1e-14
MAX_SWEEPS = 60


def sv_desc(rows, cols, a):
    """Singular values of a rows x cols matrix, rows >= cols, descending.

    `a` is the row-major flat list of complex entries.  Returns the cols
    singular values via one-sided Jacobi on the columns, which keeps
    small singular values at high relative accuracy.  Only swap_sv calls
    it, with a square matrix.
    """
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
                if g <= OFF_TOL * math.sqrt(app * aqq) or g == 0.0:
                    continue
                rotated += 1
                phase = apq / g
                tau = (aqq - app) / (2.0 * g)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
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


def eigh_desc(*args):
    """Retired; kept only because perfbench/tracer.py wraps it by name."""
    raise NotImplementedError("eigh_desc is retired; the series rule is rules.swap_rule")


def swap_eig(*args):
    """Retired; kept only because perfbench/tracer.py wraps it by name."""
    raise NotImplementedError("swap_eig is retired; the series rule is rules.swap_rule")


@functools.lru_cache(maxsize=None)
def _fourier_factors(d):
    """Row-major entries exp(-2 pi i jk / d), j, k = 1..d, of the
    unit-modulus Fourier matrix; cached per d."""
    return tuple(cmath.exp(-2j * cmath.pi * j * k / d) for j in range(1, d + 1) for k in range(1, d + 1))


def swap_sv(x, y):
    """Series rule spectrum via singular values of the asymmetric product.

    The squared singular values of diag(sqrt x) F diag(sqrt y), with F
    the unit-modulus Fourier matrix (1-based indices, factors cached per
    d) and both inputs sorted descending here; x goes on the rows.
    Returns a descending list with total sum(x) * sum(y).  The series
    rule at d = 1 and 3, and the tests' independent cross-check of the
    production route at d = 2 and from d = 4 up.
    """
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
    sv = sv_desc(d, d, m)
    return [d * s * s for s in sv]


def purify_kernel(xs, d):
    """Purification scan: largest-entry-or-equal-share sweep.

    Maps a nonnegative vector of length m >= d to a descending vector of
    length d with the same total: entry l is the larger of the l-th
    largest input entry and an equal share of the remaining mass.
    """
    srt = sorted(xs, reverse=True)
    s = math.fsum(xs)
    out = []
    for l in range(d):
        cap = s / (d - l)
        v = srt[l]
        if cap > v:
            v = cap
        out.append(v)
        s -= v
    return out


def esym(xs, k):
    """k-th elementary symmetric polynomial of the entries of xs; given
    equal-length float arrays as entries, it is taken elementwise, by
    the same operations per element as on floats."""
    if k == 0:
        return 1.0
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for idx, v in enumerate(xs):
        top = min(k, idx + 1)
        for i in range(top, 0, -1):
            e[i] += v * e[i - 1]
    return e[k]
