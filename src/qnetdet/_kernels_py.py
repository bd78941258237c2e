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

swap_eig and eigh_desc, a two-sided cyclic Jacobi iteration on the
Hermitian form, are on no library path.  They stop once the
off-diagonal mass falls below OFF_TOL times the Frobenius norm, an
absolute criterion, so small eigenvalues lose relative accuracy (up to
8e-5 relative at d = 2 and 3 on entries spread down to 1e-12).  They are
kept only because the profiler in perfbench/tracer.py looks them up by
name.
"""

from __future__ import annotations

import cmath
import functools
import math

# Convergence threshold on relative off-diagonal mass.
OFF_TOL = 1e-14
MAX_SWEEPS = 60


def eigh_desc(n, a):
    """Eigenvalues of a Hermitian n x n matrix, descending.

    Parameters
    ----------
    n : int
        Matrix dimension.
    a : list of complex
        Row-major entries, length n*n.  Only the Hermitian part
        (A + A^H)/2 is diagonalized, so tiny anti-Hermitian noise in
        the input is harmless.

    Returns
    -------
    list of float
        The n eigenvalues sorted in descending order.
    """
    if n == 1:
        return [complex(a[0]).real]
    b = [0j] * (n * n)
    for j in range(n):
        b[j * n + j] = complex(complex(a[j * n + j]).real)
        for k in range(j + 1, n):
            h = 0.5 * (complex(a[j * n + k]) + complex(a[k * n + j]).conjugate())
            b[j * n + k] = h
            b[k * n + j] = h.conjugate()
    fro = math.sqrt(sum(abs(v) * abs(v) for v in b))
    if fro == 0.0:
        return [0.0] * n
    stop = OFF_TOL * fro
    for _ in range(MAX_SWEEPS):
        off = 0.0
        for j in range(n):
            for k in range(j + 1, n):
                off += 2.0 * abs(b[j * n + k]) ** 2
        if math.sqrt(off) <= stop:
            break
        for p in range(n):
            for q in range(p + 1, n):
                apq = b[p * n + q]
                g = abs(apq)
                if g <= 1e-300:
                    continue
                alpha = b[p * n + p].real
                beta = b[q * n + q].real
                phase = apq / g
                tau = (beta - alpha) / (2.0 * g)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = sp.conjugate()
                for m in range(n):
                    if m == p or m == q:
                        continue
                    bmp = b[m * n + p]
                    bmq = b[m * n + q]
                    nmp = c * bmp - spc * bmq
                    nmq = sp * bmp + c * bmq
                    b[m * n + p] = nmp
                    b[m * n + q] = nmq
                    b[p * n + m] = nmp.conjugate()
                    b[q * n + m] = nmq.conjugate()
                b[p * n + p] = complex(alpha - t * g)
                b[q * n + q] = complex(beta + t * g)
                b[p * n + q] = 0j
                b[q * n + p] = 0j
    vals = [b[j * n + j].real for j in range(n)]
    vals.sort(reverse=True)
    return vals


def sv_desc(rows, cols, a):
    """Singular values of a rows x cols matrix, descending.

    `a` is the row-major flat list of complex entries.  Returns the
    min(rows, cols) singular values via one-sided Jacobi, which keeps
    small singular values at high relative accuracy.  Only swap_sv
    calls it.
    """
    if rows < cols:
        # work on the conjugate transpose, same singular values
        at = [complex(a[r * cols + c]).conjugate() for c in range(cols) for r in range(rows)]
        return sv_desc(cols, rows, at)
    # column-major storage: u[k] is column k
    u = [[complex(a[r * cols + k]) for r in range(rows)] for k in range(cols)]
    if cols == 1:
        return [math.sqrt(sum(abs(v) ** 2 for v in u[0]))]
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


def swap_eig(x, y):
    """Spectrum of the series (swapping) rule, unnormalized inputs allowed.

    Computes d * eig(A) with A = diag(sqrt(x)) W diag(sqrt(x)) where
    W = V diag(y) V^H and V is the d-dimensional Fourier matrix with
    1-based indices.  Entries of W depend only on index differences, so
    the matrix is assembled from d circulant coefficients.

    Both inputs must be sorted descending; they are used as given.
    Returns a descending list of length d scaled so that the total
    equals sum(x) * sum(y).  The eigenvalue relative accuracy is
    governed by the conditioning of the inner vector y, so a caller
    passes the flatter vector as y.  On no library path; see the module
    docstring.
    """
    d = len(x)
    if d == 1:
        return [x[0] * y[0]]
    coef = [0j] * d
    for m in range(d):
        acc = 0j
        for l in range(1, d + 1):
            acc += y[l - 1] * cmath.exp(-2j * cmath.pi * m * l / d)
        coef[m] = acc / d
    rx = [math.sqrt(v) if v > 0.0 else 0.0 for v in x]
    a = [0j] * (d * d)
    for j in range(d):
        for k in range(d):
            a[j * d + k] = rx[j] * rx[k] * coef[(j - k) % d]
    vals = eigh_desc(d, a)
    out = []
    for v in vals:
        w = d * v
        if w < 0.0:
            w = 0.0
        out.append(w)
    return out


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
    rule at d = 1 and 3, and the cross-check rules._swap_raw_sv.
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
    """k-th elementary symmetric polynomial of the entries of xs."""
    if k == 0:
        return 1.0
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for idx, v in enumerate(xs):
        top = min(k, idx + 1)
        for i in range(top, 0, -1):
            e[i] += v * e[i - 1]
    return e[k]
