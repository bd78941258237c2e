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

sv_desc has two bodies.  _sv_jacobi is the iteration for any shape.
_sv_3x3, the series rule's shape at d = 3, is the same iteration
straight-lined: the columns and their squared norms held in locals, no
index arithmetic, and the same values, so its bits are _sv_jacobi's.
_sv_jacobi is its oracle: tests/_jacobi3_cases.py compares the two by
float.hex, in tier-1 and, on 100,000 seeded cases under each supported
Python, in CI.

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
    it, with a square matrix.  The 3 x 3 shape runs _sv_3x3, a
    straight-line copy of the iteration that returns _sv_jacobi's bits;
    every other shape runs _sv_jacobi.
    """
    if rows == 3 and cols == 3:
        return _sv_3x3(a)
    return _sv_jacobi(rows, cols, a)


def _sv_jacobi(rows, cols, a):
    """sv_desc's iteration for any shape; the bit oracle of _sv_3x3."""
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


def _sv_3x3(a):
    """_sv_jacobi(3, 3, a), straight-lined: columns u, v, w held as three
    complex entries each, with squared norms nu, nv, nw, and the pairs
    (u, v), (u, w), (v, w) in every sweep.  Each sum adds in row order
    and each rotation is the loop's float * complex products, so the
    values are the loop's, bit for bit.

    A squared entry is (z * z.conjugate()).real, one complex product in
    place of the loop's x * x + y * y.  CPython forms its real part as
    x * x - y * (-y); negation and a - (-b) = a + b are exact in IEEE
    arithmetic, so it is x * x + y * y for every finite or infinite
    part.  The sums start at their first term, not at the loop's 0.0
    and 0j: adding a zero first changes at most the sign of a zero, and
    neither a squared norm nor abs(apq) keeps that sign."""
    u0, v0, w0, u1, v1, w1, u2, v2, w2 = map(complex, a)
    nu = (u0 * u0.conjugate()).real + (u1 * u1.conjugate()).real + (u2 * u2.conjugate()).real
    nv = (v0 * v0.conjugate()).real + (v1 * v1.conjugate()).real + (v2 * v2.conjugate()).real
    nw = (w0 * w0.conjugate()).real + (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real
    sqrt = math.sqrt
    for _ in range(MAX_SWEEPS):
        rotated = False
        apq = u0.conjugate() * v0 + u1.conjugate() * v1 + u2.conjugate() * v2
        g = abs(apq)
        if not (g <= OFF_TOL * sqrt(nu * nv) or g == 0.0):
            rotated = True
            tau = (nv - nu) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            u0, v0 = c * u0 - spc * v0, sp * u0 + c * v0
            u1, v1 = c * u1 - spc * v1, sp * u1 + c * v1
            u2, v2 = c * u2 - spc * v2, sp * u2 + c * v2
            nu = (u0 * u0.conjugate()).real + (u1 * u1.conjugate()).real + (u2 * u2.conjugate()).real
            nv = (v0 * v0.conjugate()).real + (v1 * v1.conjugate()).real + (v2 * v2.conjugate()).real
        apq = u0.conjugate() * w0 + u1.conjugate() * w1 + u2.conjugate() * w2
        g = abs(apq)
        if not (g <= OFF_TOL * sqrt(nu * nw) or g == 0.0):
            rotated = True
            tau = (nw - nu) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            u0, w0 = c * u0 - spc * w0, sp * u0 + c * w0
            u1, w1 = c * u1 - spc * w1, sp * u1 + c * w1
            u2, w2 = c * u2 - spc * w2, sp * u2 + c * w2
            nu = (u0 * u0.conjugate()).real + (u1 * u1.conjugate()).real + (u2 * u2.conjugate()).real
            nw = (w0 * w0.conjugate()).real + (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real
        apq = v0.conjugate() * w0 + v1.conjugate() * w1 + v2.conjugate() * w2
        g = abs(apq)
        if not (g <= OFF_TOL * sqrt(nv * nw) or g == 0.0):
            rotated = True
            tau = (nw - nv) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            v0, w0 = c * v0 - spc * w0, sp * v0 + c * w0
            v1, w1 = c * v1 - spc * w1, sp * v1 + c * w1
            v2, w2 = c * v2 - spc * w2, sp * v2 + c * w2
            nv = (v0 * v0.conjugate()).real + (v1 * v1.conjugate()).real + (v2 * v2.conjugate()).real
            nw = (w0 * w0.conjugate()).real + (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real
        if not rotated:
            break
    sv = [sqrt(nu), sqrt(nv), sqrt(nw)]
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


def esyms(xs, k):
    """[e_0, ..., e_k], the elementary symmetric polynomials of the
    entries of xs up to order k, from one pass; given equal-length float
    arrays as entries, they are taken elementwise, by the same
    operations per element as on floats.  Entry j gets exactly the
    updates, in the same order, that a pass up to order j would make,
    so it does not depend on k."""
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for idx, v in enumerate(xs):
        top = min(k, idx + 1)
        for i in range(top, 0, -1):
            e[i] += v * e[i - 1]
    return e


def esym(xs, k):
    """k-th elementary symmetric polynomial of the entries of xs: entry k
    of esyms(xs, k)."""
    return esyms(xs, k)[k]
