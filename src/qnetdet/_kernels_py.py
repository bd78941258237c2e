"""Dense numerical kernels in pure Python.

All kernels operate on flat Python lists and are sized for the small
vectors and matrices this package needs.  Library code reaches them
through qnetdet.backend.kernels.

rules._series picks the series rule's route for every d; swap_sv is its
d = 3 route.  It takes the singular values of the 3 x 3 matrix
diag(sqrt x) F diag(sqrt y) from sv_desc, a one-sided Jacobi sweep on
columns, straight-lined for that shape: columns, their conjugates and
their squared norms held in locals, no index arithmetic.  It stops on a
relative criterion per column pair and keeps small singular values at
high relative accuracy: within 1.6e-15 relative of 60-digit values on
entries spread down to 1e-12.

Recorded digests pin the bits of sv_desc and swap_sv, per kind of
seeded input in tier-1 and over 100,000 seeded cases under each
supported Python in CI (tests/_jacobi3_cases.py); exact values hold
their accuracy (tests/_series_oracle.py).  The generic loop for any
shape, of which sv_desc is the 3 x 3 case, is in tests/_jacobi_oracle.py.

swap_eig and eigh_desc, once a two-sided Jacobi route for the series
rule, are retired: their bodies are gone, and each only raises.  The
names stay because the profiler in perfbench/tracer.py wraps them.
"""

from __future__ import annotations

import cmath
import math
import sys

# sv_desc's convergence threshold on the relative overlap of a column pair.
OFF_TOL = 1e-14
MAX_SWEEPS = 60
# below this, a product of two squared column norms has lost digits
_NORMAL_MIN = sys.float_info.min


def sv_desc(a):
    """Singular values of a 3 x 3 complex matrix, descending.

    `a` is the row-major flat sequence of its nine complex entries, the
    series rule's matrix at d = 3 (see swap_sv).  One-sided Jacobi on
    the columns u, v, w, each held as three entries with their
    conjugates and squared norm nu, nv, nw, rotating the pairs (u, v), (u, w), (v, w) in every
    sweep.  A pair is left as it is once its overlap g is at most
    OFF_TOL times the product of the two column norms, taken as
    sqrt(nu * nv) where that product is a normal float and as
    sqrt(nu) * sqrt(nv) where it underflows; the iteration stops after
    a sweep that rotates no pair, or after MAX_SWEEPS.  A rotation's
    tangent is 1 / (tau + sqrt(1 + tau^2)), or 1 / (2 tau), its value to
    rounding, where tau * tau overflows and that formula gives 0.  It
    makes the floating-point operations of the generic loop in
    tests/_jacobi_oracle.py in the loop's order, up to the two below.

    A conjugate is taken once per rotation of its column and serves both
    the column's squared norm and the next overlap.  A squared entry is
    (z * z.conjugate()).real, one complex product in place of the
    loop's x * x + y * y.  CPython forms its real part as x * x - y * (-y);
    negation and a - (-b) = a + b are exact in IEEE arithmetic, so it is
    x * x + y * y for every finite or infinite part.  The sums start at
    their first term, not at the loop's 0.0 and 0j: adding a zero first
    changes at most the sign of a zero, and neither a squared norm nor
    abs(apq) keeps that sign.

    A product of squared norms that overflows (column norms near 1e154)
    is outside the range this serves: the series rule's entries are at
    most 1.
    """
    u0, v0, w0, u1, v1, w1, u2, v2, w2 = a
    cu0, cu1, cu2 = u0.conjugate(), u1.conjugate(), u2.conjugate()
    cv0, cv1, cv2 = v0.conjugate(), v1.conjugate(), v2.conjugate()
    nu = (u0 * cu0).real + (u1 * cu1).real + (u2 * cu2).real
    nv = (v0 * cv0).real + (v1 * cv1).real + (v2 * cv2).real
    nw = (w0 * w0.conjugate()).real + (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real
    sqrt = math.sqrt
    tiny = _NORMAL_MIN
    for _ in range(MAX_SWEEPS):
        rotated = False
        apq = cu0 * v0 + cu1 * v1 + cu2 * v2
        g = abs(apq)
        p = nu * nv
        if not (g <= OFF_TOL * (sqrt(p) if p >= tiny else sqrt(nu) * sqrt(nv)) or g == 0.0):
            rotated = True
            tau = (nv - nu) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            if t == 0.0:
                t = 0.5 / tau
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            u0, v0 = c * u0 - spc * v0, sp * u0 + c * v0
            u1, v1 = c * u1 - spc * v1, sp * u1 + c * v1
            u2, v2 = c * u2 - spc * v2, sp * u2 + c * v2
            cu0, cu1, cu2 = u0.conjugate(), u1.conjugate(), u2.conjugate()
            cv0, cv1, cv2 = v0.conjugate(), v1.conjugate(), v2.conjugate()
            nu = (u0 * cu0).real + (u1 * cu1).real + (u2 * cu2).real
            nv = (v0 * cv0).real + (v1 * cv1).real + (v2 * cv2).real
        apq = cu0 * w0 + cu1 * w1 + cu2 * w2
        g = abs(apq)
        p = nu * nw
        if not (g <= OFF_TOL * (sqrt(p) if p >= tiny else sqrt(nu) * sqrt(nw)) or g == 0.0):
            rotated = True
            tau = (nw - nu) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            if t == 0.0:
                t = 0.5 / tau
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            u0, w0 = c * u0 - spc * w0, sp * u0 + c * w0
            u1, w1 = c * u1 - spc * w1, sp * u1 + c * w1
            u2, w2 = c * u2 - spc * w2, sp * u2 + c * w2
            cu0, cu1, cu2 = u0.conjugate(), u1.conjugate(), u2.conjugate()
            nu = (u0 * cu0).real + (u1 * cu1).real + (u2 * cu2).real
            nw = (w0 * w0.conjugate()).real + (w1 * w1.conjugate()).real + (w2 * w2.conjugate()).real
        apq = cv0 * w0 + cv1 * w1 + cv2 * w2
        g = abs(apq)
        p = nv * nw
        if not (g <= OFF_TOL * (sqrt(p) if p >= tiny else sqrt(nv) * sqrt(nw)) or g == 0.0):
            rotated = True
            tau = (nw - nv) / (2.0 * g)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
            if t == 0.0:
                t = 0.5 / tau
            c = 1.0 / sqrt(1.0 + t * t)
            sp = t * c * (apq / g)
            spc = sp.conjugate()
            v0, w0 = c * v0 - spc * w0, sp * v0 + c * w0
            v1, w1 = c * v1 - spc * w1, sp * v1 + c * w1
            v2, w2 = c * v2 - spc * w2, sp * v2 + c * w2
            cv0, cv1, cv2 = v0.conjugate(), v1.conjugate(), v2.conjugate()
            nv = (v0 * cv0).real + (v1 * cv1).real + (v2 * cv2).real
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


# Row-major entries exp(-2 pi i jk / 3), j, k = 1..3, of the unit-modulus
# Fourier matrix at d = 3, and the scale 1 / sqrt(3) of its unitary form.
_F3 = tuple(cmath.exp(-2j * cmath.pi * j * k / 3) for j in range(1, 4) for k in range(1, 4))
_RD3 = 1.0 / math.sqrt(3)


def swap_sv(x, y):
    """Series rule spectrum at d = 3, on descending inputs.

    x and y are descending sequences of three nonnegative floats;
    rules._series, which picks the route for every d, sends only these.
    The result is 3 times the squared singular values of
    diag(sqrt x) F diag(sqrt y), with F the unit-modulus Fourier matrix
    (1-based indices) and x on the rows, from one sv_desc call: a
    descending list with total sum(x) * sum(y).
    """
    x0, x1, x2 = x
    y0, y1, y2 = y
    sqrt = math.sqrt
    rx0 = sqrt(x0) if x0 > 0.0 else 0.0
    rx1 = sqrt(x1) if x1 > 0.0 else 0.0
    rx2 = sqrt(x2) if x2 > 0.0 else 0.0
    ry0 = sqrt(y0) if y0 > 0.0 else 0.0
    ry1 = sqrt(y1) if y1 > 0.0 else 0.0
    ry2 = sqrt(y2) if y2 > 0.0 else 0.0
    rd = _RD3
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = _F3
    s0, s1, s2 = sv_desc((
        rx0 * ry0 * rd * f0, rx0 * ry1 * rd * f1, rx0 * ry2 * rd * f2,
        rx1 * ry0 * rd * f3, rx1 * ry1 * rd * f4, rx1 * ry2 * rd * f5,
        rx2 * ry0 * rd * f6, rx2 * ry1 * rd * f7, rx2 * ry2 * rd * f8,
    ))
    return [3 * s0 * s0, 3 * s1 * s1, 3 * s2 * s2]


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
