"""Exact elementary symmetric functions of the series rule, for tests only.

The series output is the squared singular values of
M = diag(sqrt x) F diag(sqrt y), with F[j, k] = w^(jk), w = exp(-2 pi i / d),
j, k = 1..d, and both vectors sorted descending.  By Cauchy-Binet,

    e_k(swap(x, y)) = sum over |I| = |J| = k of x_I * y_J * |det F[I, J]|^2,

x_I the product of the entries of x indexed by I.  Every term is
nonnegative, so math.fsum gives each e_k to a few ulps, however spread the
entries are.  k = 1 is the total sum(x) * sum(y), k = d the determinant
identity d^d prod(x) prod(y).

The weights |det F[I, J]|^2 (C(2d, d) - 1 of them) are computed once per d
with no rounding that matters.  The Leibniz expansion gives
det F[I, J] = sum_r c_r w^r with integer counts c_r, so
|det F[I, J]|^2 = sum_t a_t cos(2 pi t / d) with the integer
autocorrelation a_t = sum_r c_r c_(r+t mod d).  That sum is evaluated in
60-digit decimal arithmetic and rounded once to a float.  A nonzero weight
is an algebraic integer whose conjugates are at most (k!)^2, so for d <= 8
it is at least 1e-15; values below 1e-30 are exact zeros and are dropped.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext

MAX_D = 8

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _cos(theta: Decimal) -> Decimal:
    # Taylor series; theta lies in [0, 2 pi), so no term exceeds ~80
    term = Decimal(1)
    total = term
    n = 0
    while True:
        n += 2
        term = -term * theta * theta / (n * (n - 1))
        if abs(term) < Decimal("1e-70"):
            return total
        total += term


def _parity(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _weight(rows, cols, d: int, cosines) -> float:
    counts = [0] * d
    for perm in itertools.permutations(range(len(cols))):
        r = sum(i * cols[p] for i, p in zip(rows, perm)) % d
        counts[r] += _parity(perm)
    auto = [sum(counts[r] * counts[(r + t) % d] for r in range(d)) for t in range(d)]
    with localcontext() as ctx:
        ctx.prec = 60
        value = sum(a * c for a, c in zip(auto, cosines))
    return float(value) if abs(value) >= Decimal("1e-30") else 0.0


@functools.lru_cache(maxsize=None)
def weights(d: int) -> tuple:
    """For k = 1..d, the (I, J, |det F[I, J]|^2) with a nonzero weight;
    I and J are 0-based positions in the descending x and y."""
    if not 1 <= d <= MAX_D:
        raise ValueError(f"the oracle covers 1 <= d <= {MAX_D}, not {d}")
    with localcontext() as ctx:
        ctx.prec = 60
        cosines = [_cos(2 * _PI * t / d) for t in range(d)]
    out = []
    for k in range(1, d + 1):
        terms = []
        for rows in itertools.combinations(range(d), k):
            for cols in itertools.combinations(range(d), k):
                w = _weight([i + 1 for i in rows], [j + 1 for j in cols], d, cosines)
                if w:
                    terms.append((rows, cols, w))
        out.append(tuple(terms))
    return tuple(out)


def series_esym(x, y) -> list:
    """[e_1, ..., e_d] of the unnormalized series output on nonnegative x
    and y of one length d, each to a few ulps."""
    xs = sorted(map(float, x), reverse=True)
    ys = sorted(map(float, y), reverse=True)
    if len(xs) != len(ys):
        raise ValueError("x and y differ in length")
    return [
        math.fsum(math.prod(xs[i] for i in rows) * math.prod(ys[j] for j in cols) * w for rows, cols, w in terms)
        for terms in weights(len(xs))
    ]


def esym(values, k: int) -> float:
    """e_k of nonnegative values, summed with math.fsum."""
    return math.fsum(math.prod(c) for c in itertools.combinations(values, k))
