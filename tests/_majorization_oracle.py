"""Reference copies of retired majorization routes, for tests only.

`majorizes` below is the predicate as it stood before it read
`schmidt.majorization_slack`: one walk over the sorted prefix sums that
stops at the first prefix of y above that of x by more than tol, then
an `fsum` check of the totals.  `conversion_probability` is the rule as
it stood before its single walk: a call to that predicate on the padded
target, then its own walk for the tail-mass ratios.  The differential
tests in test_majorization.py compare the library against both.

The package never imports this module.
"""

import math

from qnetdet.errors import LengthMismatch, LengthMismatchAfterPadding
from qnetdet.schmidt import MAJORIZATION_ATOL, SchmidtVector, _values_of


def majorizes(x, y, tol: float = MAJORIZATION_ATOL) -> bool:
    xs = sorted(_values_of(x), reverse=True)
    ys = sorted(_values_of(y), reverse=True)
    if len(xs) != len(ys):
        raise LengthMismatch(f"lengths {len(xs)} and {len(ys)} differ")
    px = 0.0
    py = 0.0
    for k in range(len(xs) - 1):
        px += xs[k]
        py += ys[k]
        if px < py - tol:
            return False
    return abs(math.fsum(xs) - math.fsum(ys)) <= tol


def conversion_probability(source: SchmidtVector, target: SchmidtVector) -> float:
    src = sorted(source.entries if isinstance(source, SchmidtVector) else map(float, source), reverse=True)
    tgt = sorted(target.entries if isinstance(target, SchmidtVector) else map(float, target), reverse=True)
    m = len(src)
    if len(tgt) > m:
        raise LengthMismatchAfterPadding(f"target length {len(tgt)} exceeds source length {m}")
    tgt = tgt + [0.0] * (m - len(tgt))
    if majorizes(tgt, src, MAJORIZATION_ATOL):
        return 1.0
    best = 1.0
    ps = 0.0
    pt = 0.0
    for k in range(m):
        if k > 0:
            ps += src[k - 1]
            pt += tgt[k - 1]
        den = 1.0 - pt
        if den <= 1e-15:
            continue
        num = 1.0 - ps
        if num < 0.0:
            num = 0.0
        ratio = num / den
        if ratio < best:
            best = ratio
    return best
