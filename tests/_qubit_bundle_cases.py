"""Seeded qubit links, and the check that the reduction's closed-form
steps give the bits of the rules they stand for.

`network._det_parallel` folds a d = 2 bundle in floats, each step the
closed form `rules._purify_qubit`, and makes one vector.  The reference
folds the same members in the same ascending order, each step a
`purify_rule` call on the four products of the running vector and the
next member.  Both the bundle's vector and every step must agree by
`float.hex`.  `network._det_series` joins two qubit links in series by
the closed form `rules._series_qubit` and one division by the sum of
its two outputs; on each seeded pair it must give the bits of
`swap_rule`, in both argument orders.  The links are drawn by kind:
Dirichlet links, near-uniform links, exact ties [0.5, 0.5], product
links [1.0, 0.0], weak links with a tail of 10^U(-300, -1) and links
with a subnormal tail; a bundle mixes them, at arity 2 to 12, and so
does a pair.  The draws use `random` alone, so they need no numpy and
this module also runs as a script on any Python:

    PYTHONPATH=src python tests/_qubit_bundle_cases.py [COUNT]

folds COUNT seeded bundles and joins COUNT seeded pairs (100,000 of
each by default) both ways, prints the counts and the wall time, and
exits 1 naming the first mismatch.
"""

import random
import sys
import time

from qnetdet.network import _det_parallel, _det_series
from qnetdet.rules import _purify_qubit, purify_rule, swap_rule
from qnetdet.schmidt import SchmidtVector

SEED = 20261021
MAX_ARITY = 12
SUBNORMAL_TAILS = (5e-324, 1e-320, 1e-310, 2.2e-308)


def _link(p):
    # the constructor sorts the entries
    return SchmidtVector([p, 1.0 - p])


def _dirichlet(rng):
    a, b = rng.gammavariate(1.0, 1.0), rng.gammavariate(1.0, 1.0)
    return _link(a / (a + b))


def _near_uniform(rng):
    return _link(0.5 + 10.0 ** rng.uniform(-16.0, -3.0))


def _tie(rng):
    return SchmidtVector([0.5, 0.5])


def _product(rng):
    return SchmidtVector([1.0, 0.0])


def _weak(rng):
    return _link(10.0 ** rng.uniform(-300.0, -1.0))


def _subnormal(rng):
    return _link(rng.choice(SUBNORMAL_TAILS))


KINDS = {
    "dirichlet": _dirichlet,
    "near_uniform": _near_uniform,
    "tie": _tie,
    "product": _product,
    "weak": _weak,
    "subnormal": _subnormal,
}


def bundle(rng, k=None):
    """A bundle of k qubit links, 2 to MAX_ARITY if not given, of one
    kind or of a mix."""
    kinds = list(KINDS.values())
    if k is None:
        k = rng.randint(2, MAX_ARITY)
    if rng.random() < 0.5:
        draw = rng.choice(kinds)
        return [draw(rng) for _ in range(k)]
    return [rng.choice(kinds)(rng) for _ in range(k)]


def _hex(entries):
    return [v.hex() for v in entries]


def mismatch(links):
    """None when the closed-form fold of the bundle and every one of its
    steps give the bits of the pairwise purify_rule route; else a line
    naming the first difference."""
    acc, *rest = sorted(links, key=lambda vec: vec.entries)
    for vec in rest:
        got = _purify_qubit(acc.entries, vec.entries)
        want = purify_rule([a * b for a in acc.entries for b in vec.entries], 2)
        if _hex(got) != _hex(want.entries):
            return f"step {acc.entries!r} with {vec.entries!r}: closed form {_hex(got)}, purify_rule {_hex(want.entries)}"
        acc = want
    got = _det_parallel(links).entries
    if _hex(got) != _hex(acc.entries):
        links = [vec.entries for vec in links]
        return f"bundle {links!r}: _det_parallel {_hex(got)}, purify_rule {_hex(acc.entries)}"
    return None


def series_mismatch(x, y):
    """None when _det_series joins x and y, in either order, with the
    bits of swap_rule; else a line naming the first difference."""
    want = _hex(swap_rule(x, y).entries)
    for p, q in ((x, y), (y, x)):
        got = _hex(_det_series(p, q).entries)
        if got != want:
            return f"series {p.entries!r} with {q.entries!r}: _det_series {got}, swap_rule {want}"
    return None


def first_mismatch(count, seed=SEED):
    """The first of `count` seeded bundles whose routes disagree, as a
    line, or None."""
    rng = random.Random(seed)
    for i in range(count):
        bad = mismatch(bundle(rng))
        if bad is not None:
            return f"bundle {i}: {bad}"
    return None


def first_series_mismatch(count, seed=SEED):
    """The first of `count` seeded pairs whose routes disagree, as a
    line, or None."""
    rng = random.Random(f"{seed}-series")
    for i in range(count):
        bad = series_mismatch(*bundle(rng, 2))
        if bad is not None:
            return f"pair {i}: {bad}"
    return None


def main(argv):
    count = int(argv[0]) if argv else 100_000
    start = time.perf_counter()
    bad = first_mismatch(count) or first_series_mismatch(count)
    print(
        f"python {sys.version.split()[0]}: {count} qubit bundles and {count} pairs, "
        f"{'a mismatch' if bad else 'no mismatch'} ({time.perf_counter() - start:.1f} s)"
    )
    if bad:
        print(f"  {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
