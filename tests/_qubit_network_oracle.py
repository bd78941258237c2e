"""An exact reference for whole qubit networks, independent of the
library's tail route.

The reduction folds a qubit network on one tail per edge id
(`network._folded`): the series rule as `rules._series_tail`, the
parallel rule as `network._tail_parallel`.  This module folds the same
moves of `network._decompose` over the *vectors* in 60-digit `Decimal`:

* a series move takes the two eigenvalues of the 2 x 2 swap matrix, by
  the discriminant written as a sum of nonnegative terms,
  (x1 - x2)^2 (y1 + y2)^2 + (y1 - y2)^2 4 x1 x2; the larger output is
  (S + sqrt D) / 2 with S = (x1 + x2)(y1 + y2), the smaller one the
  product 4 x1 x2 y1 y2 over it;
* a parallel move folds its bundle pairwise: the four products of the
  running vector and the next member, then the water-filling scan down
  to two entries, the remaining mass read as a sum of what is left.

Alongside it folds the scalar forms on tails, also in `Decimal`, and
asserts that the two agree to 50 digits, so the scalar forms are checked
against the rules they stand for.  The CEP figure is exact: each link
scores 2t, a `Fraction`, series moves multiply and a bundle gives
1 - prod(1 - p_i).  `check` compares a library report with all of this:
every `det_vector` entry, every C_k and `cep_probability` within
BOUND_PER_MOVE relative for each move and one more for the links (a
figure below the smallest normal float is held absolutely, and C_2 only
where the exact tail is a normal float).  `bundle_mismatch` and
`series_mismatch` hold single steps the same way, on links drawn by
kind (`KINDS`): Dirichlet, near-uniform, tied, product, weak and
subnormal-tailed.

The draws use `random` alone, so they need no numpy, and this module
also runs as a script on any Python:

    PYTHONPATH=src python tests/_qubit_network_oracle.py [COUNT]

checks COUNT seeded networks (2000 by default): the qubit networks of
tests/_reduce_corpus.py, every other one with each link's tail redrawn
from 10^U(-12, -1), prints the count, the worst relative error of each
figure and the wall time, and exits 1 naming the first network out of
bounds.
"""

import decimal
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import _reduce_corpus as corpus

from qnetdet.network import _decompose, _tail_parallel, network_from_dict, report
from qnetdet.rules import _series_tail, _tail, swap_rule
from qnetdet.schmidt import SchmidtVector

SEED = 20261022
PRECISION = 60
AGREE = Decimal(10) ** -50

# Largest relative error of a reported figure, against the exact value.
# Each move adds a few ulps and a chain passes a tail's relative error
# on about whole, so the bound is 8 ulps per move, with one move's worth
# for the edge itself
ULP = 2.0**-52
_TINY = Fraction(2.0**-1022)
BOUND_PER_MOVE = 8 * ULP

_CTX = decimal.Context(prec=PRECISION)
_HALF = Decimal("0.5")
_TWO = Decimal(2)


def _vector(entries):
    """The exact vector of a SchmidtVector's two entries, normalized."""
    x1, x2 = (Decimal(v) for v in entries)
    total = _CTX.add(x1, x2)
    return _CTX.divide(x1, total), _CTX.divide(x2, total)


def series(x, y):
    """The series rule on two exact qubit vectors, by the discriminant."""
    with decimal.localcontext(_CTX):
        x1, x2 = x
        y1, y2 = y
        s = (x1 + x2) * (y1 + y2)
        prod = 4 * x1 * x2 * y1 * y2
        disc = (x1 - x2) ** 2 * (y1 + y2) ** 2 + (y1 - y2) ** 2 * 4 * x1 * x2
        top = (s + disc.sqrt()) / 2
        return top, prod / top


def parallel(bundle):
    """The parallel rule on exact qubit vectors: pairwise, each step the
    water-filling scan of the four products down to two entries."""
    with decimal.localcontext(_CTX):
        acc = bundle[0]
        for vec in bundle[1:]:
            srt = sorted((a * b for a in acc for b in vec), reverse=True)
            total = sum(srt)
            if srt[0] >= total / 2:
                acc = (srt[0], sum(srt[1:]))
            else:
                acc = (total / 2, total / 2)
        return acc


def series_tail(a, b):
    """The scalar series form on exact tails."""
    with decimal.localcontext(_CTX):
        ca = 4 * a * (1 - a)
        cb = 4 * b * (1 - b)
        da = 1 - 2 * a
        db = 1 - 2 * b
        return ca * cb / (2 * (1 + (da * da + db * db * ca).sqrt()))


def parallel_tail(tails):
    """The scalar parallel form on exact tails: 1 - prod(1 - t), capped."""
    with decimal.localcontext(_CTX):
        t = Decimal(0)
        for s in tails:
            t += s * (1 - t)
        return min(t, _HALF)


def _agree(vec, tail):
    low = vec[1]
    if abs(low - tail) > AGREE * max(low, tail):
        raise AssertionError(f"vector rule tail {low} and scalar form {tail} differ")


def exact(network):
    """(moves, det vector, C_2, cep) of a qubit network, exactly: the
    vector fold, checked against the scalar fold, and the CEP fold."""
    moves, root = _decompose(network)
    vecs = [_vector(e.link.entries) for e in network.edges]
    tails = [vec[1] for vec in vecs]
    scores = [2 * Fraction(v[1]) / (Fraction(v[0]) + Fraction(v[1])) for v in (e.link.entries for e in network.edges)]
    for op, ids, _ in moves:
        *ins, _ = ids
        if op == "series":
            vecs.append(series(vecs[ins[0]], vecs[ins[1]]))
            tails.append(series_tail(tails[ins[0]], tails[ins[1]]))
            scores.append(scores[ins[0]] * scores[ins[1]])
        elif op == "parallel":
            vecs.append(parallel([vecs[e] for e in ins]))
            tails.append(parallel_tail([tails[e] for e in ins]))
            miss = Fraction(1)
            for e in ins:
                miss *= 1 - scores[e]
            scores.append(1 - miss)
        else:
            continue
        _agree(vecs[-1], tails[-1])
    top, low = vecs[root]
    c2 = _CTX.multiply(_TWO, _CTX.sqrt(_CTX.multiply(top, low)))
    return moves, (top, low), c2, scores[root]


def _rel(got, want):
    """|got - want| / |want| of a float against an exact value, with
    |want| taken as at least the smallest normal float: below it a float
    holds fewer digits, and the error is absolute."""
    want = Fraction(want)
    return float(abs(Fraction(got) - want) / max(abs(want), _TINY))


def errors(network):
    """(bound, {figure: relative error}) of the library's report."""
    rep = report(network)
    moves, (top, low), c2, cep = exact(network)
    moved = sum(op != "drop" for op, _, _ in moves)
    got = rep["det_vector"]
    errs = {
        "det_top": _rel(got[0], top),
        "det_tail": _rel(got[1], low),
        "C_1": _rel(rep["concurrence"]["C_1"], 1),
        # C_2 = 2 sqrt(t (1 - t)) holds the digits of the tail t, and
        # a subnormal t holds fewer than 53 bits
        "C_2": _rel(rep["concurrence"]["C_2"], c2) if low >= _TINY else 0.0,
        "cep": _rel(rep["cep_probability"], cep),
    }
    return (moved + 1) * BOUND_PER_MOVE, errs


def check(network):
    """None when every figure of the report is within its bound, else a
    line naming the first that is not."""
    bound, errs = errors(network)
    for name, err in errs.items():
        if err > bound:
            return f"{name} off by {err:.3g} relative, bound {bound:.3g}"
    return None


def _link(p):
    # the constructor sorts the entries
    return SchmidtVector([p, 1.0 - p])


# qubit links by kind, drawn with random alone
KINDS = {
    "dirichlet": lambda rng: _link(rng.betavariate(1.0, 1.0)),
    "near_uniform": lambda rng: _link(0.5 + 10.0 ** rng.uniform(-16.0, -3.0)),
    "tie": lambda rng: SchmidtVector([0.5, 0.5]),
    "product": lambda rng: SchmidtVector([1.0, 0.0]),
    "weak": lambda rng: _link(10.0 ** rng.uniform(-300.0, -1.0)),
    "subnormal": lambda rng: _link(rng.choice((5e-324, 1e-320, 1e-310, 2.2e-308))),
}
MAX_ARITY = 12


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


def bundle_mismatch(links):
    """None when _tail_parallel's tail of the bundle is within the bound
    of the parallel rule on its exact vectors, else a line saying how far
    off it is."""
    got = _tail_parallel([_tail(vec.entries) for vec in links])
    want = parallel([_vector(vec.entries) for vec in links])[1]
    err = _rel(got, want)
    if err > len(links) * BOUND_PER_MOVE:
        return f"bundle {[vec.entries for vec in links]!r}: tail {got!r} off by {err:.3g} relative"
    return None


def series_mismatch(x, y):
    """None when _series_tail joins x and y, in either order, to the same
    bits, and swap_rule's vector is within the bound of the series rule
    on the exact vectors entry by entry; else a line naming the first
    difference."""
    a, b = _tail(x.entries), _tail(y.entries)
    if _series_tail(a, b).hex() != _series_tail(b, a).hex():
        return f"series {x.entries!r} with {y.entries!r}: the order moves a bit"
    want = series(_vector(x.entries), _vector(y.entries))
    for entry, (g, w) in enumerate(zip(swap_rule(x, y).entries, want)):
        err = _rel(g, w)
        if err > 2 * BOUND_PER_MOVE:
            return f"series {x.entries!r} with {y.entries!r}: entry {entry} off by {err:.3g} relative"
    return None


def first_bundle_mismatch(count, seed=SEED):
    """The first of `count` seeded bundles out of bounds, as a line, or
    None."""
    rng = random.Random(f"{seed}-bundles")
    for i in range(count):
        bad = bundle_mismatch(bundle(rng))
        if bad is not None:
            return f"bundle {i}: {bad}"
    return None


def first_series_mismatch(count, seed=SEED):
    """The first of `count` seeded pairs out of bounds, as a line, or
    None."""
    rng = random.Random(f"{seed}-series")
    for i in range(count):
        bad = series_mismatch(*bundle(rng, 2))
        if bad is not None:
            return f"pair {i}: {bad}"
    return None


def weak_links(doc, rng):
    """The network document with every link's tail drawn from
    10^U(-12, -1)."""
    edges = []
    for edge in doc["edges"]:
        tail = 10.0 ** rng.uniform(-12.0, -1.0)
        edges.append({**edge, "schmidt": [1.0 - tail, tail]})
    return {**doc, "edges": edges}


def networks(count, seed=SEED):
    """`count` seeded qubit networks, as tests/_reduce_corpus.py draws
    them, every other one with weak links."""
    rng = random.Random(f"qubit-oracle/{seed}")
    out = []
    for i in range(count):
        doc = corpus.network(rng, 2)
        out.append(network_from_dict(weak_links(doc, rng) if i % 2 else doc))
    return out


def main(argv):
    count = int(argv[0]) if argv else 2000
    start = time.perf_counter()
    worst = {}
    for i, net in enumerate(networks(count)):
        bound, errs = errors(net)
        for name, err in errs.items():
            worst[name] = max(worst.get(name, 0.0), err)
            if err > bound:
                print(f"network {i}: {name} off by {err:.3g} relative, bound {bound:.3g}")
                return 1
    figures = ", ".join(f"{name} {err:.2g}" for name, err in worst.items())
    print(f"python {sys.version.split()[0]}: {count} qubit networks within bounds; worst relative error: {figures} "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
