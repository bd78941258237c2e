"""Seeded networks reduced through `qnetdet reduce`, one sha256 per
dimension over every output byte.

Each network is a chain, a chain of bundles, a nested ladder
(G_k = series(parallel(G_(k-1), e), e)), parallel chains or a network
grown by series splits and parallel doublings, with a self-loop, a
pendant or an island on no A-B path now and then, so that `drop` events
appear.  Node names, terminal names and edge order are drawn too, and
links mix Dirichlet, near-uniform, weak (top entry near 1), spread and
cut-support vectors.  Everything comes from `random.Random`, so the
inputs do not depend on numpy or on the benchmark's generator.  Each
network goes through `cli.main(["reduce", ...])` from a file of a fixed
name in a scratch directory, so the manifest, and with it the digest,
does not depend on where the directory is.

At d = 2 and 3 the reduction runs in pure Python, so those digests
hold on any platform; from d = 4 up the series rule is a LAPACK SVD and
its bits are those of one numpy build.  As a script:

    PYTHONPATH=src python tests/_reduce_corpus.py N D [D ...]

reduces N networks at each dimension D and prints one line per D,
``d=D n=N sha256=<hex>``.
"""

import hashlib
import json
import math
import os
import random
import sys
import tempfile

from qnetdet import cli


def _normalized(values):
    # fsum: from Python 3.12 on, sum() of floats rounds otherwise
    total = math.fsum(values)
    return [v / total for v in values]


def _link(rng, d):
    kind = rng.randrange(5)
    if kind == 0:  # Dirichlet
        return _normalized([rng.gammavariate(1.0, 1.0) for _ in range(d)])
    if kind == 1:  # near-uniform
        return _normalized([1.0 + rng.uniform(-0.05, 0.05) for _ in range(d)])
    if kind == 2:  # weak: the top entry near 1
        top = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
        rest = _normalized([rng.gammavariate(1.0, 1.0) for _ in range(d - 1)]) if d > 1 else []
        return [top] + [(1.0 - top) * v for v in rest]
    if kind == 3:  # entries spread over decades
        return _normalized([10.0 ** rng.uniform(-9.0, 0.0) for _ in range(d)])
    # cut support: some entries exactly zero
    keep = rng.randint(1, d)
    return _normalized([rng.gammavariate(1.0, 1.0) for _ in range(keep)]) + [0.0] * (d - keep)


def _chain(rng, size):
    nodes = ["A"] + [f"c{i}" for i in range(size - 1)] + ["B"]
    return list(zip(nodes, nodes[1:]))


def _bundles(rng, size):
    pairs = []
    for u, v in _chain(rng, rng.randint(1, max(1, size // 3))):
        pairs += [(u, v)] * rng.randint(1, 5)
    return pairs


def _ladder(rng, size):
    levels = max(1, size // 2)
    pairs = [("A", "l0")]
    for level in range(levels):
        far = "B" if level == levels - 1 else f"l{level + 1}"
        pairs.append(("A", f"l{level}"))
        pairs.append((f"l{level}", far))
    return pairs


def _paths(rng, size):
    pairs = []
    for path in range(rng.randint(2, 5)):
        hops = rng.randint(1, max(1, size // 4))
        nodes = ["A"] + [f"p{path}_{i}" for i in range(hops - 1)] + ["B"]
        pairs += zip(nodes, nodes[1:])
    return pairs


def _grown(rng, size):
    # from one A-B edge, split an edge in series or double it in parallel
    pairs = [("A", "B")]
    while len(pairs) < size:
        k = rng.randrange(len(pairs))
        u, v = pairs[k]
        if rng.random() < 0.5:
            mid = f"g{len(pairs)}"
            pairs[k] = (u, mid)
            pairs.append((mid, v))
        else:
            pairs.append((u, v))
    return pairs


SHAPES = (_chain, _bundles, _ladder, _paths, _grown)


def network(rng, d):
    """One network document of dimension d, drawn from rng."""
    pairs = SHAPES[rng.randrange(len(SHAPES))](rng, rng.randint(1, 60))
    nodes = sorted({n for pair in pairs for n in pair})
    # drawn names; the terminals are renamed too
    names = dict(zip(nodes, (f"{rng.choice('npqxyz')}{i}" for i in rng.sample(range(10 * len(nodes)), len(nodes)))))
    pairs = [(names[u], names[v]) if rng.random() < 0.5 else (names[v], names[u]) for u, v in pairs]
    rng.shuffle(pairs)
    inner = [n for pair in pairs for n in pair]
    for extra in range(rng.choice((0, 0, 1, 2, 3))):
        at = rng.choice(inner)
        off = (
            (at, at),  # a self-loop
            (at, f"pendant{extra}"),
            (f"island{extra}a", f"island{extra}b"),
        )[rng.randrange(3)]
        pairs.insert(rng.randint(0, len(pairs)), off)
    edges = [{"u": u, "v": v, "schmidt": _link(rng, d)} for u, v in pairs]
    return {"dimension": d, "terminals": [names["A"], names["B"]], "edges": edges}


def digest(d, n, seed=0):
    """sha256 of the `qnetdet reduce` outputs of n networks of dimension
    d, in order, with the exit code of each."""
    rng = random.Random(f"reduce-corpus/{seed}/{d}")
    sha = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for _ in range(n):
                with open("net.json", "w", encoding="utf-8") as fh:
                    json.dump(network(rng, d), fh)
                code = cli.main(["reduce", "net.json", "--out", "out.json"])
                sha.update(b"%d\n" % code)
                if code == 0:
                    with open("out.json", "rb") as fh:
                        sha.update(fh.read())
                    os.remove("out.json")
        finally:
            os.chdir(here)
    return sha.hexdigest()


if __name__ == "__main__":
    count = int(sys.argv[1])
    for dim in map(int, sys.argv[2:]):
        print(f"d={dim} n={count} sha256={digest(dim, count)}")
