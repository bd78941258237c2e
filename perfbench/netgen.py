"""Seeded, exact-size series-parallel networks for the benchmark.

The generator uses numpy directly and never ``qnetdet.sampling``, so a
change to the library's samplers cannot change the benchmark's inputs.
Each link's strength is picked from its role so that every network
reduces to a non-degenerate vector, with a top entry well away from both
1/d (uniform) and 1 (product):

* a link composed in series is near-uniform, with a perturbation that
  shrinks with the number of series hops, because the series rule
  multiplies G-concurrences and a long chain of flat-Dirichlet links
  collapses to a product state;
* the k links of a bundle share a target top entry t > 1/d as the
  product of their own top entries, because the parallel rule keeps the
  product of the tops and saturates to uniform once it drops below 1/d.

Network sizes come from a golden-ratio sequence with a seeded offset and
heavy-bundle arities cycle through a fixed list, so every prefix of a
pool covers both evenly and the work per operation hardly depends on
the seed.
"""

import json
import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def spread(rng, count):
    """`count` fractions in [0, 1) whose every prefix is evenly spread."""
    return (rng.random() + _GOLDEN * np.arange(count)) % 1.0


def near_uniform(d, eps, rng):
    """Descending Schmidt vector (1 + eps * u) / d, u uniform in [-1, 1]."""
    v = 1.0 + eps * rng.uniform(-1.0, 1.0, d)
    return sorted((v / v.sum()).tolist(), reverse=True)


def with_top(d, top, rng):
    """Descending Schmidt vector with the given top entry; the rest of
    the mass is spread below it."""
    while True:
        rest = (1.0 - top) * rng.dirichlet(np.full(d - 1, 4.0))
        if rest.max() < top:
            v = np.concatenate(([top], rest))
            return sorted((v / v.sum()).tolist(), reverse=True)


def bundle_links(d, k, rng, lo, hi):
    """k links whose top entries multiply to a target t in 1/d + [lo, hi]."""
    target = 1.0 / d + rng.uniform(lo, hi)
    jitter = rng.uniform(-0.02, 0.02, k)
    tops = target ** (1.0 / k) * np.exp(jitter - jitter.mean())
    return [with_top(d, float(t), rng) for t in tops]


def qubit_with_concurrence(c):
    """Qubit Schmidt vector whose concurrence 2 sqrt(x1 x2) equals c."""
    top = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return [top, 1.0 - top]


def _split(rng, total, lo, hi):
    """Random parts in [lo, hi] summing exactly to total (total >= lo)."""
    parts = []
    while total > hi:
        k = int(rng.integers(lo, hi + 1))
        if total - k < lo:
            k = total - lo
        parts.append(k)
        total -= k
    parts.append(total)
    return parts


def chain_of_hops(hops):
    """Edges (u, v, vector) of a chain A - 2 - 3 - ... - B; node 0 is A,
    node 1 is B and each hop is a list of parallel link vectors."""
    nodes = [0] + list(range(2, len(hops) + 1)) + [1]
    return [
        (nodes[i], nodes[i + 1], vec)
        for i, hop in enumerate(hops)
        for vec in hop
    ]


def bundles_edges(rng, edges, heavy, d=4):
    """A chain whose every hop is a bundle: one heavy bundle of `heavy`
    weak links and bundles of 2-5 links filling exactly `edges` links."""
    arities = _split(rng, edges - heavy, 2, 5)
    arities.insert(int(rng.integers(0, len(arities) + 1)), heavy)
    return chain_of_hops([bundle_links(d, k, rng, 0.04, 0.10) for k in arities])


def chains_edges(rng, edges, d=8):
    """A chain of near-uniform links with about one hop in ten a bundle
    of 2 or 3 links, so about nine moves in ten are series moves."""
    arities = [int(k) for k in rng.integers(2, 4, max(1, round(edges / 12)))]
    singles = edges - sum(arities)
    # total G-concurrence of the chain stays near exp(-1/2)
    eps = math.sqrt(3.0 / (singles + len(arities))) * rng.uniform(0.8, 1.2)
    hops = [[near_uniform(d, eps, rng)] for _ in range(singles)]
    for k in arities:
        hops.insert(int(rng.integers(0, len(hops) + 1)), bundle_links(d, k, rng, 0.02, 0.05))
    return chain_of_hops(hops)


def nested_edges(rng, edges):
    """Qubit ladder G_k = series(parallel(G_(k-1), e), e) with exactly
    `edges` links; an even count starts from a two-link chain.

    The parallel link multiplies the top entry by 1 - a and the series
    link multiplies the concurrence by 1 - b; with a and b of one size
    the top entry is pulled back towards 3/4 at every level."""
    levels, extra = divmod(edges - 1, 2)
    out = [(0, 2, [0.75, 0.25])]
    far = 2
    if extra:
        out.append((far, far + 1, qubit_with_concurrence(1.0 - rng.uniform(0.005, 0.02))))
        far += 1
    for level in range(levels):
        nxt = 1 if level == levels - 1 else far + 1
        q = 1.0 - rng.uniform(0.005, 0.02)
        out.append((0, far, [q, 1.0 - q]))
        out.append((far, nxt, qubit_with_concurrence(1.0 - rng.uniform(0.005, 0.02))))
        far = nxt
    if levels == 0:
        out = [(u, 1 if v == far else v, vec) for u, v, vec in out]
    return out


def network_doc(rng, d, edges):
    """Network document with internal node names and edge order drawn
    from the seed; node 0 is terminal A and node 1 terminal B."""
    internal = sorted({n for u, v, _ in edges for n in (u, v)} - {0, 1})
    labels = rng.permutation(len(internal))
    names = {0: "A", 1: "B"}
    names.update({n: f"n{int(lab)}" for n, lab in zip(internal, labels)})
    order = rng.permutation(len(edges))
    return {
        "dimension": d,
        "terminals": ["A", "B"],
        "edges": [
            {"u": names[edges[i][0]], "v": names[edges[i][1]], "schmidt": edges[i][2]}
            for i in order
        ],
    }


# workload name -> (dimension, smallest and largest edge count)
SHAPES = {
    "reduce-bundles": (4, 20, 80),
    "reduce-chains": (8, 80, 240),
    "reduce-nested": (2, 100, 400),
}

_HEAVY = (6, 7, 7, 8, 9)


def make_pool(workload, seed, count):
    """`count` network documents for a reduce workload, from the seed alone."""
    d, lo, hi = SHAPES[workload]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    docs = []
    for i, f in enumerate(spread(rng, count)):
        n = lo + int(round(f * (hi - lo)))
        k = _HEAVY[i % len(_HEAVY)]
        if workload == "reduce-bundles":
            edges = bundles_edges(rng, n, k, d)
        elif workload == "reduce-chains":
            edges = chains_edges(rng, n, d)
        else:
            edges = nested_edges(rng, n)
        docs.append(network_doc(rng, d, edges))
    return docs


def dumps(doc):
    """JSON text of a network document, floats at full precision."""
    return json.dumps(doc, separators=(",", ":"))
