"""Seeded inputs for the library's d = 3 series kernels, and the recorded
digests of their outputs.

`_kernels_py.sv_desc` is the straight-line 3 x 3 one-sided Jacobi sweep
and `_kernels_py.swap_sv` the d = 3 series rule on it.  This module
draws the inputs that stress the two differently: link pairs for
`swap_sv` (Dirichlet links, entries spread down to 1e-12, near-uniform
links, product and rank-2 links, exact ties, and weak links whose two
small entries, between 1e-175 and 1e-150, make products of squared
column norms underflow) and raw complex matrices for `sv_desc` (Gaussian, columns
spread down to 1e-12, real, rank 1 and 2, zero columns, and the inputs
where a squared part is subnormal, zero or huge: columns near 1e-160,
columns from 1e-160 to 1e150, parts that are signed zeros, entries near
5e-320).  The draws use `random` alone and sum with `math.fsum`, so they
are the same floats under Python 3.10 to 3.13.  tests/test_matrices.py
pins the outputs per kind (tests/_digests.py).  It needs no numpy, so it
also runs as a script on any Python:

    PYTHONPATH=src python tests/_jacobi3_cases.py

draws 100,000 link pairs and as many matrices, checks the digests of
the draws and of the library's outputs against RECORDED, prints what
moved and the wall time, and exits 1 if anything did.
"""

import math
import random
import sys
import time

from _digests import Pin
from qnetdet import _kernels_py as kpy


def _normalized(values):
    # fsum: from Python 3.12 on, sum() of floats rounds otherwise
    total = math.fsum(values)
    return [v / total for v in values]


def _dirichlet(rng):
    return _normalized([rng.gammavariate(1.0, 1.0) for _ in range(3)])


def _spread(rng):
    return _normalized([10.0 ** rng.uniform(-12.0, 0.0) for _ in range(3)])


def _near_uniform(rng):
    return _normalized([1.0 + rng.uniform(-1e-3, 1e-3) for _ in range(3)])


def _product(rng):
    return [1.0, 0.0, 0.0]


def _rank2(rng):
    p = rng.uniform(0.5, 1.0)
    return [p, 1.0 - p, 0.0]


def _ties(rng):
    a = rng.uniform(0.0, 0.5)
    return rng.choice([[1.0 / 3.0] * 3, [a, a, 1.0 - 2.0 * a], [0.5, 0.5, 0.0]])


def _weak(rng):
    # two entries near 1e-160: squared column norms of the swap matrix
    # near 1e-170, whose products underflow
    return _normalized([1.0, 10.0 ** rng.uniform(-175.0, -150.0), 10.0 ** rng.uniform(-175.0, -150.0)])


# name -> draw(rng): a link vector of length 3, in no particular order
LINK_KINDS = {
    "dirichlet": _dirichlet,
    "spread": _spread,
    "near_uniform": _near_uniform,
    "product": _product,
    "rank2": _rank2,
    "ties": _ties,
    "weak": _weak,
}


def _entry(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _gaussian(rng):
    return [_entry(rng) for _ in range(9)]


def _scaled_columns(rng, low, high):
    scale = [10.0 ** rng.uniform(low, high) for _ in range(3)]
    return [_entry(rng) * scale[i % 3] for i in range(9)]


def _spread_columns(rng):
    return _scaled_columns(rng, -12.0, 0.0)


def _real(rng):
    return [rng.gauss(0.0, 1.0) for _ in range(9)]


def _rank1(rng):
    col = [_entry(rng) for _ in range(3)]
    row = [_entry(rng) for _ in range(3)]
    return [col[r] * row[k] for r in range(3) for k in range(3)]


def _rank2_matrix(rng):
    a, b = _entry(rng), _entry(rng)
    m = _gaussian(rng)
    for r in range(3):
        m[3 * r + 2] = a * m[3 * r] + b * m[3 * r + 1]
    return m


def _zero_columns(rng):
    m = _gaussian(rng)
    for k in rng.sample(range(3), rng.randint(1, 3)):
        for r in range(3):
            m[3 * r + k] = 0j
    return m


def _subnormal_squares(rng):
    # entries near 1e-160, whose squares and norm products are subnormal or 0
    return _scaled_columns(rng, -170.0, -150.0)


def _wide_columns(rng):
    # column norms from 1e-160 to 1e150, squares from subnormal to 1e300
    return _scaled_columns(rng, -160.0, 150.0)


def _part(rng):
    return rng.choice((0.0, -0.0, rng.gauss(0.0, 1.0)))


def _signed_zeros(rng):
    # parts that are +0.0 or -0.0 a third of the time each
    return [complex(_part(rng), _part(rng)) for _ in range(9)]


def _subnormal_entries(rng):
    # entries near 5e-320, themselves subnormal, whose squares are 0.0
    return [_entry(rng) * 5e-320 for _ in range(9)]


# name -> draw(rng): a row-major 3 x 3 matrix as a flat list
MATRIX_KINDS = {
    "gaussian": _gaussian,
    "spread_columns": _spread_columns,
    "real": _real,
    "rank1": _rank1,
    "rank2": _rank2_matrix,
    "zero_columns": _zero_columns,
    "subnormal_squares": _subnormal_squares,
    "wide_columns": _wide_columns,
    "signed_zeros": _signed_zeros,
    "subnormal_entries": _subnormal_entries,
}


def hexes(values):
    return [v.hex() for v in values]


def library_swap_sv(x, y):
    """The library's swap_sv on x and y sorted descending, as it takes them."""
    return kpy.swap_sv(sorted(x, reverse=True), sorted(y, reverse=True))


# digests of the draws and of the library's outputs for N link pairs and
# N matrices, drawn in turn from random.Random(0), as _digests.Pin
# writes them; recorded where both gave the generic loop's bits on
# every case
N = 100_000
RECORDED = {
    "link pairs": ("0ba3e685539bf033", "a4edf89847c7dacd"),
    "matrices": ("cbe7bcc8141c0f7e", "56aace8424ccea71"),
}


def pins(n):
    """Pins of n link pairs and n matrices drawn from every kind above."""
    rng = random.Random(0)
    links = list(LINK_KINDS.values())
    matrices = list(MATRIX_KINDS.values())
    pairs = Pin()
    raw = Pin()
    for _ in range(n):
        x = rng.choice(links)(rng)
        y = rng.choice(links)(rng)
        pairs.add((x, y), hexes(library_swap_sv(x, y)))
        m = rng.choice(matrices)(rng)
        raw.add(m, hexes(kpy.sv_desc(m)))
    return {"link pairs": pairs, "matrices": raw}


if __name__ == "__main__":
    start = time.perf_counter()
    drawn = pins(N)
    elapsed = time.perf_counter() - start
    failed = False
    for kind, pin in drawn.items():
        message = pin.mismatch(kind, RECORDED[kind])
        failed |= message is not None
        print(message or f"{kind}: {N} as recorded")
    print(f"{elapsed:.1f} s")
    sys.exit(1 if failed else 0)
