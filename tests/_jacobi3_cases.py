"""Seeded inputs for the library's d = 3 series kernels, and their
bit-for-bit comparison with the generic one-sided Jacobi loop.

`_kernels_py.sv_desc`, the straight-line 3 x 3 sweep, must return
exactly the bits of `_jacobi_oracle.sv_jacobi(3, 3, a)`, and
`_kernels_py.swap_sv` those of `_jacobi_oracle.swap_sv`.  This module
draws the inputs that stress the two differently: link pairs for
`swap_sv` (Dirichlet links, entries spread down to 1e-12, near-uniform
links, product and rank-2 links, exact ties, and weak links whose two
small entries, between 1e-175 and 1e-150, make products of squared
column norms underflow) and raw complex matrices for `sv_desc` (Gaussian, columns
spread down to 1e-12, real, rank 1 and 2, zero columns, and the inputs
where a squared part is subnormal, zero or huge: columns near 1e-160,
columns from 1e-160 to 1e150, parts that are signed zeros, entries near
5e-320).  It needs no numpy and imports `qnetdet._kernels_py` and the
oracle only, so it also runs as a script on any Python:

    PYTHONPATH=src python tests/_jacobi3_cases.py 100000 [SEED]

draws that many link pairs and as many matrices, prints the number of
results whose `float.hex` differs and the wall time, and exits 1 if
any does.
"""

import random
import sys
import time

import _jacobi_oracle as oracle
from qnetdet import _kernels_py as kpy


def _normalized(values):
    total = sum(values)
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


def mismatches(n, seed=0):
    """The inputs, among n link pairs and n matrices drawn from every
    kind above, where the library and the generic loop differ."""
    rng = random.Random(seed)
    links = list(LINK_KINDS.values())
    matrices = list(MATRIX_KINDS.values())
    bad = []
    for _ in range(n):
        x = rng.choice(links)(rng)
        y = rng.choice(links)(rng)
        if hexes(library_swap_sv(x, y)) != hexes(oracle.swap_sv(x, y)):
            bad.append((x, y))
        m = rng.choice(matrices)(rng)
        if hexes(kpy.sv_desc(3, 3, m)) != hexes(oracle.sv_jacobi(3, 3, m)):
            bad.append(m)
    return bad


if __name__ == "__main__":
    n = int(sys.argv[1])
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    start = time.perf_counter()
    bad = mismatches(n, seed)
    elapsed = time.perf_counter() - start
    print(f"{n} link pairs and {n} matrices, seed {seed}: {len(bad)} mismatches in {elapsed:.1f} s")
    for case in bad[:5]:
        print("mismatch:", case)
    sys.exit(1 if bad else 0)
