"""The retired flat-Dirichlet spelling, and its bit-for-bit comparison
with `sampling._flat`, the normalized-exponential sampler that replaced it.

`dirichlet(n, rng)` is what `random_schmidt`, `lemma_duality`,
`isotone_maps` and `_fold_link` drew before: `Generator.dirichlet` on n
unit alphas.  The tests swap it in for `sampling._flat` and require the
same report bytes.  Run as a script,

    PYTHONPATH=src python tests/_sampling_oracle.py 100000 [SEED]

it draws that many seeded vectors, n = 1..16 in turn, each from two
generators of one seed, prints the numpy version, the number of vectors
whose `float.hex` differs or whose generators end at different stream
positions, and the wall time, and exits 1 if any does.
"""

import sys
import time

import numpy as np

from qnetdet import sampling


def dirichlet(n, rng):
    """n flat-Dirichlet floats the way the library drew them before."""
    return rng.dirichlet(np.ones(n)).tolist()


def mismatches(count, seed=0, sizes=range(1, 17)):
    """Vectors among ``count`` draws on which `sampling._flat` and
    `dirichlet` differ in a bit or in the position they leave the
    generator at, cycling through ``sizes``."""
    sizes = list(sizes)
    bad = 0
    for i in range(count):
        n = sizes[i % len(sizes)]
        a = np.random.default_rng([seed, i])
        b = np.random.default_rng([seed, i])
        got = [v.hex() for v in sampling._flat(n, a)]
        want = [v.hex() for v in dirichlet(n, b)]
        bad += got != want or a.random() != b.random()
    return bad


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 100000
    seed = int(argv[2]) if len(argv) > 2 else 0
    start = time.perf_counter()
    bad = mismatches(count, seed)
    print(
        f"numpy {np.__version__}: {bad} of {count} flat-Dirichlet draws differ "
        f"({time.perf_counter() - start:.1f} s)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
