"""Reference copy of the per-operator outcome helper, for tests only.

`_numpy_outcomes` below is `qnetdet.checks._numpy_outcomes` as it stood
before the batched rewrite: one scaled operator, one `np.vdot` and one
`np.linalg.svd` per measurement element.  It is kept verbatim as the
oracle that the differential tests in test_outcomes.py compare the
batched helper against, and the package never imports this module.
"""

import numpy as np

# outcomes below this probability carry no statistical weight and are
# numerically unstable to renormalize
_PROB_FLOOR = 1e-14


def _numpy_outcomes(x_entries, y_entries, elements) -> list:
    """Outcome ensemble (probability, sorted spectrum) of operators
    X_a acting on a state: each X_a becomes
    diag(sqrt(x)) X_a diag(sqrt(y)).  Two-sided swap measurements pass
    both link spectra; one-sided Kraus operators pass x = ones.
    Computed on the plain numpy path, independent of the library
    kernels, so the Monte Carlo loops do not assume what they test."""
    rx = np.sqrt(np.asarray(x_entries, dtype=float))
    ry = np.sqrt(np.asarray(y_entries, dtype=float))
    out = []
    for m in elements:
        psi = rx[:, None] * m * ry[None, :]
        p = float(np.vdot(psi, psi).real)
        if p < _PROB_FLOOR:
            continue
        sv = np.linalg.svd(psi, compute_uv=False)
        out.append((p, np.sort(sv * sv)[::-1] / p))
    return out
