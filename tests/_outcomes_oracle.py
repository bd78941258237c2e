"""Reference copies of retired outcome routes, for tests only.

`_numpy_outcomes` below is the Monte Carlo checks' outcome helper as it
stood before the batched rewrite: one scaled operator, one `np.vdot`
and one `np.linalg.svd` per measurement element.  The differential
tests in test_outcomes.py compare `qnetdet.rules._outcome_spectra`
against it bit for bit.

`per_element_outcomes` is the body of `enumerate_swap_outcomes` as it
stood before that function went through the same stacked SVD: a
pure-Python loop over the elements with one `math.fsum` probability and
one one-sided Jacobi SVD per element, the generic loop of
_jacobi_oracle.py.  The tests compare the
library against it within 1e-14.

The package never imports this module.
"""

import math

import numpy as np
from _jacobi_oracle import sv_jacobi

from qnetdet.schmidt import normalize_descending

# outcomes below this probability carry no statistical weight and are
# numerically unstable to renormalize
_PROB_FLOOR = 1e-14


def _numpy_outcomes(x_entries, y_entries, elements) -> list:
    """Outcome ensemble (probability, sorted spectrum) of operators
    X_a acting on a state: each X_a becomes
    diag(sqrt(x)) X_a diag(sqrt(y)).  Two-sided swap measurements pass
    both link spectra; one-sided Kraus operators pass x = ones."""
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


def per_element_outcomes(x, y, povm) -> list:
    """(probability, Schmidt vector) pairs of swapping Schmidt vectors x
    and y through the measurement `povm`, one element at a time."""
    d = x.dimension
    rx = [math.sqrt(v) for v in x.entries]
    ry = [math.sqrt(v) for v in y.entries]
    outcomes = []
    for elem in povm.elements.tolist():
        psi = [rx[j] * row[k] * ry[k] for j, row in enumerate(elem) for k in range(d)]
        p = math.fsum(v.real * v.real + v.imag * v.imag for v in psi)
        if p < _PROB_FLOOR:
            continue
        sv = sv_jacobi(d, d, psi)
        outcomes.append((p, normalize_descending(s * s for s in sv)))
    return outcomes
