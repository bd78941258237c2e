"""`schmidt.majorizes` reads `majorization_slack`, and
`rules.conversion_probability` decides determinism inside its one walk
over the prefix sums.  On seeded random pairs both decide as the
retired routes kept in _majorization_oracle.py, and the probabilities
agree bit for bit.  Where a prefix deficit is built to equal the
tolerance, rounding decides, and both follow the slack."""

import math

import _majorization_oracle as oracle
import numpy as np
import pytest

from qnetdet.errors import LengthMismatch, LengthMismatchAfterPadding
from qnetdet.rules import conversion_probability
from qnetdet.sampling import substream
from qnetdet.schmidt import MAJORIZATION_ATOL, SchmidtVector, majorization_slack, majorizes

SEED = 20261018
BATCHES = 40
PAIRS = 500  # per batch, 20,000 pairs in all

# mass moved between two entries: off the tolerance by far more than
# the rounding of a prefix sum
STEPS = (0.0, 1e-12, 5e-10, 2e-9, 1e-6)

# every accepted input type; iter gives a generator-like one-shot input
FORMS = (SchmidtVector, list, tuple, np.array, iter)


def _vector(d, rng) -> list:
    """A unit vector in shuffled order: a flat Dirichlet draw, integer
    weights (ties and zeros), a cut support or the uniform vector."""
    kind = int(rng.integers(4))
    if kind == 0:
        w = rng.dirichlet(np.ones(d))
    elif kind == 1:
        w = rng.integers(0, 4, size=d).astype(float)
        w[0] += 1.0
    elif kind == 2:
        w = rng.dirichlet(np.ones(d))
        w[int(rng.integers(1, d + 1)):] = 0.0
    else:
        w = np.ones(d)
    return rng.permutation(w / w.sum()).tolist()


def _transferred(x, rng, step=None) -> list:
    """x with mass ``step`` moved from one entry to another, drawn from
    STEPS if not given; no entry goes below zero."""
    y = list(x)
    if len(y) > 1:
        eps = STEPS[int(rng.integers(len(STEPS)))] if step is None else step
        j, k = int(rng.integers(len(y))), int(rng.integers(len(y) - 1))
        i = k + (k >= j)
        if y[j] >= eps:
            y[i] += eps
            y[j] -= eps
    return y


def _collapsed(x, n) -> list:
    """The n-1 largest entries of x and the rest of its mass in one."""
    xs = sorted(x, reverse=True)
    return xs[: n - 1] + [math.fsum(xs[n - 1 :])]


def _form(vals, rng):
    """A factory of inputs of one accepted type holding vals; a fresh
    iterator on each call.  Only unit vectors can be SchmidtVectors."""
    unit = abs(math.fsum(vals) - 1.0) <= 1e-12
    form = FORMS[int(rng.integers(0 if unit else 1, len(FORMS)))]
    if form is iter:
        return lambda: iter(vals)
    obj = form(vals)
    return lambda: obj


def _pair(rng):
    d = int(rng.integers(1, 10))
    x = _vector(d, rng)
    kind = int(rng.integers(3))
    if kind == 0:
        y = _vector(d, rng)
    elif kind == 1:
        y = _transferred(x, rng)
    else:
        y = _transferred(rng.permutation(x).tolist(), rng)
    if rng.random() < 0.2:
        # a total mismatch of either sign
        scale = 1.0 + (1.0, -1.0)[int(rng.integers(2))] * STEPS[int(rng.integers(1, len(STEPS)))]
        y = [v * scale for v in y]
    return x, y


@pytest.mark.parametrize("batch", range(BATCHES))
def test_decisions_and_probabilities_as_before(batch):
    rng = substream(SEED, "majorization", batch)
    for t in range(PAIRS):
        x, y = _pair(rng)
        fx, fy = _form(x, rng), _form(y, rng)
        # at tol = 0 the two prefix tests agree exactly
        tol = (MAJORIZATION_ATOL, 0.0)[t % 2]
        assert majorizes(fx(), fy(), tol) == oracle.majorizes(fx(), fy(), tol)
        assert majorizes(fy(), fx(), tol) == oracle.majorizes(fy(), fx(), tol)
        # a target shorter than the source is padded with zeros
        n = int(rng.integers(1, len(x) + 1))
        fp = _form(_transferred(_collapsed(x, n), rng), rng)
        for fs, ft in ((fx, fy), (fy, fx), (fx, fp)):
            got = conversion_probability(fs(), ft())
            assert got.hex() == oracle.conversion_probability(fs(), ft()).hex()


@pytest.mark.parametrize("d", range(2, 10))
def test_boundary_follows_the_slack(d):
    # a transfer of the tolerance itself leaves the deficit within a few
    # ulps of it, where the retired routes and the slack may part
    rng = substream(SEED, "boundary", d)
    outcomes = set()
    for _ in range(300):
        x = _vector(d, rng)
        eps = MAJORIZATION_ATOL + (-1e-16, 0.0, 1e-16)[int(rng.integers(3))]
        y = _transferred(x, rng, eps)
        slack = majorization_slack(x, y)
        within = slack <= MAJORIZATION_ATOL
        outcomes.add(within)
        assert majorizes(x, y) == within
        cp = conversion_probability(y, x)
        assert (cp == 1.0) == within and cp <= 1.0
    assert outcomes == {True, False}


def test_deficit_of_exactly_the_tolerance_is_within():
    # 2e-9 - 1e-9 is exact, a prefix deficit and no total mismatch
    assert majorization_slack([1e-9, 1e-9], [2e-9, 0.0]) == MAJORIZATION_ATOL
    assert majorizes([1e-9, 1e-9], [2e-9, 0.0])
    assert conversion_probability([2e-9, 0.0], [1e-9, 1e-9]) == 1.0
    assert not majorizes([1e-9, 1e-9], [2e-9, 0.0], tol=MAJORIZATION_ATOL / 2)


def test_non_finite_entries_decide_as_before():
    for x, y in (([math.nan, 0.5], [0.5, 0.5]), ([0.5, 0.5], [0.5, math.nan]), ([math.inf, 0.0], [0.5, 0.5])):
        assert majorizes(x, y) is oracle.majorizes(x, y) is False
        assert conversion_probability(y, x).hex() == oracle.conversion_probability(y, x).hex()


def test_length_errors():
    with pytest.raises(LengthMismatch):
        majorizes(iter([1.0]), (v for v in [0.5, 0.5]))
    with pytest.raises(LengthMismatchAfterPadding):
        conversion_probability([1.0], [0.5, 0.5])
