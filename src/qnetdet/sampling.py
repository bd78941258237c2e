"""Seeded samplers feeding the Monte Carlo verification suite.

Every function takes an explicit ``numpy.random.Generator``.  Each trial
draws from the stream that :func:`substream` keys by a (seed, stream name,
trial index) hash, so any single trial of any check can be replayed in
isolation and full runs aggregate to identical reports in any order.

Every flat-Dirichlet draw is ``_flat``: unit exponentials times the
reciprocal of their left-to-right sum, as ``Generator.dirichlet`` computes
them; the tests hold it to that method's bits and stream position.
"""

import hashlib
import itertools

import numpy as np

from .errors import DimensionTooSmall, RejectionBudgetExceeded, SingularNormalizer
from .network import Edge, QuantumNetwork
from .rules import Povm, _isometric
from .schmidt import SchmidtVector, _integer, majorizes

__all__ = [
    "substream",
    "random_schmidt",
    "random_positive",
    "sample_povm",
    "sample_povm_arrays",
    "sample_local_kraus",
    "sample_wide_kraus",
    "dominated_vector",
    "log_damped",
    "dominating_candidate",
    "tail_collapse",
    "random_network",
]

RESAMPLE_BUDGET = 8

# a draw is rejected when the smallest squared diagonal entry of its
# Gram matrix's Cholesky factor L falls below this ratio of the largest.
# Each L_ii^2 lies between the extreme eigenvalues, so only a Gram
# matrix with condition number above 1e10 is rejected; the floor need
# not catch every such matrix, so the samplers also check completeness
_COND_FLOOR = 1e-10


def _key(seed, name, trial):
    """Philox key of one trial: the first 16 bytes of a SHA-256 hash."""
    digest = hashlib.sha256(f"{seed}|{name}|{trial}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def substream(seed, name, trial):
    """Independent generator for one named trial.

    Parameters
    ----------
    seed : int
        Run seed; any integer.
    name : str
        Stream label, typically the check name.
    trial : int
        Trial index within the stream.

    Returns
    -------
    numpy.random.Generator
        Philox-backed generator keyed by the SHA-256 hash of the
        arguments.  Distinct labels give independent streams, so trials
        never share state and may be evaluated in any order.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, name, trial)))


def _trial_streams(seed, name):
    """substream(seed, name, t) for t = 0, 1, ..., as one generator
    re-keyed before each yield through the bit_generator.state setter: a
    fresh generator's state dict (counter, buffer, buffer_pos, has_uint32,
    uinteger) under trial t's key.  Each is spent once the next is drawn."""
    rng = substream(seed, name, 0)
    start = rng.bit_generator.state
    for t in itertools.count():
        start["state"]["key"] = _key(seed, name, t)
        rng.bit_generator.state = start
        yield rng


def _flat(n, rng):
    """n flat-Dirichlet floats, bit for bit ``rng.dirichlet(np.ones(n))``:
    its path for alphas of 0.1 and above draws n standard gammas, at shape
    1 unit exponentials, and scales each by the reciprocal of their
    left-to-right sum (a loop: ``sum()`` compensates from Python 3.12 on)."""
    draws = rng.standard_exponential(n).tolist()
    acc = 0.0
    for x in draws:
        acc += x
    return [x * (1.0 / acc) for x in draws]  # at n = 0, [] and no division


def random_schmidt(dimension, rng):
    """Random Schmidt vector from the flat Dirichlet measure, drawn by
    ``_flat`` bit for bit as ``rng.dirichlet(np.ones(dimension))``."""
    return SchmidtVector(_flat(_integer("dimension", dimension), rng))


def random_positive(length, rng):
    """Strictly positive vector with entries spread over ~two decades:
    unit-mean exponential draws plus 0.01.

    The additive offset keeps log-domain checks away from -inf without
    thinning the exponential tail.
    """
    return (rng.exponential(1.0, size=length) + 0.01).tolist()


def _complex_gaussian(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orthonormalized(stack):
    # stack has shape (m, n), m >= n.  With its Gram matrix factored as
    # G = stack^H stack = L L^H (Cholesky), stack L^{-H} is the Q of the
    # QR decomposition of stack whose R = L^H has a positive diagonal,
    # so its columns are orthonormal; for a complex-Gaussian stack Q is
    # Haar-distributed (Mezzadri, Notices AMS 54, 2007).  None when G
    # is numerically singular.
    try:
        low = np.linalg.cholesky(stack.conj().T @ stack)
    except np.linalg.LinAlgError:
        return None
    diag = low.diagonal().real
    if diag.min() ** 2 < _COND_FLOOR * diag.max() ** 2:
        return None
    # stack L^{-H} = (conj(L)^{-1} stack^T)^T, conjugated in place so that
    # no n x n or m x n copy is made beyond the solve's own
    return np.linalg.solve(np.conj(low, out=low), stack.T).T


def _complete(shape, width, rng, what):
    # the first of up to RESAMPLE_BUDGET complex-Gaussian draws of this
    # shape, orthonormalized as rows of ``width`` entries, that passes
    # validate_povm's test _isometric; a singular draw is skipped, and
    # SingularNormalizer names the complete ``what`` none of them gave
    for _ in range(RESAMPLE_BUDGET):
        out = _orthonormalized(_complex_gaussian(shape, rng).reshape(-1, width))
        if out is not None:
            els = out.reshape(shape)
            if _isometric(els.reshape(-1, width)):
                return els
    raise SingularNormalizer(f"no complete {what} in {RESAMPLE_BUDGET} draws")


def sample_povm_arrays(dimension, count, rng):
    """Random complete swap measurement as a (count, d, d) complex array.

    Draws ``count`` complex-Gaussian d x d matrices A_a and stacks their
    vectorizations as the rows of a count x d^2 matrix V.  With its Gram
    matrix V^dagger V = L L^dagger factored by Cholesky, the elements are
    the rows of V L^{-dagger}, the Q factor of V's QR decomposition with
    a positive diagonal, which satisfies the completeness relation
    whenever V has full column rank.  That requires count >= d^2.  In
    floating point an ill-conditioned V can miss completeness by more
    than validate_povm's tolerance, so a draw is returned only once it
    passes validate_povm's test, _isometric; otherwise the next is drawn.

    Raises
    ------
    SingularNormalizer
        count < d^2, before anything is drawn, or no draw was accepted
        within RESAMPLE_BUDGET.
    """
    n = dimension * dimension
    if count < n:
        raise SingularNormalizer(
            f"{count} elements cannot complete a measurement at dimension {dimension}, which needs {n}"
        )
    return _complete((count, dimension, dimension), n, rng, f"{count}-element measurement at dimension {dimension}")


def sample_povm(dimension, count, rng):
    """sample_povm_arrays as a Povm."""
    return Povm(sample_povm_arrays(dimension, count, rng))


def sample_local_kraus(dimension, count, rng):
    """Random one-sided measurement: ``count`` d x d Kraus operators
    K_a with sum_a K_a^dagger K_a = identity, as a (count, d, d) array.

    Applying them to one half of a pure state yields a probabilistic
    ensemble whose sorted-spectrum average majorizes the source
    spectrum, the locality limit every protocol check builds on.

    Raises
    ------
    SingularNormalizer
        No complete draw within RESAMPLE_BUDGET.
    """
    return _complete((count, dimension, dimension), dimension, rng, "one-sided Kraus measurement")


def sample_wide_kraus(dimension, count, rng):
    """Random measurement mapping a d^2-level system to d levels:
    ``count`` d x d^2 Kraus operators with the completeness relation on
    the d^2 side.  Needs count >= d.

    Raises
    ------
    SingularNormalizer
        count < d, before anything is drawn, or no complete draw within
        RESAMPLE_BUDGET.
    """
    n = dimension * dimension
    if count < dimension:
        raise SingularNormalizer(f"{count} operators cannot complete a {n}-level measurement")
    return _complete((count, dimension, n), n, rng, "rank-reducing Kraus measurement")


def dominated_vector(base, steps, rng):
    """Vector majorized by ``base``: applies ``steps`` random pairwise
    transfers, each moving two coordinates toward their mean.

    Transfers preserve the total and can only lower sorted partial
    sums, so the result is majorized by the input for any step count.
    Fewer than two entries admit no transfer and return, as floats, undrawn.
    """
    out = np.array(base, dtype=float)
    n = len(out)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        t = rng.uniform(0.0, 0.5)
        a, b = out[i], out[j]
        out[i] = (1.0 - t) * a + t * b
        out[j] = t * a + (1.0 - t) * b
    return out.tolist()


def log_damped(base, rng):
    """Entrywise product of ``base`` with factors in [0.5, 1).

    The log of the result sits pointwise below the log of ``base``, so
    after sorting it is weakly submajorized by it.
    """
    u = rng.uniform(0.5, 1.0, size=len(base))
    return (np.asarray(base, dtype=float) * u).tolist()


def tail_collapse(values, dimension):
    """Shortest deterministic dominator: keep the dimension-1 largest
    entries and merge the remaining tail mass into one entry, zero-padded
    to exactly ``dimension`` entries.  DimensionTooSmall below 1."""
    if dimension < 1:
        raise DimensionTooSmall(f"cannot collapse to dimension {dimension}")
    xs = sorted((float(v) for v in values), reverse=True)
    xs += [0.0] * (dimension - len(xs))
    head = xs[: dimension - 1]
    head.append(float(np.sum(xs[dimension - 1 :])))
    return sorted(head, reverse=True)


def dominating_candidate(values, dimension, budget, rng):
    """Rejection-sample a ``dimension``-entry unit vector whose
    zero-padding majorizes ``values``.

    Returns
    -------
    (SchmidtVector, int)
        The accepted candidate and the number of draws used.

    Raises
    ------
    RejectionBudgetExceeded
        No draw accepted within ``budget`` attempts.
    """
    xs = [float(v) for v in values]
    pad = len(xs) - dimension
    for attempt in range(1, budget + 1):
        cand = random_schmidt(dimension, rng)
        if majorizes(list(cand.entries) + [0.0] * pad, xs):
            return cand, attempt
    raise RejectionBudgetExceeded(f"no dominating candidate in {budget} draws")


def random_network(dimension, max_edges, rng):
    """Random two-terminal series-parallel network with 1..max_edges
    edges; links are flat-Dirichlet Schmidt vectors.

    Grown from a single terminal-to-terminal edge by repeatedly either
    splitting an edge in series through a fresh node or duplicating an
    edge in parallel, so the result reduces by construction.
    """
    pairs = [("A", "B")]
    fresh = 0
    target = int(rng.integers(1, max_edges + 1))
    while len(pairs) < target:
        k = int(rng.integers(0, len(pairs)))
        u, v = pairs[k]
        if rng.random() < 0.5:
            fresh += 1
            mid = f"n{fresh}"
            pairs[k] = (u, mid)
            pairs.append((mid, v))
        else:
            pairs.append((u, v))
    edges = [Edge(u, v, random_schmidt(dimension, rng)) for u, v in pairs]
    return QuantumNetwork(dimension, ("A", "B"), edges)
