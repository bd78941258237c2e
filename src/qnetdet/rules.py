"""Combination rules for links of a quantum network.

Two operations generate everything:

* the series (swapping) rule: the Schmidt vector obtained
  deterministically when two links meet at an intermediate node and the
  node measures in a generalized Bell basis, and
* the parallel (purification) rule: the largest Schmidt vector (in the
  majorization order) reachable with certainty from a bundle of links,
  found by an equal-share water-filling scan.

Together with the classic formula for the optimal conversion
probability between two pure states they drive the network reduction
and the verification suite.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from ._frozen import Frozen
from .backend import kernels
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidPovm,
    LengthMismatchAfterPadding,
    ShapeMismatch,
)
from .schmidt import (
    MAJORIZATION_ATOL, SchmidtVector, ProbabilisticEnsemble, _integer, _screened, _total, _unit, _values_of, _vector
)

# Measurement outcomes below this probability carry no statistical
# weight and are numerically unstable to renormalize.
OUTCOME_PROB_FLOOR = 1e-14

# Largest entry deviation of a Gram matrix from the identity that a
# complete measurement may show.
COMPLETENESS_TOL = 1e-10


class Povm(Frozen):
    """Measurement in vectorized form: `elements`, a read-only complex
    numpy array of shape (K, d, d) holding square matrices X_alpha whose
    vectorizations satisfy the completeness relation
    sum_alpha conj(X_alpha[mu,nu]) X_alpha[mu',nu'] = delta delta.

    Two measurements are equal only when they are the same object, and
    hash by identity: an array has no single truth value.

    Raises
    ------
    ShapeMismatch
        The elements are empty, not 3-D or not square.
    """

    __slots__ = ("elements",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, elements):
        # numpy is imported here, in validate_povm, in _outcome_spectra
        # and in the d >= 4 series rule only, so that reducing a network
        # of d <= 3 does not load it
        import numpy as np

        try:
            arr = np.array(elements, dtype=complex)
        except ValueError as exc:
            raise ShapeMismatch("elements must be square and equally sized") from exc
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.size == 0:
            raise ShapeMismatch(f"elements of shape {arr.shape} are not a non-empty stack of square matrices")
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @property
    def dimension(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@functools.lru_cache(maxsize=None)
def _fourier(d: int):
    """The d x d Fourier matrix with 1-based indices and unit-modulus
    entries exp(-2 pi i jk / d); cached per d, read-only."""
    import numpy as np

    idx = np.arange(1, d + 1)
    f = np.exp(-2j * np.pi * (np.outer(idx, idx) % d) / d)
    f.setflags(write=False)
    return f


def _flatness(sorted_desc) -> float:
    top = sorted_desc[0]
    return sorted_desc[-1] / top if top > 0.0 else 1.0


def _tail(xs) -> float:
    """The tail of a descending qubit vector: its smaller entry over its
    total, so that (1 - t, t) reads back as t."""
    return xs[1] / (xs[0] + xs[1])


def _series_tail(a: float, b: float) -> float:
    """The series rule at d = 2 on tails: the smaller entry of the
    vector that two links of tails a and b, each at most 1/2, join into.

    Concurrences multiply, C^2 = 4t(1 - t), and with e = 1 - 2t the new
    tail is C_a^2 C_b^2 / (2(1 + sqrt(e_a^2 + e_b^2 C_a^2))), since
    1 - C_a^2 C_b^2 = e_a^2 + e_b^2 C_a^2.  Every term is nonnegative, so
    nothing cancels, however weak or near-uniform the links.  The larger
    tail is taken as a, so the arguments commute bit for bit.
    """
    if b > a:
        a, b = b, a
    ca = 4.0 * a * (1.0 - a)
    da = 1.0 - 2.0 * a
    db = 1.0 - 2.0 * b
    return ca * 4.0 * b * (1.0 - b) / (2.0 * (1.0 + math.sqrt(da * da + db * db * ca)))


def _series(xs, ys) -> list:
    """Spectrum of the series rule on descending sequences of
    nonnegative floats of one length d, both lists or both tuples; a
    descending list with total sum(xs) * sum(ys).

    The one function that picks the series route, by d (swap_rule takes
    the d = 2 step itself, unscaled, so that its output reads back as
    its tail).  Up to d = 3 no route loads numpy, so reducing such a
    network keeps its cold start short; every route keeps small entries
    at a few ulps relative (see swap_rule).  No route is bitwise symmetric in its operands, so the
    two vectors are ordered once, for every route: the flatter vector
    (larger min/max; ties broken by the entries) comes first, as x, and
    swapping the arguments returns the same bits.

    * d = 1: the product x * y; no kernel.
    * d = 2: (1 - t, t) for the tail t of _series_tail on the two
      tails (see _tail), scaled by the product of the totals, as the
      adjugate vectors of the duality checks need; no kernel.
    * d = 3: kernels.swap_sv, which takes the descending vectors as they
      are, builds diag(sqrt x) F diag(sqrt y), x on the rows, and takes
      its singular values from kernels.sv_desc, a one-sided Jacobi sweep
      in pure Python, straight-lined for 3 x 3.
    * d >= 4: the squared singular values of
      diag(sqrt x) F diag(sqrt y) (F from _fourier, x on the rows), from
      one np.linalg.svd call.  Zero entries are dropped from the matrix,
      so the output has exactly d - min(#nonzero x, #nonzero y) trailing
      zeros (a leading rows-by-columns block of F has full rank), counted
      only when a vector's last entry is zero.  One np.sqrt covers both.
    """
    if (_flatness(ys), ys) > (_flatness(xs), xs):
        xs, ys = ys, xs
    d = len(xs)
    if d == 1:
        return [xs[0] * ys[0]]
    if d == 2:
        sx, sy = xs[0] + xs[1], ys[0] + ys[1]
        t = _series_tail(xs[1] / sx, ys[1] / sy) if sx * sy > 0.0 else 0.0
        return [sx * sy * (1.0 - t), sx * sy * t]
    if d == 3:
        return kernels.swap_sv(xs, ys)
    import numpy as np

    p = d if xs[-1] > 0.0 else sum(v > 0.0 for v in xs)
    q = d if ys[-1] > 0.0 else sum(v > 0.0 for v in ys)
    roots = np.sqrt(xs + ys)
    m = roots[:p, None] * _fourier(d)[:p, :q]
    m *= roots[d : d + q]
    s = np.linalg.svd(m, compute_uv=False)
    return (s * s).tolist() + [0.0] * (d - min(p, q))


def swap_rule(x: SchmidtVector, y: SchmidtVector) -> SchmidtVector:
    """Series rule: Schmidt vector produced by a deterministic swap at a
    node joining links x and y.

    Equals the squared singular values of diag(sqrt(x)) F diag(sqrt(y)),
    renormalized, with F the unit-modulus Fourier matrix and both
    vectors sorted descending.  At d = 2 a link is its tail (see _tail)
    and the output (1 - t, t) for t from _series_tail, the step the
    network reduction folds; otherwise _series, which picks the route,
    takes the product at d = 1 and one of two routes from d = 3 on.
    Each is accurate to a few ulps relative on every entry, small ones
    included: against 60-digit values, over 150 pairs per d of entries
    spread down to 1e-12 and of near-uniform links (at d = 2, 20,000
    pairs of Dirichlet, near-uniform, tied, product, weak and
    subnormal-tailed links), the worst relative error of an output
    entry is

    * d = 2, a scalar map in pure Python: 4.7e-16.  Folded over whole
      qubit networks it keeps every printed figure, det_vector, C_2
      and cep_probability, within 2e-15 relative of the exact value
      (4,000 seeded networks, half with tails down to 1e-12;
      tests/_qubit_network_oracle.py);
    * d = 3, kernels.swap_sv, a pure-Python one-sided Jacobi sweep
      straight-lined for the 3 x 3 shape: 1.6e-15;
    * d >= 4, one LAPACK SVD of the sorted, scaled matrix: 5e-15 at
      d=4..8.  The bits are those of one numpy/LAPACK build, and do not
      depend on the number of BLAS threads.

    Every route sees the same operand ordering, so the result does not
    depend on the argument order, bit for bit.

    Raises
    ------
    DimensionMismatch
        Links of different local dimension.
    """
    if not isinstance(x, SchmidtVector):
        x = SchmidtVector(x)
    if not isinstance(y, SchmidtVector):
        y = SchmidtVector(y)
    xs, ys = x.entries, y.entries
    if len(xs) != len(ys):
        raise DimensionMismatch(f"dimensions {len(xs)} and {len(ys)} differ")
    if len(xs) == 2:
        # the reduction's step, whose output reads back as its tail
        t = _series_tail(_tail(xs), _tail(ys))
        return _vector((1.0 - t, t))
    return _unit(_series(xs, ys))


def _swap_raw(xs, ys) -> list:
    """Series rule on raw, possibly unnormalized nonnegative vectors.

    Scale covariant: output total is (sum xs) * (sum ys).  Used by the
    determinant duality checks, which need the rule on adjugate vectors
    that do not sum to one.  Same route as swap_rule.
    """
    if len(xs) != len(ys):
        raise DimensionMismatch(f"lengths {len(xs)} and {len(ys)} differ")
    return _series(sorted(_values_of(xs), reverse=True), sorted(_values_of(ys), reverse=True))


def purify_rule(x, d: int) -> SchmidtVector:
    """Parallel rule: the majorization-largest d-dimensional Schmidt
    vector deterministically reachable from Schmidt vector x.

    Entry l of the result is the larger of the l-th largest entry of x
    and an equal share of the mass not yet assigned; the scan preserves
    the total.  x may be longer than d: the network reduction folds a
    bundle of links pairwise, applying this to the d*d tensor product of
    the running vector and the next link, which equals applying it once
    to the product of the whole bundle (the lemma_parallel_fold check).
    At d = 2 the reduction folds a bundle on tails instead
    (network._tail_parallel): the four products leave the top entry
    prod(1 - t_i) or the level 1/2, so the tail is 1 - prod(1 - t_i),
    capped at 1/2.
    A SchmidtVector is read as it is; any other iterable is screened
    first, as every value handed to the package is (schmidt._screened),
    and need not sum to one.

    Raises
    ------
    ValueError
        d is not an integer (see schmidt._integer).
    DimensionTooSmall
        d < 1 or x shorter than d.
    NonFiniteEntry, NegativeEntry
        The entries of a plain iterable fail the screen.
    """
    if type(d) is not int:
        d = _integer("d", d)
    xs = x.entries if isinstance(x, SchmidtVector) else _screened(x)
    if d < 1 or len(xs) < d:
        raise DimensionTooSmall(f"cannot map length {len(xs)} to dimension {d}")
    return _unit(kernels.purify_kernel(xs, d))


def conversion_probability(source: SchmidtVector, target: SchmidtVector) -> float:
    """Greatest probability of converting the source pure state into the
    target by local operations and classical communication.

    The value is min over prefixes k of the tail-mass ratio
    (1 - sum of the k largest source entries) / (1 - same for target),
    with the target zero-padded to the source length.  Prefixes where
    the target tail vanishes are skipped.  The same one walk tracks the
    prefix deficits of the target below the source: the result is
    exactly 1.0 when every prefix deficit and the total mismatch are
    <= MAJORIZATION_ATOL, the condition for a deterministic conversion.

    The walk is split in two, ``_target_side`` and ``_source_walk``:
    ``network._cep``, which converts every link to the uniform vector,
    takes the target's side once and runs the source walk per link, in
    the same operations and order, so the same bits, as this function.

    Raises
    ------
    LengthMismatchAfterPadding
        Target strictly longer than the source; padding cannot reconcile
        a rank increase.
    NonFiniteEntry
        A total, once compared, overflows or adds infinities of both signs.
    """
    src = sorted(_values_of(source), reverse=True)
    return _source_walk(src, _target_side(sorted(_values_of(target), reverse=True), len(src)))


def _target_side(tgt, m: int) -> tuple:
    """The walk's part that reads no source: (prefix sums pt, 1 - pt,
    entries) of descending target entries zero-padded to length m."""
    if len(tgt) > m:
        raise LengthMismatchAfterPadding(f"target length {len(tgt)} exceeds source length {m}")
    tgt = list(tgt) + [0.0] * (m - len(tgt))
    pts = list(itertools.accumulate(tgt[: m - 1], initial=0.0))
    return pts, [1.0 - pt for pt in pts], tgt


def _source_walk(src, side) -> float:
    """The conversion probability of descending source entries to the
    target whose ``_target_side`` at their length is side."""
    pts, dens, tgt = side
    best = 1.0
    deficit = -math.inf
    ps = 0.0
    # the empty prefix leaves both as they are: its ratio is 1.0 / 1.0
    for k in range(1, len(dens)):
        ps += src[k - 1]
        if ps - pts[k] > deficit:
            deficit = ps - pts[k]
        num = 1.0 - ps
        if num < 0.0:
            num = 0.0
        if dens[k] > 1e-15 and num / dens[k] < best:
            best = num / dens[k]
    if deficit <= MAJORIZATION_ATOL and abs(_total(tgt) - _total(src)) <= MAJORIZATION_ATOL:
        return 1.0
    return best


def _outcome_spectra(x_entries, y_entries, elements) -> tuple:
    """(probabilities, spectra) of operators X_a acting on a state: X_a
    becomes Psi_a = diag(sqrt(x)) X_a diag(sqrt(y)), with probability
    |Psi_a|^2, a float of the list, and spectrum its squared singular
    values over that probability, descending, a row of the 2-D array.
    Swap measurements pass both link spectra, one-sided Kraus operators
    x = ones.  Outcomes below OUTCOME_PROB_FLOOR are dropped; the rest
    go through one stacked LAPACK SVD, which returns each matrix's
    singular values in descending order.  The stack is scaled C-contiguous
    and each probability is one np.vdot per row, so the result equals
    that of a per-operator loop bit for bit (a strided row or a batched
    sum rounds otherwise)."""
    import numpy as np

    rx = np.sqrt(np.asarray(x_entries, dtype=float))
    ry = np.sqrt(np.asarray(y_entries, dtype=float))
    psi = np.multiply(rx[:, None], elements, order="C")
    psi *= ry[None, :]
    probs = [float(np.vdot(row, row).real) for row in psi]
    keep = [a for a, p in enumerate(probs) if p >= OUTCOME_PROB_FLOOR]
    kept = [probs[a] for a in keep]
    if len(keep) < len(probs):
        psi = psi[keep]
    sv = np.linalg.svd(psi, compute_uv=False)
    return kept, sv * sv / np.array(kept)[:, None]


def enumerate_swap_outcomes(x: SchmidtVector, y: SchmidtVector, povm: Povm) -> ProbabilisticEnsemble:
    """All measurement outcomes of swapping links x and y through the
    given measurement, as (probability, Schmidt vector) pairs.

    Element alpha produces the matrix Psi[j,k] = sqrt(x_j) X_alpha[j,k]
    sqrt(y_k); its squared Frobenius norm is the outcome probability and
    its squared singular values, renormalized, the outcome Schmidt
    vector.  Outcomes below probability OUTCOME_PROB_FLOOR are dropped.
    One stacked LAPACK SVD and one tolist() of its spectra per
    measurement (_outcome_spectra, shared with the Monte Carlo checks),
    so the bits are those of one numpy build.

    Raises
    ------
    DimensionMismatch, InvalidPovm
    """
    if not isinstance(x, SchmidtVector):
        x = SchmidtVector(x)
    if not isinstance(y, SchmidtVector):
        y = SchmidtVector(y)
    d = x.dimension
    if y.dimension != d or povm.dimension != d:
        raise DimensionMismatch("links and measurement must share one dimension")
    if not validate_povm(povm):
        raise InvalidPovm("completeness relation fails")
    probs, spectra = _outcome_spectra(x.entries, y.entries, povm.elements)
    return ProbabilisticEnsemble(zip(probs, map(_unit, spectra.tolist())))


def _isometric(stack, tol: float = COMPLETENESS_TOL) -> bool:
    """Whether the 2-D complex array stack has orthonormal columns: its
    Gram matrix stack^dagger stack is the identity within tol (max entry
    deviation).  A NaN entry fails."""
    import numpy as np

    gram = stack.conj().T @ stack
    return bool(np.max(np.abs(gram - np.eye(len(gram)))) <= tol)


def validate_povm(povm: Povm, tol: float = COMPLETENESS_TOL) -> bool:
    """Check the vectorized completeness relation: the Gram matrix of the
    vectorized elements must be the identity within tol (max entry
    deviation)."""
    d = povm.dimension
    return _isometric(povm.elements.reshape(len(povm), d * d), tol)


def deterministic_swap_povm(d: int) -> Povm:
    """The d*d-element measurement whose every outcome reproduces the
    series rule exactly: element alpha = 1..d^2 has entries
    exp(-alpha(d mu + nu) 2 pi i / d^2 - 2 pi i mu nu / d) / d
    for mu, nu = 1..d.  Cached per int d, as schmidt._integer reads it
    (np.int64(3) gets the object of 3); the elements are read-only."""
    return _swap_povm(_integer("d", d))


@functools.lru_cache(maxsize=None)
def _swap_povm(d: int) -> Povm:
    if d < 1:
        raise ShapeMismatch("dimension must be positive")

    def entry(alpha, mu, nu):
        ang = -2.0 * math.pi * alpha * (d * mu + nu) / (d * d) - 2.0 * math.pi * mu * nu / d
        return cmath.exp(1j * ang) / d

    idx = range(1, d + 1)
    return Povm([[[entry(alpha, mu, nu) for nu in idx] for mu in idx] for alpha in range(1, d * d + 1)])


def bell_povm_d2() -> Povm:
    """The four-element qubit Bell measurement in vectorized form."""
    s = 1.0 / math.sqrt(2.0)
    return Povm(
        [
            [[s, 0], [0, s]],
            [[s, 0], [0, -s]],
            [[0, s], [s, 0]],
            [[0, s], [-s, 0]],
        ]
    )
