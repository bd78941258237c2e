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
    MAJORIZATION_ATOL, SchmidtVector, ProbabilisticEnsemble, _integer, _screened, _total, _unit, _values_of
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


def _series_qubit(xs: list, ys: list) -> list:
    """The series rule at d = 2 in closed form, on descending inputs.

    The two outputs have sum S = (x1 + x2)(y1 + y2) and product
    4 x1 x2 y1 y2.  The discriminant S^2 - 16 x1 x2 y1 y2 is computed
    as the sum of nonnegative terms
    (x1 - x2)^2 (y1 + y2)^2 + (y1 - y2)^2 4 x1 x2, so the larger output
    (S + sqrt D) / 2 is a sum of nonnegative terms and the smaller one
    the product over it: no subtraction cancels, even on near-uniform
    links, where the textbook form loses half the digits.
    """
    x1, x2 = xs
    y1, y2 = ys
    s = (x1 + x2) * (y1 + y2)
    if s == 0.0:
        return [0.0, 0.0]
    dx = x1 - x2
    dy = y1 - y2
    sy = y1 + y2
    top = 0.5 * (s + math.sqrt(dx * dx * sy * sy + dy * dy * 4.0 * x1 * x2))
    low = 4.0 * x1 * x2 * y1 * y2 / top
    # when the outputs coincide, rounding can leave low an ulp above top
    return [top, low] if low <= top else [low, top]


def _purify_qubit(xs, ys) -> tuple:
    """The parallel rule at d = 2 in closed form: the entries of
    purify_rule([a * b for a in xs for b in ys], 2), for descending
    pairs xs and ys of nonnegative floats that sum to 1 within 1e-12,
    as a descending tuple.

    It makes the floating-point operations of purify_kernel and _unit
    on the four products, so it gives their bits:

    * the products: purify_rule screens them, which leaves nonnegative
      floats as they are (a product of two is never -0.0), and
      purify_kernel sorts them.  Rounding is monotone, so x1 >= x2 and
      y1 >= y2 make top = x1 y1 the largest product and the larger of
      x1 y2 and x2 y1 the second: srt[0] and srt[1] are top and mid.
    * s, the fsum of the four products, in any order: fsum is correctly
      rounded.
    * entry 0: the kernel's cap s / 2 against srt[0], the larger kept.
    * entry 1: the cap (s - v0) / 1 against srt[1]; a division by 1 is
      exact, so the cap is s - v0.
    * the total: _unit takes the fsum of the two entries, and the
      correctly rounded sum of two floats is v0 + v1.  It is at least
      top, which is near 1/4 or more, so _unit's ZeroSum cannot arise.
    * two divisions by the total, and _unit's descending sort, which
      leaves them in place: v1 <= v0.  For s, a normal float, s / 2 and
      s - s / 2 are exact halves, and where top >= s / 2, s - top is
      exact (Sterbenz) and at most top; mid <= top.  Rounding is
      monotone, so v1 / total <= v0 / total.
    """
    x1, x2 = xs
    y1, y2 = ys
    top = x1 * y1
    p = x1 * y2
    q = x2 * y1
    mid = p if p > q else q
    s = math.fsum((top, p, q, x2 * y2))
    v0 = s / 2
    if top >= v0:
        v0 = top
    v1 = s - v0
    if mid > v1:
        v1 = mid
    total = v0 + v1
    return v0 / total, v1 / total


def _series(xs, ys) -> list:
    """Spectrum of the series rule on descending sequences of
    nonnegative floats of one length d, both lists or both tuples; a
    descending list with total sum(xs) * sum(ys).

    The one function that picks the series route, by d.  Up to d = 3 no
    route loads numpy, so reducing such a network keeps its cold start
    short; every route keeps small entries at a few ulps relative (see
    swap_rule).  No route is bitwise symmetric in its operands, so the
    two vectors are ordered once, for every route: the flatter vector
    (larger min/max; ties broken by the entries) comes first, as x, and
    swapping the arguments returns the same bits.

    * d = 1: the product x * y; no kernel.
    * d = 2: the closed form _series_qubit; no kernel.
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
        return _series_qubit(xs, ys)
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
    vectors sorted descending.  _series, the one function that picks
    the route, takes the product at d = 1 and one of three routes above
    it, each accurate to a few ulps relative on every entry, small ones
    included: against 60-digit values, over 150 pairs per d of entries
    spread down to 1e-12 and of near-uniform links, the worst relative
    error of an output entry is

    * d = 2, a closed form in pure Python: 6.0e-16;
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
    At d = 2 the reduction takes _purify_qubit instead, a closed form
    with the bits of this rule on the four products.
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
