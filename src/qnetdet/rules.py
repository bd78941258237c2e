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


# The series rule goes through one LAPACK SVD from this dimension up.
# Below it, d = 2 is a closed form and d = 3 the pure-Python one-sided
# Jacobi kernels.swap_sv, so that reducing a network of d <= 3 never
# loads numpy and its cold start stays short.  Every route keeps small
# entries at a few ulps relative (see swap_rule).
SERIES_LAPACK_MIN_D = 4


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


def _series(xs, ys) -> list:
    """Spectrum of the series rule on descending sequences of
    nonnegative floats of one length d, both lists or both tuples; a
    descending list with total sum(xs) * sum(ys).

    No route is bitwise symmetric in its operands, so the two vectors
    are ordered once, for every route: the flatter vector (larger
    min/max; ties broken by the entries) comes first, as x, and swapping
    the arguments returns the same bits.

    * d = 2: the closed form _series_qubit; no kernel, no numpy.
    * d = 1, 3: kernels.swap_sv, a one-sided Jacobi SVD of
      diag(sqrt x) F diag(sqrt y) in pure Python, x on the rows.
    * d >= SERIES_LAPACK_MIN_D: the squared singular values of
      diag(sqrt x) F diag(sqrt y) (F from _fourier, x on the rows), from
      one np.linalg.svd call.  Zero entries are dropped from the matrix,
      so the output has exactly d - min(#nonzero x, #nonzero y) trailing
      zeros (a leading rows-by-columns block of F has full rank).
    """
    if (_flatness(ys), ys) > (_flatness(xs), xs):
        xs, ys = ys, xs
    d = len(xs)
    if d == 2:
        return _series_qubit(xs, ys)
    if d < SERIES_LAPACK_MIN_D:
        return kernels.swap_sv(xs, ys)
    import numpy as np

    p = sum(v > 0.0 for v in xs)
    q = sum(v > 0.0 for v in ys)
    m = np.sqrt(xs[:p])[:, None] * _fourier(d)[:p, :q] * np.sqrt(ys[:q])
    s = np.linalg.svd(m, compute_uv=False)
    return (s * s).tolist() + [0.0] * (d - min(p, q))


def swap_rule(x: SchmidtVector, y: SchmidtVector) -> SchmidtVector:
    """Series rule: Schmidt vector produced by a deterministic swap at a
    node joining links x and y.

    Equals the squared singular values of diag(sqrt(x)) F diag(sqrt(y)),
    renormalized, with F the unit-modulus Fourier matrix and both
    vectors sorted descending.  Three routes compute it (see _series),
    each accurate to a few ulps relative on every entry, small ones
    included: against 60-digit values, over 150 pairs per d of entries
    spread down to 1e-12 and of near-uniform links, the worst relative
    error of an output entry is

    * d = 2, a closed form in pure Python: 6.0e-16;
    * d = 3, the pure-Python one-sided Jacobi kernels.swap_sv: 1.6e-15;
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
    if x.dimension != y.dimension:
        raise DimensionMismatch(f"dimensions {x.dimension} and {y.dimension} differ")
    return _unit(_series(x.entries, y.entries))


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


def _descending(x):
    """The entries of x in descending order: a SchmidtVector's tuple as
    it is, any other iterable read by ``_values_of`` and sorted."""
    vals = _values_of(x)
    return vals if type(vals) is tuple else sorted(vals, reverse=True)


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

    Raises
    ------
    LengthMismatchAfterPadding
        Target strictly longer than the source; padding cannot reconcile
        a rank increase.
    NonFiniteEntry
        A total, once compared, overflows or adds infinities of both signs.
    """
    src = _descending(source)
    tgt = _descending(target)
    m = len(src)
    if len(tgt) > m:
        raise LengthMismatchAfterPadding(f"target length {len(tgt)} exceeds source length {m}")
    if len(tgt) < m:
        tgt = list(tgt) + [0.0] * (m - len(tgt))
    best = 1.0
    deficit = -math.inf
    ps = 0.0
    pt = 0.0
    for k in range(m):
        if k > 0:
            ps += src[k - 1]
            pt += tgt[k - 1]
            if ps - pt > deficit:
                deficit = ps - pt
        den = 1.0 - pt
        if den <= 1e-15:
            continue
        num = 1.0 - ps
        if num < 0.0:
            num = 0.0
        ratio = num / den
        if ratio < best:
            best = ratio
    if deficit <= MAJORIZATION_ATOL and abs(_total(tgt) - _total(src)) <= MAJORIZATION_ATOL:
        return 1.0
    return best


def _outcome_spectra(x_entries, y_entries, elements) -> list:
    """(probability, descending spectrum) pairs of operators X_a acting
    on a state: X_a becomes Psi_a = diag(sqrt(x)) X_a diag(sqrt(y)),
    with probability |Psi_a|^2 and spectrum its squared singular values
    over that probability, a float array.  Swap measurements pass both
    link spectra, one-sided Kraus operators x = ones.  Outcomes below
    OUTCOME_PROB_FLOOR are dropped; the rest go through one stacked
    LAPACK SVD.  The stack is scaled C-contiguous and each probability
    is one np.vdot per row, so the result equals that of a per-operator
    loop bit for bit (a strided row or a batched sum rounds otherwise)."""
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
    spectra = np.sort(sv * sv, axis=-1)[:, ::-1] / np.array(kept)[:, None]
    return list(zip(kept, spectra))


def enumerate_swap_outcomes(x: SchmidtVector, y: SchmidtVector, povm: Povm) -> ProbabilisticEnsemble:
    """All measurement outcomes of swapping links x and y through the
    given measurement, as (probability, Schmidt vector) pairs.

    Element alpha produces the matrix Psi[j,k] = sqrt(x_j) X_alpha[j,k]
    sqrt(y_k); its squared Frobenius norm is the outcome probability and
    its squared singular values, renormalized, the outcome Schmidt
    vector.  Outcomes below probability OUTCOME_PROB_FLOOR are dropped.
    One stacked LAPACK SVD per measurement (_outcome_spectra, shared
    with the Monte Carlo checks), so the bits are those of one numpy
    build.

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
    outcomes = _outcome_spectra(x.entries, y.entries, povm.elements)
    return ProbabilisticEnsemble((p, _unit(spec.tolist())) for p, spec in outcomes)


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


@functools.lru_cache(maxsize=None)
def deterministic_swap_povm(d: int) -> Povm:
    """The d*d-element measurement whose every outcome reproduces the
    series rule exactly: element alpha = 1..d^2 has entries
    exp(-alpha(d mu + nu) 2 pi i / d^2 - 2 pi i mu nu / d) / d
    for mu, nu = 1..d.  Cached per d; the elements are read-only."""
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
