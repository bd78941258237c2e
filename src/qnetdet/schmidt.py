"""Schmidt vectors, majorization and entanglement monotones.

A Schmidt vector collects the squared Schmidt coefficients of a
bipartite pure state: nonnegative numbers, sorted in descending order,
summing to one.  Everything downstream (combination rules, network
reduction, the verification suite) works on these vectors; the state
vectors themselves never appear.

``_screened`` is the package's one check of the values handed to it,
and ``_unit`` the one way from checked or computed entries to a vector.
``majorization_slack`` and ``submajorization_slack`` are the package's
one comparison of sorted prefix sums: ``majorizes`` reads the first
against a tolerance, and the verification suite reports both.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable

from ._frozen import Frozen, _maker
from .backend import kernels
from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    EmptyInput,
    KOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    ZeroSum,
)

# Shared absolute tolerance for every majorization decision in the
# package: a slack at or below it counts as majorization.  Callers that
# need a different strictness pass tol explicitly.
MAJORIZATION_ATOL = 1e-9

# Entries this far below zero are treated as roundoff and clamped.
_NEG_EPS = 1e-12

# A plain sum of nonnegative floats below this bound leaves their
# correctly rounded sum finite as well.
_SUM_BOUND = 2.0**1023


def _total(entries) -> float:
    """Correctly rounded sum of finite entries.

    Raises
    ------
    NonFiniteEntry
        The sum overflows, as for [1e308, 1e308], or adds infinities of
        both signs.
    """
    try:
        return math.fsum(entries)
    except OverflowError:
        raise NonFiniteEntry("entries sum beyond the largest float") from None
    except ValueError:
        raise NonFiniteEntry("entries hold infinities of both signs") from None


def _floats(values) -> list:
    """The values as a new list of floats; an integer beyond the float
    range raises NonFiniteEntry."""
    try:
        return list(map(float, values))
    except OverflowError:
        raise NonFiniteEntry("entry beyond the largest float") from None


def _integer(field, value) -> int:
    """value, an int or numpy integer but not a bool, as an int; any
    other value raises a plain ValueError naming the field."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _screened(values) -> list:
    """The one check of values handed to the package: a new list of
    finite, nonnegative floats with a finite sum, zeros of either sign
    and roundoff negatives down to -1e-12 set to ``0.0``.  One ``min``
    and one plain ``sum`` (which carries NaN and the infinities) tell
    whether every entry is positive and finite; only when they do not
    are the entries checked, non-finite before negative, and clamped.

    Raises
    ------
    NonFiniteEntry
        An entry is NaN, infinite or an integer beyond the float range,
        or the entries sum beyond the largest float.
    NegativeEntry
        An entry below -1e-12.
    """
    vals = _floats(values)
    if vals and min(vals) > 0.0 and sum(vals) < _SUM_BOUND:
        return vals
    for v in vals:
        if not math.isfinite(v):
            raise NonFiniteEntry(f"entry {v!r} is not finite")
    out = []
    for v in vals:
        if v < -_NEG_EPS:
            raise NegativeEntry(f"entry {v!r} below zero")
        out.append(v if v > 0.0 else 0.0)
    _total(out)  # raises on a sum past the largest float
    return out


def _unit(clean: list, total=None) -> SchmidtVector:
    """The vector of screened entries (see ``_screened``), of the positive
    ints and floats ``network_from_dict`` checked (an int divides as
    ``float()`` converts it) or of entries a rule computed from them:
    each divided by their correctly rounded total (passed in by a caller
    that took it), sorted descending; a zero total raises ZeroSum.  The
    quotients need no check: they are finite and nonnegative (never
    ``-0.0``), and their ``fsum`` is within 2u of 1 at any length n,
    u = 2**-53.  The total is T = S(1 + e) for the exact sum S, |e| <= u,
    and each quotient (x/T)(1 + e'), |e'| <= u, or x/T within 2**-1075
    below the normal range; so the quotients' exact sum is within
    2u/(1 - u) + n 2**-1075 of 1 and rounds to 1 - 2u, 1 - u, 1 or 1 + 2u."""
    if total is None:
        total = _total(clean)
    if total <= 0.0:
        raise ZeroSum("entries sum to zero")
    out = [v / total for v in clean]
    out.sort(reverse=True)
    return _vector(tuple(out))


def _values_of(x):
    """The entries of x: a SchmidtVector's tuple as it is, any other
    iterable as a new list of floats (see ``_floats``)."""
    if isinstance(x, SchmidtVector):
        return x.entries
    return _floats(x)


class SchmidtVector(Frozen):
    """Immutable descending probability vector.

    Invariant: ``entries`` is a descending tuple of finite, nonnegative
    floats (no ``-0.0``) that sum to 1 within 1e-12.  It is established
    once, where a vector is made: by this constructor, which screens the
    entries handed in (``_screened``) and is the one test of their total
    against 1 within 1e-12; by ``_unit`` (so ``normalize_descending``),
    whose quotients meet it by construction and which makes the vector in
    one step (``_frozen._maker``); or by ``_frozen._rebuild`` from the
    entries of a vector that had it.  Every reader relies on it and takes
    the tuple as it is; nothing re-sorts, re-clamps or converts it again.

    Parameters
    ----------
    entries : tuple of float
        Nonnegative values summing to 1 within 1e-12.  The constructor
        sorts them, so callers may pass any order; entries below zero by
        at most 1e-12 are clamped to zero.

    Raises
    ------
    EmptyInput, NonFiniteEntry, NegativeEntry, ValueError
    """

    __slots__ = ("entries",)
    entries: tuple[float, ...]

    def __init__(self, entries: Iterable[float]):
        vals = _screened(entries)
        if not vals:
            raise EmptyInput("SchmidtVector needs at least one entry")
        vals.sort(reverse=True)
        total = math.fsum(vals)  # finite: _screened checked it
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"entries sum to {total!r}, expected 1 within 1e-12")
        object.__setattr__(self, "entries", tuple(vals))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


_vector = _maker(SchmidtVector)  # of entries that meet the invariant


class ProbabilisticEnsemble(Frozen):
    """Finite ensemble of Schmidt vectors with outcome probabilities.

    Probabilities pass ``_screened`` and must sum to 1 within 1e-9; all
    member vectors must share one dimension.
    """

    __slots__ = ("outcomes",)
    outcomes: tuple[tuple[float, SchmidtVector], ...]

    def __init__(self, outcomes: Iterable[tuple[float, SchmidtVector]]):
        pairs = list(outcomes)
        if not pairs:
            raise EmptyEnsemble("ensemble needs at least one outcome")
        probs = _screened(p for p, _ in pairs)
        vecs = [vec if isinstance(vec, SchmidtVector) else SchmidtVector(vec) for _, vec in pairs]
        d = vecs[0].dimension
        for vec in vecs:
            if vec.dimension != d:
                raise DimensionMismatch("ensemble members must share a dimension")
        total = _total(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "outcomes", tuple(zip(probs, vecs)))

    @property
    def dimension(self) -> int:
        return self.outcomes[0][1].dimension

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)


def normalize_descending(values: Iterable[float]) -> SchmidtVector:
    """Clamp roundoff negatives, divide by the total, sort descending:
    ``_unit(_screened(values))``.  The entries equal those of
    ``SchmidtVector(v / total for v in screened)``.

    Raises
    ------
    EmptyInput
        No entries.
    NonFiniteEntry, NegativeEntry
        The entries fail the screen.
    ZeroSum
        All entries vanish, nothing to normalize.
    """
    clean = _screened(values)
    if not clean:
        raise EmptyInput("nothing to normalize")
    return _unit(clean)


def majorization_slack(big, small) -> float:
    """Slack of the claim big majorizes small: the worst prefix deficit,
    or the total mismatch, whichever is larger.  Shorter side is padded
    with zeros.  An integer entry beyond the float range, a side whose
    finite entries sum beyond the largest float and one that holds
    infinities of both signs raise NonFiniteEntry."""
    a = sorted(_values_of(big), reverse=True)
    b = sorted(_values_of(small), reverse=True)
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    pa = pb = 0.0
    worst = -math.inf
    for j in range(n - 1):
        pa += a[j]
        pb += b[j]
        if pb - pa > worst:
            worst = pb - pa
    gap = abs(_total(a) - _total(b))
    # a NaN entry makes the total mismatch NaN, and NaN is passed on
    return worst if worst >= gap else gap


def submajorization_slack(lo, hi) -> float:
    """Slack of the claim lo is weakly submajorized by hi: the worst
    sorted-prefix excess of lo over hi.  LengthMismatch unless equal lengths."""
    a = sorted(_values_of(lo), reverse=True)
    b = sorted(_values_of(hi), reverse=True)
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    pa = pb = 0.0
    worst = -math.inf
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa - pb > worst:
            worst = pa - pb
    return worst


def majorizes(x, y, tol: float = MAJORIZATION_ATOL) -> bool:
    """True when x majorizes y: ``majorization_slack(x, y) <= tol``, so
    every descending prefix sum of x is at least the matching prefix
    sum of y and the totals agree, both within tol.

    Both arguments may be SchmidtVectors or plain iterables; they are
    sorted internally, so input order never matters.

    Raises
    ------
    LengthMismatch
        The two vectors differ in length.
    """
    xs = _values_of(x)
    ys = _values_of(y)
    if len(xs) != len(ys):
        raise LengthMismatch(f"lengths {len(xs)} and {len(ys)} differ")
    return majorization_slack(xs, ys) <= tol


def kron(x, y) -> SchmidtVector:
    """Schmidt vector of the tensor product state: all pairwise products,
    renormalized and sorted descending."""
    xs = _values_of(x)
    ys = _values_of(y)
    return normalize_descending(a * b for a in xs for b in ys)


def concurrence(x, k: int) -> float:
    """Normalized k-concurrence of a Schmidt vector.

    C_k(x) = [S_k(x) / S_k(u)]^(1/k) where S_k is the k-th elementary
    symmetric polynomial and u the uniform vector of the same dimension,
    so C_k = 1 on the maximally entangled state and C_k(x) = 0 exactly
    when x has fewer than k nonzero entries.  C_1 is identically 1;
    C_d(x) = d * (prod x_j)^(1/d).

    Raises
    ------
    ValueError
        k is not an integer (see ``_integer``).
    EmptyInput, KOutOfRange
    """
    k = _integer("k", k)
    vals = _values_of(x)
    if not vals:
        raise EmptyInput("no entries")
    d = len(vals)
    if k < 1 or k > d:
        raise KOutOfRange(f"k={k} outside 1..{d}")
    return _concurrence_of(kernels.esym(vals, k), d, k)


def _concurrences(x) -> list:
    """[C_1(x), ..., C_d(x)] of a vector of d >= 1 entries, bit for bit
    ``concurrence(x, k)`` for each k: every order from one
    kernels.esyms pass."""
    vals = _values_of(x)
    d = len(vals)
    sks = kernels.esyms(vals, d)
    return [_concurrence_of(sks[k], d, k) for k in range(1, d + 1)]


def _concurrence_of(sk: float, d: int, k: int) -> float:
    """C_k of a vector of d entries whose k-th elementary symmetric
    polynomial is ``sk``, 1 <= k <= d: the last step of ``concurrence``,
    shared with the checks that take e_k of many vectors at once."""
    if sk <= 0.0:
        return 0.0
    ref = math.comb(d, k) / float(d**k)
    return (sk / ref) ** (1.0 / k)


def det_vec(x) -> float:
    """Product of the entries."""
    vals = _values_of(x)
    if not vals:
        raise EmptyInput("no entries")
    out = 1.0
    for v in vals:
        out *= v
    return out


def adjugate_vec(x) -> list:
    """Per-coordinate products of the remaining entries.

    Entry i is prod_{j != i} x_j, computed from prefix and suffix
    products so vectors containing zeros stay finite.  The result is
    aligned with the input order, not resorted.
    """
    vals = _values_of(x)
    n = len(vals)
    if n == 0:
        raise EmptyInput("no entries")
    prefix = [1.0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] * vals[i]
    suffix = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * vals[i]
    return [prefix[i] * suffix[i + 1] for i in range(n)]
