"""Series and parallel combination rules and measurement enumeration."""

import math
from decimal import Decimal, localcontext

import _jacobi_oracle as jacobi
import numpy as np
import pytest
from _series_oracle import esym, series_esym, weights

from qnetdet._jsonio import render_json
from qnetdet.backend import kernels
from qnetdet.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidPovm,
    LengthMismatchAfterPadding,
    ShapeMismatch,
)
from qnetdet.rules import (
    Povm,
    _swap_raw,
    bell_povm_d2,
    conversion_probability,
    deterministic_swap_povm,
    enumerate_swap_outcomes,
    purify_rule,
    swap_rule,
    validate_povm,
)
from qnetdet.sampling import random_schmidt, substream
from qnetdet.schmidt import SchmidtVector, concurrence, det_vec, kron, majorizes, normalize_descending

SEED = 20240811


class TestSwapRule:
    def test_qubit_remark_value(self):
        # closed form for two identical (0.9, 0.1) links
        out = swap_rule(SchmidtVector([0.9, 0.1]), SchmidtVector([0.9, 0.1]))
        top = (1.0 + math.sqrt(0.8704)) / 2.0
        assert out.entries[0] == pytest.approx(top, abs=1e-12)
        assert out.entries[1] == pytest.approx(1.0 - top, abs=1e-12)

    def test_commutative(self):
        rng = substream(SEED, "swap_comm", 0)
        for d in (2, 3, 5):
            x, y = random_schmidt(d, rng), random_schmidt(d, rng)
            assert np.allclose(swap_rule(x, y).entries, swap_rule(y, x).entries, atol=1e-12)

    def test_maximally_entangled_is_identity(self):
        rng = substream(SEED, "swap_id", 0)
        for d in (2, 3, 4):
            u = SchmidtVector([1.0 / d] * d)
            y = random_schmidt(d, rng)
            assert np.allclose(swap_rule(u, y).entries, y.entries, atol=1e-12)

    def test_separable_absorbs(self):
        # a rank-1 link forces a rank-1 output
        out = swap_rule(SchmidtVector([1.0, 0.0]), SchmidtVector([0.7, 0.3]))
        assert out.entries == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            swap_rule(SchmidtVector([1.0, 0.0]), SchmidtVector([1.0, 0.0, 0.0]))

    def test_qubit_raw_descending_when_outputs_coincide(self):
        # uniform raw links give two equal outputs 2ab, up to rounding
        rng = substream(SEED, "swap_qubit_ties", 0)
        for a, b in rng.uniform(0.1, 10.0, (200, 2)).tolist():
            out = _swap_raw([a, a], [b, b])
            assert out[0] >= out[1]
            assert out == pytest.approx([2.0 * a * b] * 2, rel=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_determinant_scaling(self, d):
        rng = substream(SEED, "swap_det", d)
        x, y = random_schmidt(d, rng), random_schmidt(d, rng)
        lhs = det_vec(swap_rule(x, y))
        rhs = d**d * det_vec(x) * det_vec(y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _hard_links(d, rng, n):
    """n raw links of each hard kind: log-uniform entries over
    [1e-12, 1], Dirichlet(0.1) draws with min/max above 1e-14, and
    Dirichlet(1) draws with a few entries moved near 1e-12; shuffled so
    that the kinds meet each other."""
    links = [10.0 ** rng.uniform(-12.0, 0.0, d) for _ in range(n)]
    while len(links) < 2 * n:
        v = rng.dirichlet(np.full(d, 0.1))
        if v.min() > 1e-14 * v.max():
            links.append(v)
    for _ in range(n):
        v = rng.dirichlet(np.ones(d))
        k = int(rng.integers(1, d // 2 + 1))
        v[rng.permutation(d)[:k]] = 1e-12 * rng.uniform(0.5, 2.0, k)
        links.append(v / v.sum())
    return [links[i].tolist() for i in rng.permutation(len(links))]


def _worst_rel(a, b):
    return max(abs(u - v) / v for u, v in zip(sorted(a, reverse=True), sorted(b, reverse=True)))


def _log_det_gap(out, x, y):
    # |log prod(out) - log(d^d prod(x) prod(y))|, the relative error of
    # the det identity while it is small
    d = len(x)
    want = d * math.log(d) + math.fsum(map(math.log, x)) + math.fsum(map(math.log, y))
    return abs(math.fsum(map(math.log, out)) - want)


def _esym_rel_gaps(out, want):
    # relative error of each e_k of out against the oracle's e_1..e_d
    return [abs(esym(out, k) - w) / w for k, w in enumerate(want, start=1)]


_JACOBI_DIMS = pytest.mark.parametrize("d", [2, 4, 5, 6, 7, 8])
_ORACLE_DIMS = pytest.mark.parametrize("d", [2, 3, 4, 5, 6])


class TestSeriesAccuracy:
    """Small entries keep their relative accuracy (Demmel and Veselic).
    Every e_k of the output matches the exact Cauchy-Binet sums of
    tests/_series_oracle.py, and at d = 2 and from d = 4 up, where the
    one-sided Jacobi route of tests/_jacobi_oracle.py is independent of
    the production route, the output matches it entrywise and keeps the
    determinant identity, on entries spread down to 1e-12."""

    @_JACOBI_DIMS
    def test_raw_matches_one_sided_jacobi(self, d):
        links = _hard_links(d, substream(SEED, "swap_hard_raw", d), 12)
        for x, y in zip(links[0::2], links[1::2]):
            out = _swap_raw(x, y)
            assert _worst_rel(out, jacobi.swap_sv(x, y)) <= 1e-13
            assert _log_det_gap(out, x, y) <= 1e-12

    @_JACOBI_DIMS
    def test_rule_matches_one_sided_jacobi(self, d):
        links = _hard_links(d, substream(SEED, "swap_hard_rule", d), 12)
        for a, b in zip(links[0::2], links[1::2]):
            x, y = normalize_descending(a), normalize_descending(b)
            out = swap_rule(x, y).entries
            ref = jacobi.swap_sv(x.entries, y.entries)
            total = math.fsum(ref)
            assert _worst_rel(out, [v / total for v in ref]) <= 1e-13
            assert _log_det_gap(out, x.entries, y.entries) <= 1e-12

    @_ORACLE_DIMS
    def test_raw_matches_oracle(self, d):
        links = _hard_links(d, substream(SEED, "swap_oracle_raw", d), 12)
        for x, y in zip(links[0::2], links[1::2]):
            assert max(_esym_rel_gaps(_swap_raw(x, y), series_esym(x, y))) <= 1e-13

    @_ORACLE_DIMS
    def test_rule_matches_oracle(self, d):
        links = _hard_links(d, substream(SEED, "swap_oracle_rule", d), 12)
        for a, b in zip(links[0::2], links[1::2]):
            x, y = normalize_descending(a), normalize_descending(b)
            raw = series_esym(x.entries, y.entries)
            want = [v / raw[0] ** k for k, v in enumerate(raw, start=1)]
            assert max(_esym_rel_gaps(swap_rule(x, y).entries, want)) <= 1e-13


class TestSeriesFactorization:
    """By Cauchy-Binet, e_k(swap(x, y)) = sum x_I y_J |det F[I, J]|^2.
    Where every order-k weight is d^k / C(d, k), that sum is
    d^k / C(d, k) e_k(x) e_k(y), so C_k(swap(x, y)) = C_k(x) C_k(y).
    That holds at k = 1 (weights 1), k = d (d^d) and k = d - 1 (d^(d-2),
    by Jacobi's complementary-minor identity for the unitary F / sqrt d),
    and at every k for d <= 3.  At 2 <= k <= d - 2 the weights differ,
    and the factorization fails by 0.13 to 0.53 relative at d = 4..8."""

    @_ORACLE_DIMS
    def test_constant_weights(self, d):
        by_order = weights(d)
        want = {1: 1, d - 1: d ** (d - 2), d: d**d}
        if d == 3:
            want[2] = 3
        for k, w in want.items():
            assert w * math.comb(d, k) == d**k
            terms = by_order[k - 1]
            assert len(terms) == math.comb(d, k) ** 2
            assert {t[2] for t in terms} == {float(w)}

    @pytest.mark.parametrize("d", range(2, 9))
    def test_production_route_factorizes(self, d):
        # the worst relative gap measured over these draws is 9.4e-16
        rng = substream(SEED, "swap_factorization", d)
        links = [rng.dirichlet(np.ones(d)).tolist() for _ in range(24)] + _hard_links(d, rng, 8)
        for a, b in zip(links[0::2], links[1::2]):
            x, y = normalize_descending(a), normalize_descending(b)
            out = swap_rule(x, y)
            for k in sorted({1, d - 1, d}):
                want = concurrence(x, k) * concurrence(y, k)
                assert abs(concurrence(out, k) - want) <= 1e-14 * want, (k, a, b)


def _qubit_reference(x, y):
    """Both d = 2 series outputs in 50-digit decimal arithmetic, from the
    textbook discriminant, which loses no digits that matter there."""
    with localcontext() as ctx:
        ctx.prec = 50
        (x1, x2), (y1, y2) = (sorted(map(Decimal, v), reverse=True) for v in (x, y))
        s = (x1 + x2) * (y1 + y2)
        root = (s * s - 16 * x1 * x2 * y1 * y2).sqrt()
        return s, [(s + root) / 2, (s - root) / 2]


def test_qubit_near_uniform_matches_decimal():
    # near-uniform links make the two outputs nearly coincide, which the
    # e_k cannot resolve; the textbook discriminant S^2 - 16 x1 x2 y1 y2
    # loses half the digits here
    rng = substream(SEED, "swap_qubit_uniform", 0)
    worst = 0.0
    for _ in range(2000):
        x, y = ([0.5 + e, 0.5 - e] for e in 0.5 * 10.0 ** rng.uniform(-16.0, -1.0, 2))
        total, ref = _qubit_reference(x, y)
        rule = swap_rule(SchmidtVector(x), SchmidtVector(y)).entries
        for out, want in ((_swap_raw(x, y), ref), (rule, [v / total for v in ref])):
            worst = max(worst, *(float(abs(Decimal(u) - w) / w) for u, w in zip(out, want)))
    assert worst <= 1e-15


# d = 2 runs the closed form, d = 3 the one-sided Jacobi swap_sv, d >= 4
# the LAPACK route; the remaining tests describe the LAPACK route only
_BOTH_ROUTES = pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
_LAPACK_ROUTE = pytest.mark.parametrize("d", [4, 5, 8])


class TestSeriesRouteEdges:
    @_BOTH_ROUTES
    def test_commutative_bit_for_bit(self, d):
        rng = substream(SEED, "swap_bits", d)
        for _ in range(50):
            x, y = rng.dirichlet(np.ones(d)).tolist(), rng.dirichlet(np.ones(d)).tolist()
            assert _swap_raw(x, y) == _swap_raw(y, x)
            sx, sy = SchmidtVector(x), SchmidtVector(y)
            assert swap_rule(sx, sy).entries == swap_rule(sy, sx).entries

    @_BOTH_ROUTES
    def test_commutative_on_equal_flatness(self, d):
        # equal min/max ratio, different middle entries: the tie is
        # broken by the entries, not by the argument order
        rng = substream(SEED, "swap_ties", d)
        for _ in range(50):
            x, y = ([1.0, *rng.uniform(0.25, 1.0, d - 2), 0.25] for _ in range(2))
            assert _swap_raw(x, y) == _swap_raw(y, x)
            assert _swap_raw(x, y[::-1]) == _swap_raw(y, x[::-1])

    @_LAPACK_ROUTE
    def test_exact_zero_entries(self, d):
        rng = substream(SEED, "swap_zeros", d)
        for zx in range(d):
            zy = int(rng.integers(0, d))
            x = rng.dirichlet(np.ones(d))
            y = rng.dirichlet(np.ones(d))
            x[rng.permutation(d)[:zx]] = 0.0
            y[rng.permutation(d)[:zy]] = 0.0
            rank = d - max(zx, zy)
            raw = _swap_raw(x.tolist(), y.tolist())
            out = swap_rule(normalize_descending(x), normalize_descending(y)).entries
            for vec in (raw, out):
                assert all(v > 0.0 for v in vec[:rank])
                assert list(vec[rank:]) == [0.0] * (d - rank)
                assert all(math.copysign(1.0, v) == 1.0 for v in vec)
        assert _swap_raw([0.0] * d, y.tolist()) == _swap_raw(y.tolist(), [0.0] * d) == [0.0] * d

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_all_zero_operand_gives_zeros(self, d):
        # at d = 2 the closed form's zero-sum branch
        y = substream(SEED, "swap_zero_operand", d).dirichlet(np.ones(d)).tolist()
        assert _swap_raw([0.0] * d, y) == _swap_raw(y, [0.0] * d) == [0.0] * d

    @_LAPACK_ROUTE
    def test_product_link_absorbs(self, d):
        rng = substream(SEED, "swap_product", d)
        e = SchmidtVector([1.0] + [0.0] * (d - 1))
        y = random_schmidt(d, rng)
        for out in (swap_rule(e, y), swap_rule(y, e)):
            assert out.entries[0] == pytest.approx(1.0, rel=1e-15)
            assert out.entries[1:] == (0.0,) * (d - 1)

    @_LAPACK_ROUTE
    def test_maximally_entangled_is_identity(self, d):
        rng = substream(SEED, "swap_unit", d)
        u = SchmidtVector([1.0 / d] * d)
        for _ in range(10):
            y = random_schmidt(d, rng)
            assert swap_rule(u, y).entries == pytest.approx(y.entries, rel=1e-12)
            assert swap_rule(y, u).entries == pytest.approx(y.entries, rel=1e-12)

    @_LAPACK_ROUTE
    def test_dimension_mismatch(self, d):
        with pytest.raises(DimensionMismatch):
            swap_rule(SchmidtVector([1.0 / d] * d), SchmidtVector([1.0 / (d + 1)] * (d + 1)))
        with pytest.raises(DimensionMismatch):
            _swap_raw([1.0] * d, [1.0] * (d + 1))


@pytest.mark.parametrize(
    "d, route",
    [(1, []), (2, []), (3, ["swap_sv", "sv_desc"]), (4, ["svd"]), (8, ["svd"])],
    ids=["1", "2", "3", "4", "8"],
)
def test_series_route_by_dimension(monkeypatch, d, route):
    # rules._series picks every route: d = 1 is the product and d = 2 the
    # closed form, with no kernel; d = 3 is one swap_sv, which reaches
    # sv_desc through the module name the profiler wraps; from d = 4 up
    # each swap is one LAPACK SVD
    names = ("swap_eig", "eigh_desc", "swap_sv", "sv_desc")
    calls = []

    def count(key, fn):
        def counted(*args, **kwargs):
            calls.append(key)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "svd", count("svd", np.linalg.svd))
    for name in names:
        monkeypatch.setattr(kernels, name, count(name, getattr(kernels, name)))
    x = SchmidtVector([1.0 / d] * d)
    swap_rule(x, x)
    assert calls == route
    # raw uniform operands of totals 2 d and 3 d give 6 d per entry: at
    # d = 1 the product 2.0 * 3.0
    assert _swap_raw([2.0] * d, [3.0] * d) == pytest.approx([6.0 * d] * d, rel=1e-13)


class TestAssociativity:
    @pytest.mark.parametrize("d", [2, 3])
    def test_small_dimensions_associative(self, d):
        rng = substream(SEED, "assoc", d)
        worst = 0.0
        for _ in range(300):
            x, y, z = (random_schmidt(d, rng) for _ in range(3))
            a = swap_rule(swap_rule(x, y), z).entries
            b = swap_rule(x, swap_rule(y, z)).entries
            worst = max(worst, max(abs(u - v) for u, v in zip(a, b)))
        assert worst <= 1e-9

    def test_dimension_four_breaks(self):
        rng = substream(SEED, "assoc", 4)
        worst = 0.0
        for _ in range(200):
            x, y, z = (random_schmidt(4, rng) for _ in range(3))
            a = swap_rule(swap_rule(x, y), z).entries
            b = swap_rule(x, swap_rule(y, z)).entries
            worst = max(worst, max(abs(u - v) for u, v in zip(a, b)))
            if worst > 1e-6:
                break
        assert worst > 1e-6


class TestPurifyRule:
    def test_two_qubit_pair(self):
        joint = kron(SchmidtVector([0.9, 0.1]), SchmidtVector([0.9, 0.1]))
        out = purify_rule(joint, 2)
        assert out.entries == pytest.approx((0.81, 0.19), abs=1e-12)

    def test_identity_on_matching_length(self):
        rng = substream(SEED, "purify_id", 0)
        for d in (2, 3, 5):
            x = random_schmidt(d, rng)
            assert purify_rule(x, d).entries == pytest.approx(x.entries, abs=1e-12)

    def test_output_is_dominator_of_input(self):
        # zero-padded output majorizes the input it was scanned from
        rng = substream(SEED, "purify_dom", 0)
        for trial in range(100):
            d = int(rng.integers(2, 5))
            m = d + int(rng.integers(1, 4))
            x = random_schmidt(m, rng)
            out = purify_rule(x, d)
            padded = list(out.entries) + [0.0] * (m - d)
            assert majorizes(padded, x.entries)

    def test_flat_tail_gets_equal_share(self):
        out = purify_rule([0.25, 0.25, 0.25, 0.25], 2)
        assert out.entries == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_too_short(self):
        with pytest.raises(DimensionTooSmall):
            purify_rule([0.6, 0.4], 3)
        with pytest.raises(DimensionTooSmall):
            purify_rule([0.6, 0.4], np.int64(0))

    def test_numpy_integer_d_gives_plain_floats(self):
        joint = kron(SchmidtVector([0.9, 0.1]), SchmidtVector([0.9, 0.1]))
        out = purify_rule(joint, np.int64(2))
        assert out == purify_rule(joint, 2)
        assert [type(v) for v in out.entries] == [float, float]
        assert render_json({"link": out.entries}) == render_json({"link": purify_rule(joint, 2).entries})

    @pytest.mark.parametrize(
        "d",
        [2.0, 2.5, np.float64(2.0), "2", True, np.True_],
        ids=["float", "fraction", "np-float", "str", "bool", "np-bool"],
    )
    def test_non_integer_d_names_itself(self, d):
        with pytest.raises(ValueError) as info:
            purify_rule([0.25, 0.25, 0.25, 0.25], d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"d must be an integer, got {d!r}"


class TestConversionProbability:
    def test_to_uniform_tail_ratio(self):
        # optimal success of (0.9, 0.1) toward the maximally entangled pair
        p = conversion_probability(SchmidtVector([0.9, 0.1]), SchmidtVector([0.5, 0.5]))
        assert p == pytest.approx(0.2, abs=1e-12)

    def test_deterministic_when_target_majorizes(self):
        p = conversion_probability(SchmidtVector([0.5, 0.5]), SchmidtVector([0.9, 0.1]))
        assert p == 1.0

    def test_padding_allows_rank_drop(self):
        p = conversion_probability(SchmidtVector([0.5, 0.3, 0.2]), SchmidtVector([1.0]))
        assert p == 1.0

    def test_rank_increase_rejected(self):
        with pytest.raises(LengthMismatchAfterPadding):
            conversion_probability(SchmidtVector([1.0]), SchmidtVector([0.5, 0.5]))


def _matrix_units(d):
    """The d*d matrix units E_jk: vectorized, exactly the standard basis."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


class TestPovmContainer:
    def test_needs_elements(self):
        with pytest.raises(ShapeMismatch):
            Povm([])
        with pytest.raises(ShapeMismatch):
            Povm(np.zeros((0, 2, 2)))
        with pytest.raises(ShapeMismatch):
            Povm(np.zeros((3, 0, 0)))

    def test_needs_square_equal_sizes(self):
        with pytest.raises(ShapeMismatch):
            Povm(np.zeros((1, 1, 2)))
        with pytest.raises(ShapeMismatch):
            Povm([np.eye(1), np.eye(2)])

    def test_needs_three_axes(self):
        with pytest.raises(ShapeMismatch):
            Povm(np.eye(2))
        with pytest.raises(ShapeMismatch):
            Povm(np.zeros((2, 2, 2, 2)))

    def test_holds_one_read_only_array(self):
        els = _matrix_units(2)
        povm = Povm(els)
        assert povm.elements.shape == (4, 2, 2)
        assert povm.elements.dtype == complex
        assert povm.dimension == 2 and len(povm) == 4
        assert [m.tolist() for m in povm] == [m.tolist() for m in els]
        with pytest.raises(ValueError):
            povm.elements[0, 0, 0] = 2.0
        els[0, 0, 0] = 2.0  # the caller's array is copied, not shared
        assert povm.elements[0, 0, 0] == 1.0

    def test_validate_rejects_scaled_elements(self):
        bad = Povm(2.0 * bell_povm_d2().elements)
        assert not validate_povm(bad)

    def test_validate_rejects_nan_elements(self):
        els = _matrix_units(2)
        els[0, 0, 0] = math.nan
        assert not validate_povm(Povm(els))

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_deterministic_povm_complete(self, d):
        assert validate_povm(deterministic_swap_povm(d))

    def test_deterministic_povm_needs_a_positive_d(self):
        with pytest.raises(ShapeMismatch, match="^dimension must be positive$"):
            deterministic_swap_povm(0)

    def test_deterministic_povm_cached(self):
        assert deterministic_swap_povm(3) is deterministic_swap_povm(3)
        assert deterministic_swap_povm(np.int64(3)) is deterministic_swap_povm(3)
        assert not deterministic_swap_povm(3).elements.flags.writeable

    @pytest.mark.parametrize("d", [True, 2.0, 2.5, "2"], ids=["bool", "float", "fraction", "str"])
    def test_deterministic_povm_non_integer_d_names_itself(self, d):
        # no cache entry is made or served for it: True is no d = 1
        # measurement, 2.0 not the d = 2 one
        with pytest.raises(ValueError) as info:
            deterministic_swap_povm(d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"d must be an integer, got {d!r}"

    def test_bell_povm_complete(self):
        assert validate_povm(bell_povm_d2())

    @pytest.mark.parametrize("entry", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
    def test_gram_deviation_boundary(self, entry, factor, accepted):
        # one Gram entry of the matrix units moves by factor * tol
        tol = 1e-10
        els = _matrix_units(3)
        if entry == "diagonal":
            els[0] *= math.sqrt(1.0 + factor * tol)
        else:
            els[0, 0, 1] = factor * tol
        assert validate_povm(Povm(els), tol=tol) is accepted


class TestEnumerateOutcomes:
    def test_bell_on_identical_qubit_links(self):
        lam = SchmidtVector([0.9, 0.1])
        ens = enumerate_swap_outcomes(lam, lam, bell_povm_d2())
        probs = sorted((p for p, _ in ens), reverse=True)
        assert probs == pytest.approx([0.41, 0.41, 0.09, 0.09], abs=1e-12)
        for p, vec in ens:
            if p > 0.2:
                assert vec.entries == pytest.approx((81 / 82, 1 / 82), abs=1e-12)
            else:
                assert vec.entries == pytest.approx((0.5, 0.5), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_deterministic_povm_reproduces_swap(self, d):
        rng = substream(SEED, "det_povm", d)
        la, lb = random_schmidt(d, rng), random_schmidt(d, rng)
        ens = enumerate_swap_outcomes(la, lb, deterministic_swap_povm(d))
        want = swap_rule(la, lb).entries
        assert len(ens) == d * d
        for p, vec in ens:
            assert p == pytest.approx(1.0 / (d * d), abs=1e-10)
            assert np.allclose(vec.entries, want, atol=1e-9)

    def test_plain_sequences_read_as_schmidt_vectors(self):
        rng = substream(SEED, "enum_plain", 0)
        for d, povm in ((2, bell_povm_d2()), (3, deterministic_swap_povm(3))):
            a, b = rng.dirichlet(np.ones(d)).tolist(), rng.dirichlet(np.ones(d)).tolist()
            plain = enumerate_swap_outcomes(a, tuple(b), povm)
            assert plain == enumerate_swap_outcomes(SchmidtVector(a), SchmidtVector(b), povm)

    def test_rank_one_link_collapses_all_outcomes(self):
        ens = enumerate_swap_outcomes(
            SchmidtVector([1.0, 0.0]), SchmidtVector([0.6, 0.4]), bell_povm_d2()
        )
        assert math.fsum(p for p, _ in ens) == pytest.approx(1.0, abs=1e-12)
        for _, vec in ens:
            assert vec.entries == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_probabilities_always_total_one(self):
        rng = substream(SEED, "enum_total", 0)
        for d in (2, 3):
            la, lb = random_schmidt(d, rng), random_schmidt(d, rng)
            ens = enumerate_swap_outcomes(la, lb, deterministic_swap_povm(d))
            assert math.fsum(p for p, _ in ens) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_povm_rejected(self):
        bad = Povm(0.5 * bell_povm_d2().elements)
        with pytest.raises(InvalidPovm):
            enumerate_swap_outcomes(
                SchmidtVector([0.9, 0.1]), SchmidtVector([0.9, 0.1]), bad
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            enumerate_swap_outcomes(
                SchmidtVector([0.5, 0.3, 0.2]),
                SchmidtVector([0.5, 0.3, 0.2]),
                bell_povm_d2(),
            )
