"""The reduce path reads each Schmidt vector as it was validated: the
input screen and the parser give the recorded bits or errors
(tests/_digests.py), every other shortcut the bits of a reference
route, the report writer the bytes of render_json(report()) and the
recorded bytes of a seeded corpus, and a reduce leaves no cyclic
garbage."""

import gc
import hashlib
import json
import math
import random
import struct
import sys

import numpy as np
import pytest
import _majorization_oracle as majorization
import _qubit_bundle_cases as qubit_bundles
import _reduce_corpus as corpus
from _digests import check

from qnetdet import cli
from qnetdet._jsonio import _float_rows, _row_format, format_float, render_json
from qnetdet.errors import NegativeEntry, NonFiniteEntry, NotSeriesParallel, QnetdetError, SchemaError
from qnetdet.network import (
    Edge,
    QuantumNetwork,
    TopologyClass,
    _classify,
    _decompose,
    _det_parallel,
    _fold,
    cep_probability,
    classify_topology,
    network_from_dict,
    parse_network,
    render_report,
    report,
)
from qnetdet.rules import (
    _flatness,
    _fourier,
    _outcome_spectra,
    _series,
    _source_walk,
    _target_side,
    _swap_raw,
    bell_povm_d2,
    conversion_probability,
    deterministic_swap_povm,
    kernels,
    purify_rule,
    swap_rule,
)
from qnetdet.sampling import random_network, random_schmidt, sample_povm, substream
from qnetdet.schmidt import (
    ProbabilisticEnsemble,
    SchmidtVector,
    _unit,
    concurrence,
    majorization_slack,
    majorizes,
    normalize_descending,
)

SEED = 20261019

# values that take the per-entry clamp, or an error, where they stand
SPECIALS = (0.0, -0.0, -3e-13, -1e-12, 5e-324, 1e-310, math.nan, math.inf, -math.inf, -0.25)


def _outcome(fn, *args):
    """The result's entries as hex strings, or the error's type and text."""
    try:
        got = fn(*args)
    except (QnetdetError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in got.entries]


def _spread(rng, d):
    """d positive entries spread down to 1e-12, at a random scale."""
    return (10.0 ** rng.uniform(-12.0, 0.0, d) * 10.0 ** rng.uniform(-6.0, 6.0)).tolist()


def _links(rng, d, count):
    """SchmidtVectors: spread entries, near-uniform ones and some zeros."""
    out = []
    for t in range(count):
        vals = _spread(rng, d) if t % 3 else (1.0 + 1e-3 * rng.standard_normal(d)).tolist()
        if t % 5 == 0 and d > 1:
            vals[int(rng.integers(0, d))] = 0.0
        out.append(normalize_descending(vals))
    return out


def _spread_exact(rng, d):
    """d positive entries spread down to ~1e-12, at a random scale, from
    random.Random by exact arithmetic: the same floats on every Python."""
    scale = rng.randint(-20, 20)
    return [math.ldexp(0.5 + rng.random(), scale - rng.randint(0, 40)) for _ in range(d)]


# (draws, outcomes) digests, as _digests.check writes them, recorded
# where the screen and the parser gave the bits or error of the routes
# they replaced (the clamp on every entry, a set per edge) on every draw
SCREEN_DIGESTS = {
    "normalize": ("e200f3686710c727", "aebcd6b38e37adae"),
    "ingest": ("48a1a2a64b963d99", "054f09f9c2942c0c"),
}


class TestNormalizeScreen:
    def test_matches_the_clamping_route(self):
        rng = random.Random(f"{SEED}/normalize_screen")
        cases = [[], [0.0], [-0.0, 0.0], [1.0], [5e-324], [5e-324, 5e-324, 1e-310]]
        for d in (1, 2, 3, 4, 9, 81):
            for _ in range(4):
                base = _spread_exact(rng, d)
                cases.append(base)
                for i in range(d):
                    for special in SPECIALS:
                        cases.append(base[:i] + [special] + base[i + 1 :])
        check(SCREEN_DIGESTS, "normalize", cases, lambda vals: _outcome(normalize_descending, vals))

    def test_overflowing_pair_at_every_position(self):
        rng = substream(SEED, "normalize_screen", 1)
        for d in (2, 3, 5):
            base = _spread(rng, d)
            for i in range(d):
                for j in range(i + 1, d):
                    vals = list(base)
                    vals[i] = vals[j] = 1e308
                    assert _outcome(normalize_descending, vals) == (
                        NonFiniteEntry,
                        "entries sum beyond the largest float",
                    )

    def test_constructor_rejects_an_overflowing_pair(self):
        with pytest.raises(NonFiniteEntry, match="beyond the largest float"):
            SchmidtVector([1e308, 1e308])


_HALF = SchmidtVector([0.5, 0.5])


class TestScreen:
    """Every value handed to the package passes one screen,
    schmidt._screened, so no route keeps a NaN, maps a negative entry or
    lets a bare OverflowError out."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: ProbabilisticEnsemble([(math.nan, _HALF), (1.0, _HALF)]), NonFiniteEntry),
            (lambda: ProbabilisticEnsemble([(1e308, _HALF), (1e308, _HALF)]), NonFiniteEntry),
            (lambda: majorizes([1e308, 1e308], [0.5, 0.5]), NonFiniteEntry),
            (lambda: purify_rule([-1.0, 2.0, 0.2], 2), NegativeEntry),
            (lambda: purify_rule([0.5, -0.5, 1.0], 2), NegativeEntry),
            (lambda: purify_rule([1e308, 1e308, 1.0], 2), NonFiniteEntry),
            # a plain sum rounds down to the largest float, the exact one
            # overflows
            (lambda: purify_rule([sys.float_info.max] + [2.0**969] * 3, 2), NonFiniteEntry),
            (lambda: normalize_descending([10**400, 1]), NonFiniteEntry),
            (lambda: SchmidtVector([10**400]), NonFiniteEntry),
        ],
        ids=[
            "ensemble-nan",
            "ensemble-overflow",
            "majorizes-overflow",
            "purify-negative-first",
            "purify-negative-inside",
            "purify-overflow",
            "purify-overflow-past-plain-sum",
            "normalize-big-int",
            "vector-big-int",
        ],
    )
    def test_rejects(self, call, error):
        assert issubclass(error, QnetdetError)
        with pytest.raises(error):
            call()

    def test_negative_probability_message(self):
        with pytest.raises(NegativeEntry, match=r"^entry -0\.5 below zero$"):
            ProbabilisticEnsemble([(-0.5, _HALF), (1.5, _HALF)])

    def test_nan_slack_passes_through(self):
        assert math.isnan(majorization_slack([math.nan, 0.5], [0.5, 0.5]))
        assert math.isnan(majorization_slack([0.5, 0.5], [0.5, math.nan]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "route",
        [SchmidtVector, normalize_descending, lambda vals: purify_rule(vals, 2)],
        ids=["vector", "normalize", "purify"],
    )
    def test_non_finite_entry_reported_before_a_negative_one(self, route, bad):
        # as network documents do: the error does not depend on which of
        # the two bad entries comes first
        for d in (2, 3, 4):
            for i in range(d):
                for j in range(d):
                    if j != i:
                        vals = [1.0 / d] * d
                        vals[i] = bad
                        vals[j] = -0.5
                        with pytest.raises(NonFiniteEntry, match=r"^entry .* is not finite$"):
                            route(vals)


def _zeroed(rng, links):
    """The links, every third one with up to all but one entry set to
    zero."""
    out = []
    for t, x in enumerate(links):
        vals = list(x.entries)
        if t % 3 == 0 and len(vals) > 1:
            for i in rng.choice(len(vals), size=int(rng.integers(1, len(vals))), replace=False):
                vals[i] = 0.0
            if max(vals) == 0.0:
                vals[0] = 1.0
        out.append(normalize_descending(vals))
    return out


class TestUnit:
    """A rule's output needs no screen: _unit gives the bits that
    normalize_descending gives on it."""

    @staticmethod
    def _same(out, screened_from=None):
        """_unit(out) against normalize_descending on the output as the
        rule handed it over before, `screened_from` when that differs."""
        got = _unit(out).entries
        assert all(type(v) is float for v in got)
        want = normalize_descending(out if screened_from is None else screened_from).entries
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_swap_outputs(self, d):
        rng = substream(SEED, "unit_swap", d)
        links = _zeroed(rng, _links(rng, d, 40))
        for x, y in zip(links[::2], links[1::2]):
            self._same(_series(x.entries, y.entries))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_purify_outputs(self, d):
        rng = substream(SEED, "unit_purify", d)
        links = _zeroed(rng, _links(rng, d, 40))
        with_zeros = 0
        for x, y in zip(links[::2], links[1::2]):
            products = [a * b for a in x.entries for b in y.entries]
            with_zeros += 0.0 in products
            self._same(kernels.purify_kernel(products, d))
        assert with_zeros or d == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_outcome_spectra(self, d):
        rng = substream(SEED, "unit_outcomes", d)
        links = _zeroed(rng, _links(rng, d, 12))
        povms = [deterministic_swap_povm(d), sample_povm(d, d * d, rng)]
        if d == 2:
            povms.append(bell_povm_d2())
        for x, y in zip(links[::2], links[1::2]):
            for povm in povms:
                for spec in _outcome_spectra(x.entries, y.entries, povm.elements)[1]:
                    self._same(spec.tolist(), spec)


def _series_before(xs, ys):
    """The d >= 4 series rule as it was written before the zero count
    and the roots were shared: the reference for its bits."""
    if (_flatness(ys), ys) > (_flatness(xs), xs):
        xs, ys = ys, xs
    d = len(xs)
    p = sum(v > 0.0 for v in xs)
    q = sum(v > 0.0 for v in ys)
    m = np.sqrt(xs[:p])[:, None] * _fourier(d)[:p, :q] * np.sqrt(ys[:q])
    s = np.linalg.svd(m, compute_uv=False)
    return (s * s).tolist() + [0.0] * (d - min(p, q))


@pytest.mark.parametrize("d", range(4, 9))
def test_series_bits_as_before(d):
    rng = substream(SEED, "series_bits", d)
    links = _links(rng, d, 120)
    links += _zeroed(rng, links[:60])
    zeros = 0
    for x, y in zip(links[::2], links[1::2]):
        zeros += 0.0 in x.entries or 0.0 in y.entries
        for xs, ys in ((x.entries, y.entries), (list(x.entries), list(y.entries))):
            want = [v.hex() for v in _series_before(xs, ys)]
            assert [v.hex() for v in _series(xs, ys)] == want
    assert zeros >= 10


def _random_floats(rng, count):
    """Floats of uniformly random bit patterns: every exponent, NaNs and
    infinities included."""
    return rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64).tolist()


class TestFloatRows:
    def test_percent_rows_match_format(self):
        rng = substream(SEED, "float_rows", 0)
        values = _random_floats(rng, 120_000)
        values += [0.0, -0.0, 5e-324, -5e-324, 1e12, 1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]
        values.append(struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0])  # a negative NaN
        start = 0
        n = 1
        while start < len(values):
            row = values[start : start + n]
            want = "[" + ", ".join([format(v, ".12g") for v in row]) + "]"
            assert _row_format(len(row)) % tuple(row) == want
            start += n
            n = n % 9 + 1

    def test_many_rows_in_one_call(self):
        rng = substream(SEED, "float_rows", 2)
        finite = [v for v in _random_floats(rng, 9000) if math.isfinite(v)]
        for n in (1, 2, 3, 8):
            rows = [tuple(finite[i : i + n]) for i in range(0, len(finite) - n, n)]
            for extra in ([], [(0.0,) * n], [(-0.0,) + rows[0][1:]]):
                want = ["[" + ", ".join(map(format_float, row)) + "]" for row in rows + extra]
                assert _float_rows(rows + extra, n) == want
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="non-finite"):
                    _float_rows(rows + [(bad,) + rows[0][1:]], n)

    def test_rows_render_as_the_oracle_does(self):
        # every float of a row through format_float, within one document
        rng = substream(SEED, "float_rows", 1)
        finite = [v for v in _random_floats(rng, 20_000) if math.isfinite(v)]
        rows = [finite[i : i + 1 + i % 8] for i in range(0, len(finite), 9)]
        rows += [[0.0, 1.0], [-0.0, 0.5], (0.25, 0.75)]
        doc = {"rows": rows, "shared": [rows[0], rows[0]], "names": [["A", "B"], ["é", 'q"'], []]}
        texts = ["[" + ", ".join(map(format_float, row)) + "]" for row in rows]
        want = f'{{"rows": [{", ".join(texts)}], "shared": [{texts[0]}, {texts[0]}], "names": [["A", "B"], ["é", "q\\""], []]}}\n'
        assert render_json(doc) == want


class _Real(float):
    pass


def _edge_doc(vec, **extra):
    edge = {"u": "A", "v": "B", "schmidt": vec}
    edge.update(extra)
    return edge


def _net_doc(*edges, d=2):
    return {"dimension": d, "terminals": ["A", "B"], "edges": list(edges)}


def _built(fn, doc):
    """The network's links as hex strings, or the error's type and text."""
    try:
        net = fn(doc)
    except (QnetdetError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(e.u, e.v, [v.hex() for v in e.link.entries]) for e in net.edges]


class TestIngestion:
    def test_errors_as_before(self):
        good = _edge_doc([0.6, 0.4])
        docs = [
            [],
            {"dimension": 2},
            {"terminals": ["A", "B"], "edges": []},
            _net_doc(good, [0.6, 0.4]),
            _net_doc(good, {"u": "A", "v": "B"}),
            _net_doc(good, {"u": "A", "schmidt": [0.6, 0.4]}),
            _net_doc({"v": "B", "schmidt": [0.6, 0.4]}),
            _net_doc(_edge_doc([0.6, 0.4], w=1)),
            _net_doc(_edge_doc((0.6, 0.4))),
            _net_doc(_edge_doc([])),
            _net_doc(_edge_doc([True, False])),
            _net_doc(_edge_doc([0.5, True])),
            _net_doc(_edge_doc([1, False])),
            _net_doc(_edge_doc(["0.5", 0.5])),
            _net_doc(_edge_doc([None, 1.0])),
            _net_doc(_edge_doc([1, 0])),
            _net_doc(_edge_doc([_Real(0.6), _Real(0.4)])),
            _net_doc(_edge_doc([0.6, 0.3, 0.1])),
            _net_doc(_edge_doc([0.6, 0.5])),
            _net_doc(_edge_doc([1.0 + 5e-13, -5e-13])),
            _net_doc(_edge_doc([0.9, 0.1]), {"u": "", "v": "B", "schmidt": [0.9, 0.1]}),
        ]
        for d in (2, 3, 5):
            for i in range(d):
                for bad in (-0.1, -1e-12, -2e-12, -3.0):
                    vec = [1.0 / d] * d
                    vec[i] = bad
                    docs.append(_net_doc(good if d == 2 else _edge_doc([1.0 / d] * d), _edge_doc(vec), d=d))
                    # a negative entry next to a total that is off as well
                    vec = [0.9] * d
                    vec[i] = bad
                    docs.append(_net_doc(_edge_doc(vec), d=d))
        check(SCREEN_DIGESTS, "ingest", docs, lambda doc: _built(network_from_dict, doc))
        # a numpy float is a float: no digest holds its repr across builds
        doc = _net_doc(_edge_doc([np.float64(0.7), 0.3]))
        assert _built(network_from_dict, doc) == _built(network_from_dict, _net_doc(_edge_doc([0.7, 0.3])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_at_every_position(self, bad):
        for d in (2, 3, 4):
            for i in range(d):
                vec = [1.0 / d] * d
                vec[i] = bad
                doc = _net_doc(_edge_doc([1.0 / d] * d), _edge_doc(vec), d=d)
                assert _built(network_from_dict, doc) == (SchemaError, "edge 1 schmidt has a non-finite entry")
                # ahead of a negative entry, wherever either stands
                for j in range(d):
                    if j != i:
                        vec2 = list(vec)
                        vec2[j] = -0.5
                        doc = _net_doc(_edge_doc(vec2), d=d)
                        assert _built(network_from_dict, doc) == (
                            SchemaError,
                            "edge 0 schmidt has a non-finite entry",
                        )

    def test_positive_vectors_skip_the_screen(self):
        # positive ints and floats go straight to _unit; a zero, -0.0, a
        # roundoff negative or a subclass entry takes normalize_descending
        rng = substream(SEED, "ingest_routes", 0)
        vecs = [
            [1],
            [1, 5e-10],
            [1, 1e-10, 2e-10],
            [0.25, 0.75],
            [0.1, 0.6, 0.3],
            [1.0, 5e-324],
            [1.0 - 1e-10, 1e-310, 1e-10],
            [0.6, 0.4 + 1e-9],
            [0.6, 0.4 - 1e-9],
            [0.6, 0.4 + 0.999e-9],
            [0.6, 0.4 - 0.999e-9],
            [0.6, 0.4 + 1.001e-9],
            [1.0, 0.0],
            [1.0, -0.0],
            [0, 1.0],
            [0.7, 0.0, 0.3],
            [1.0 + 5e-13, -5e-13],
            [0.5, 0.5 + 1e-12, -1e-12],
        ]
        for d in range(1, 9):
            for t in range(20):
                special = d > 1 and t % 4 == 0
                vals = _spread(rng, d - special)
                total = math.fsum(vals)
                vec = [v / total for v in vals]
                if special:
                    vec.insert(int(rng.integers(0, d)), (0.0, -0.0, -4e-13, 5e-324)[t // 4 % 4])
                vecs.append(vec)
        built = 0
        for vec in vecs:
            doc = _net_doc(_edge_doc(vec), d=len(vec))
            got = _built(network_from_dict, doc)
            if type(got) is list:
                built += 1
                assert got[0][2] == [v.hex() for v in normalize_descending(vec).entries], vec
            else:
                assert got[0] is SchemaError and " sums to " in got[1], vec
        # only the three sums beyond 1 +- 1e-9 are rejected
        assert built == len(vecs) - 3

    def test_float_subclass_entries_go_through_float(self):
        calls = []

        class Loud(float):
            def __float__(self):
                calls.append(self)
                return float.__float__(self)

        for vec in ([Loud(0.6), Loud(0.4)], [Loud(0.6), 0.4]):
            net = network_from_dict(_net_doc(_edge_doc(vec)))
            assert [type(v) for v in net.edges[0].link.entries] == [float, float]
            assert net.edges[0].link == normalize_descending([0.6, 0.4])
        assert len(calls) == 3

    def test_overflowing_sum(self):
        for vec in ([1e308, 1e308], [10**400, 0], [0.5, 10**400]):
            assert _built(network_from_dict, _net_doc(_edge_doc(vec))) == (
                SchemaError,
                "edge 0 schmidt sums to inf, expected 1 within 1e-9",
            )
        assert _built(network_from_dict, _net_doc(_edge_doc([-(10**400), 1]))) == (
            SchemaError,
            "edge 0 schmidt has a negative entry",
        )


class TestVectorReaders:
    """A SchmidtVector is read as it is; a plain list of the same values,
    in any order, takes the sorting route and gives the same bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_swap_rule(self, d):
        rng = substream(SEED, "readers_swap", d)
        links = _links(rng, d, 40)
        for x, y in zip(links[::2], links[1::2]):
            got = [v.hex() for v in swap_rule(x, y).entries]
            xs, ys = list(x.entries), list(y.entries)
            rng.shuffle(xs)
            rng.shuffle(ys)
            assert got == [v.hex() for v in normalize_descending(_swap_raw(xs, ys)).entries]
            assert got == [v.hex() for v in swap_rule(xs, ys).entries]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_conversion_probability(self, d):
        rng = substream(SEED, "readers_conversion", d)
        links = _links(rng, d, 40)
        shorter = _links(rng, d - 1, 20) if d > 1 else []
        pairs = list(zip(links[::2], links[1::2])) + [(x, x) for x in links[:5]] + list(zip(links, shorter))
        pairs.append((links[0], SchmidtVector([1.0 / d] * d)))
        for x, y in pairs:
            got = conversion_probability(x, y)
            xs, ys = list(x.entries), list(y.entries)
            rng.shuffle(xs)
            rng.shuffle(ys)
            assert got.hex() == majorization.conversion_probability(x, y).hex()
            assert got.hex() == conversion_probability(xs, ys).hex()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_concurrence(self, d):
        rng = substream(SEED, "readers_concurrence", d)
        for x in _links(rng, d, 20):
            for k in range(1, d + 1):
                assert concurrence(x, k).hex() == concurrence(list(x.entries), k).hex()


def _cep_links(rng, d):
    """Links of each kind the conversion walk treats apart: the uniform
    and the product vector, and spread, tiny-tailed (tails down to
    1e-300 and subnormal) and cut-support ones."""
    out = [SchmidtVector([1.0 / d] * d), SchmidtVector([1.0] + [0.0] * (d - 1))]
    for _ in range(8):
        out.append(normalize_descending(_spread(rng, d)))
        tails = (10.0 ** rng.uniform(-300.0, -1.0, d - 1)).tolist()
        if d > 1:
            tails[int(rng.integers(0, d - 1))] = float(rng.choice([5e-324, 1e-310, 2.5e-308]))
        out.append(normalize_descending([1.0] + tails))
        keep = int(rng.integers(1, d + 1))
        out.append(normalize_descending(_spread(rng, keep) + [0.0] * (d - keep)))
    return out


def _weak(rng, d):
    """A link whose top entry lies within 1e-12..1e-2 of 1."""
    tail = 10.0 ** rng.uniform(-12.0, -2.0)
    rest = rng.dirichlet(np.ones(d - 1)).tolist() if d > 1 else []
    return normalize_descending([1.0 - tail] + [tail * v for v in rest])


def _cep_before(net):
    """cep_probability as it was computed before the uniform target's
    side of the walk was shared: the reference conversion probability
    of each link, folded over the moves."""
    d = net.dimension
    uniform = SchmidtVector([1.0 / d] * d)
    moves, root = _decompose(net)
    scores = [majorization.conversion_probability(e.link, uniform) for e in net.edges]
    return _fold(moves, scores, lambda p, q: p * q, lambda ps: 1.0 - math.prod(sorted(1.0 - p for p in ps)))[root]


class TestCepWalk:
    """_cep takes the uniform target's side of the conversion walk once
    per network and runs the source walk per link: the bits of
    conversion_probability(link, uniform), and of the fold before."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_link_scores(self, d):
        rng = substream(SEED, "cep_walk", d)
        uniform = SchmidtVector([1.0 / d] * d)
        side = _target_side(uniform.entries, d)
        for link in _cep_links(rng, d):
            want = conversion_probability(link, uniform).hex()
            assert _source_walk(link.entries, side).hex() == want, link
            assert majorization.conversion_probability(link, uniform).hex() == want, link
            # a single link's figure is its score
            single = QuantumNetwork(d, ("A", "B"), [Edge("A", "B", link)])
            assert cep_probability(single).hex() == want, link

    @pytest.mark.parametrize("d", range(1, 9))
    def test_networks(self, d):
        rng = substream(SEED, "cep_networks", d)
        for t in range(30):
            net = random_network(d, 16, rng)
            if t % 2:
                net = QuantumNetwork(d, net.terminals, [Edge(e.u, e.v, _weak(rng, d)) for e in net.edges])
            assert cep_probability(net).hex() == _cep_before(net).hex()


def _with_drops(net, rng):
    """The network with a self-loop at A and a pendant edge at B."""
    d = net.dimension
    extra = [
        Edge("A", "A", normalize_descending(rng.dirichlet(np.ones(d)))),
        Edge("B", "pendant", normalize_descending(rng.dirichlet(np.ones(d)))),
    ]
    return QuantumNetwork(d, net.terminals, [*net.edges[:1], *extra, *net.edges[1:]])


def _dict_fold(moves, values, series_fn, parallel_fn) -> dict:
    """The move records folded over a dict of edge values, by edge id:
    a series or parallel record lists its input ids, then its output."""
    values = dict(enumerate(values))
    for op, ids, _ in moves:
        *inputs, out = ids
        if op == "series":
            values[out] = series_fn(*(values[e] for e in inputs))
        elif op == "parallel":
            values[out] = parallel_fn([values[e] for e in inputs])
    return values


class TestFold:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_list_fold_matches_dict_fold(self, d):
        rng = substream(SEED, "fold", d)
        for _ in range(12):
            net = _with_drops(random_network(d, 14, rng), rng)
            moves, root = _decompose(net)
            links = [e.link for e in net.edges]
            got = _fold(moves, links, swap_rule, _det_parallel)
            want = _dict_fold(moves, links, swap_rule, _det_parallel)
            assert sorted(want) == list(range(len(got)))
            assert all(got[eid] == vec for eid, vec in want.items())
            scores = [float(i) for i in range(len(links))]
            got = _fold(moves, scores, lambda p, q: p * q + 1.0, sum)
            want = _dict_fold(moves, scores, lambda p, q: p * q + 1.0, sum)
            assert got == [want[eid] for eid in range(len(got))]


class TestQubitBundle:
    """At d = 2 _det_parallel folds a bundle by the closed form
    rules._purify_qubit, in floats: each step and the bundle's vector
    have the bits of the pairwise purify_rule route over the four
    products (tests/_qubit_bundle_cases.py, run at 100,000 bundles in
    CI)."""

    def test_seeded_bundles(self):
        assert qubit_bundles.first_mismatch(2000) is None

    @pytest.mark.parametrize("kind", sorted(qubit_bundles.KINDS))
    def test_bundles_of_one_kind(self, kind):
        rng = random.Random(f"{SEED}-{kind}")
        draw = qubit_bundles.KINDS[kind]
        for k in range(2, qubit_bundles.MAX_ARITY + 1):
            for _ in range(10):
                assert qubit_bundles.mismatch([draw(rng) for _ in range(k)]) is None

    def test_numpy_drawn_bundles(self):
        rng = substream(SEED, "qubit_bundles", 0)
        for _ in range(200):
            links = [random_schmidt(2, rng) for _ in range(int(rng.integers(2, 13)))]
            assert qubit_bundles.mismatch(links) is None


_LEAF = (None, 0, 0, 0)


def _shape(op, parts):
    """Shape of the edge that move `op` makes from `parts`, as (op,
    leaves, plain, other): how many of its parts, nested `op` moves
    flattened, are single links, the other operator over single links
    only, or anything else.  A single link is _LEAF."""
    leaves = plain = other = 0
    for part_op, part_leaves, part_plain, part_other in parts:
        if part_op == op:
            leaves += part_leaves
            plain += part_plain
            other += part_other
        elif part_op is None:
            leaves += 1
        elif part_plain == part_other == 0:
            plain += 1
        else:
            other += 1
    return op, leaves, plain, other


def _shape_class(network, moves, root) -> TopologyClass:
    """Class of a decomposed network: series of links is a simple
    series, parallel of links a simple parallel, series of links and
    parallels of links is parallel-then-series, and parallel of series
    of links with at most one single link is series-then-parallel."""
    op, leaves, plain, other = _dict_fold(
        moves,
        [_LEAF] * len(network.edges),
        lambda p, q: _shape("series", (p, q)),
        lambda ps: _shape("parallel", ps),
    )[root]
    if plain == other == 0:
        return TopologyClass.SIMPLE_PARALLEL if op == "parallel" else TopologyClass.SIMPLE_SERIES
    if other:
        return TopologyClass.SERIES_PARALLEL
    if op == "series":
        return TopologyClass.PARALLEL_THEN_SERIES
    return TopologyClass.SERIES_THEN_PARALLEL if leaves <= 1 else TopologyClass.SERIES_PARALLEL


class TestClassify:
    """The class read off the move list is the class of the shape fold
    it replaced."""

    def test_bundled_networks(self, network_dir):
        for path in sorted(network_dir.glob("*.json")):
            net = parse_network(path.read_text(encoding="utf-8"))
            try:
                moves, root = _decompose(net)
            except NotSeriesParallel:
                assert classify_topology(net) is TopologyClass.NOT_SERIES_PARALLEL
                continue
            assert _classify(moves) is _shape_class(net, moves, root), path.name

    def test_random_draws(self):
        rng = substream(SEED, "classify", 0)
        seen = set()
        for t in range(3000):
            net = random_network(2, 24, rng)
            if t % 10 == 0:
                net = _with_drops(net, rng)
            moves, root = _decompose(net)
            got = _classify(moves)
            assert got is _shape_class(net, moves, root)
            seen.add(got)
        assert seen == set(TopologyClass) - {TopologyClass.NOT_SERIES_PARALLEL}


_MANIFEST = cli._manifest("reduce", {"network": "net.json"}, {}, False)


def _writes_report(net, manifest=_MANIFEST):
    """The writer's text, checked against render_json of report()."""
    text = render_report(net, manifest)
    assert text == render_json({"manifest": manifest, **report(net)})
    return text


def _net(d, terminals, edges):
    return QuantumNetwork(d, terminals, [Edge(u, v, SchmidtVector(vec)) for u, v, vec in edges])


# every edge off the A-B paths (a self-loop, a pendant and an island),
# zero entries and product links, bundles of equal vectors, and node
# names that JSON escapes or that only look unusual
HAND_BUILT = {
    "drops": _net(
        2,
        ("A", "B"),
        [
            ("A", "A", [0.6, 0.4]),
            ("A", "m", [0.7, 0.3]),
            ("m", "m", [0.5, 0.5]),
            ("m", "B", [0.8, 0.2]),
            ("B", "pendant", [0.9, 0.1]),
            ("x", "y", [0.55, 0.45]),
        ],
    ),
    "zeros_and_products": _net(
        3,
        ("A", "B"),
        [
            ("A", "m", [1.0, 0.0, 0.0]),
            ("A", "m", [0.5, 0.5, 0.0]),
            ("m", "B", [0.6, 0.4, 0.0]),
            ("m", "B", [1.0, 0.0, 0.0]),
            ("A", "B", [0.5, 0.3, 0.2]),
        ],
    ),
    "equal_bundles": _net(
        4,
        ("A", "B"),
        [("A", "m", [0.4, 0.3, 0.2, 0.1])] * 3 + [("m", "B", [0.7, 0.1, 0.1, 0.1])] * 2 + [("A", "B", [0.25] * 4)],
    ),
    "escaped_names": _net(
        2,
        ('A"', "B\\"),
        [
            ('A"', "\x01", [0.9, 0.1]),
            ("\x01", "é量", [0.8, 0.2]),
            ("é量", "B\\", [0.7, 0.3]),
            ('A"', "\u2028", [0.6, 0.4]),
            ("\u2028", "B\\", [0.6, 0.4]),
            ("\u2028", "\u2028", [0.5, 0.5]),
            ("\t", "B\\", [0.95, 0.05]),
        ],
    ),
}


class TestReportWriter:
    """`render_report` writes the bytes of render_json(report()) under
    the same manifest."""

    def test_bundled_networks_and_goldens(self, monkeypatch, repo_root, network_dir, golden_dir):
        monkeypatch.chdir(repo_root)
        goldens = 0
        for path in sorted(network_dir.glob("*.json")):
            arg = f"networks/{path.name}"
            net = parse_network(path.read_text(encoding="utf-8"))
            manifest = cli._manifest("reduce", {"network": arg}, {}, False)
            if path.stem == "bridge":
                for route in (lambda: report(net), lambda: render_report(net, manifest)):
                    with pytest.raises(NotSeriesParallel):
                        route()
                assert cli.main(["reduce", arg]) == cli.EXIT_NOT_SERIES_PARALLEL
                continue
            text = _writes_report(net, manifest)
            golden = golden_dir / f"reduce_{path.stem}.json"
            if golden.exists():
                assert text == golden.read_text(encoding="utf-8")
                goldens += 1
        assert goldens == len(list(golden_dir.glob("reduce_*.json")))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_networks(self, d):
        rng = substream(SEED, "report_writer", d)
        for t in range(30 if d <= 4 else 10):
            net = random_network(d, 30, rng)
            _writes_report(_with_drops(net, rng) if t % 3 == 0 else net)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        net = HAND_BUILT[name]
        trace = json.loads(_writes_report(net))["reduction_trace"]
        ops = [event["op"] for event in trace]
        assert ops.count("drop") == {"drops": 4, "escaped_names": 2}.get(name, 0)
        assert "parallel" in ops or name == "drops"

    def test_events_share_no_list(self):
        # a vector is one move's output and the next move's input; the
        # dict route gives each its own list
        trace = report(HAND_BUILT["equal_bundles"])["reduction_trace"]
        lists = [vec for event in trace for vec in (*event["inputs"], event["output"])]
        assert len({id(vec) for vec in lists}) == len(lists)


def _digest_networks():
    """Three networks at d <= 3 drawn with random.Random, so that their
    reports need no numpy and their bytes do not depend on its build."""
    rng = random.Random(SEED)

    def qubit():
        top = rng.uniform(0.6, 0.995)
        return [top, 1.0 - top]

    def qutrit():
        vals = [rng.uniform(0.01, 1.0) for _ in range(3)]
        return [v / math.fsum(vals) for v in vals]

    def doc(d, edges):
        return {"dimension": d, "terminals": ["A", "B"], "edges": [{"u": u, "v": v, "schmidt": x} for u, v, x in edges]}

    # G_k = series(parallel(G_(k-1), e), e): 401 edges, 200 levels deep
    ladder = [("A", "n0", qubit())]
    for level in range(200):
        far = "B" if level == 199 else f"n{level + 1}"
        ladder += [("A", f"n{level}", qubit()), (f"n{level}", far, qubit())]
    # a chain of 40 hops, each a bundle of 2-4 qutrit links
    bundles = []
    for hop in range(40):
        u, v = ("A" if hop == 0 else f"h{hop}"), ("B" if hop == 39 else f"h{hop + 1}")
        bundles += [(u, v, qutrit()) for _ in range(rng.randint(2, 4))]
    rng.shuffle(bundles)
    # a series-parallel core with a self-loop, a pendant and an island
    drops = [("A", "m", qubit()), ("m", "m", qubit()), ("m", "B", qubit()), ("B", "p", qubit())]
    drops += [("A", "B", qubit()), ("i0", "i1", qubit()), ("A", "k", qubit()), ("k", "B", qubit())]
    return {"ladder": doc(2, ladder), "bundles": doc(3, bundles), "drops": doc(2, drops)}


# render_report of each network under _DIGEST_MANIFEST, recorded at the
# code before the per-edge shortcuts of the parser, fold and writer
REPORT_DIGESTS = {
    "ladder": "d594623c6634e1ce0ee5aac2efee275e28528703465519dc4fdfcd9424572fb4",
    "bundles": "98019df8d628315cceae1fed1fe166bae6267b88025968c2f06be6ed66387daa",
    "drops": "578ebb360d1a89da99389723f50e80ffa9cde8b2564f6f07f85d88df80910fbe",
}
_DIGEST_MANIFEST = {"tool": "qnetdet", "subcommand": "reduce", "inputs": {"network": "net.json"}}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_as_recorded(name):
    # render_report and render_json(report()) share the fold and the row
    # formatting, so only recorded bytes can show a change to both
    text = render_report(parse_network(json.dumps(_digest_networks()[name])), _DIGEST_MANIFEST)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_DIGESTS[name]


# sha256 of the `qnetdet reduce` outputs of the first 100 networks of
# tests/_reduce_corpus.py, recorded at the code before the one-step value
# construction and the shared conversion walk; at d = 2 and 3 the
# reduction runs in pure Python, so the bytes hold on any platform.  d = 3
# was recorded again when sv_desc stopped leaving a rotation at t = 0
# where tau * tau overflows: in 8 of the 100 networks a product link
# meets a rank-2 link, whose swap the old sweep left with a subnormal
# residue (e.g. 9.9e-316) for an exact 0, and now returns 0
CORPUS_DIGESTS = {
    2: "4984270c00320155b99607dfc1c0ed141055a73931708c8db575571d0c26865f",
    3: "5b0f61a9b15d7b5522293770fa29be945050b9bb3d7f029d264d30c659acf303",
}


@pytest.mark.parametrize("d", sorted(CORPUS_DIGESTS))
def test_reduce_corpus_bytes_as_recorded(d):
    assert corpus.digest(d, 100) == CORPUS_DIGESTS[d]


def _qubit_ladder(levels, rng):
    """G_k = series(parallel(G_(k-1), e), e) from one link: 2 * levels + 1
    qubit links, levels deep."""
    def link():
        top = float(rng.uniform(0.97, 0.995))
        return [top, 1.0 - top]

    edges = [{"u": "A", "v": "n0", "schmidt": link()}]
    for level in range(levels):
        far = "B" if level == levels - 1 else f"n{level + 1}"
        edges.append({"u": "A", "v": f"n{level}", "schmidt": link()})
        edges.append({"u": f"n{level}", "v": far, "schmidt": link()})
    return json.dumps({"dimension": 2, "terminals": ["A", "B"], "edges": edges})


def test_reduce_leaves_no_cyclic_garbage(network_dir):
    texts = [path.read_text(encoding="utf-8") for path in sorted(network_dir.glob("*.json"))]
    texts.append(_qubit_ladder(5000, substream(SEED, "gc_ladder", 0)))
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            net = parse_network(text)
            if classify_topology(net).value == "NotSeriesParallel":
                continue
            render_json(report(net))
            render_report(net, _MANIFEST)
        assert gc.collect() == 0
    finally:
        gc.enable()
