"""Qubit networks fold on one tail per edge id, and every figure they
print is held against an exact reference: the vector rules in 60-digit
Decimal (tests/_qubit_network_oracle.py).  DET never does worse than
CEP on them, and cep_probability folds every bundle, at any dimension,
as p <- p + p_i (1 - p), held against exact Fractions."""

import random
from fractions import Fraction

import pytest
import _qubit_network_oracle as oracle
import _reduce_corpus as corpus

from qnetdet.network import (
    Edge,
    QuantumNetwork,
    _decompose,
    _fold,
    _union,
    cep_probability,
    network_from_dict,
    parse_network,
    reduce_series_parallel,
)
from qnetdet.rules import _source_walk, _target_side
from qnetdet.sampling import random_network, substream
from qnetdet.schmidt import SchmidtVector

SEED = 20261022
ULP = 2.0**-52


def _weak(net, rng):
    """The network with every link's tail drawn from 10^U(-12, -1)."""
    edges = []
    for e in net.edges:
        tail = 10.0 ** rng.uniform(-12.0, -1.0)
        edges.append(Edge(e.u, e.v, SchmidtVector([1.0 - tail, tail])))
    return QuantumNetwork(2, net.terminals, edges)


def _qubit_draws(count, stream):
    """`count` seeded random_network(2, 12) draws, every other one with
    weak links."""
    rng = substream(SEED, stream, 0)
    for t in range(count):
        net = random_network(2, 12, rng)
        yield _weak(net, rng) if t % 2 else net


class TestQubitOracle:
    """Every det_vector entry, C_k and cep_probability of a qubit report
    within its bound of the exact value: 8 ulps relative per move (see
    the oracle); measured at 2e-15 at most over 4,000 corpus networks."""

    def test_bundled_networks(self, network_dir):
        checked = 0
        for path in sorted(network_dir.glob("*.json")):
            net = parse_network(path.read_text(encoding="utf-8"))
            if net.dimension != 2 or path.stem == "bridge":
                continue
            assert oracle.check(net) is None, path.name
            checked += 1
        assert checked == 5

    def test_random_networks(self):
        for net in _qubit_draws(300, "qubit_oracle"):
            assert oracle.check(net) is None

    def test_corpus_networks(self):
        # the d = 2 networks whose reduce bytes tests/test_reduce_path.py pins
        rng = random.Random("reduce-corpus/0/2")
        for _ in range(100):
            assert oracle.check(network_from_dict(corpus.network(rng, 2))) is None


def test_det_never_below_cep():
    # 2 t_det >= cep_probability, relative to a few ulps; equality holds
    # on single links, and on chains with a uniform link
    for net in _qubit_draws(2000, "det_vs_cep"):
        det = 2.0 * reduce_series_parallel(net)[0].entries[1]
        cep = cep_probability(net)
        assert cep <= det * (1.0 + 4 * ULP), (det, cep)


def _exact_union(ps):
    miss = Fraction(1)
    for p in ps:
        miss *= 1 - Fraction(p)
    return 1 - miss


def _scores(rng, k):
    """k scores in [0, 1]: spread down to 1e-12, with zeros, ones and
    ties now and then."""
    out = []
    for _ in range(k):
        kind = rng.randrange(6)
        if kind == 0:
            out.append(rng.choice((0.0, 1.0)))
        elif kind == 1 and out:
            out.append(out[-1])
        else:
            out.append(10.0 ** rng.uniform(-12.0, 0.0))
    return out


class TestCepUnion:
    """A bundle's CEP figure is 1 - prod(1 - p_i), folded without a
    subtraction from 1: within 2 ulps relative per member of the exact
    value, however small the scores."""

    def test_scores(self):
        rng = random.Random(f"{SEED}-union")
        for _ in range(3000):
            ps = _scores(rng, rng.randint(1, 12))
            want = _exact_union(ps)
            got = _union(ps)
            assert abs(Fraction(got) - want) <= 2 * len(ps) * ULP * want, ps
            assert _union(ps[::-1]) == got

    def test_tiny_scores_keep_their_digits(self):
        # 1 - (1 - 1e-12)(1 - 3e-12) in floats is off by 5.6e-6 relative
        ps = [1e-12, 3e-12]
        assert abs(Fraction(_union(ps)) - _exact_union(ps)) <= 2 * ULP * _exact_union(ps)

    @pytest.mark.parametrize("d", [3, 4])
    def test_networks(self, d):
        # the whole fold of the link scores, series products and bundle
        # unions, against the same fold in Fractions
        rng = substream(SEED, "cep_union", d)
        side = _target_side(SchmidtVector([1.0 / d] * d).entries, d)
        for _ in range(40):
            net = random_network(d, 16, rng)
            moves, root = _decompose(net)
            scores = [_source_walk(e.link.entries, side) for e in net.edges]
            want = _fold(moves, [Fraction(p) for p in scores], lambda p, q: p * q, _exact_union)[root]
            moved = sum(op != "drop" for op, _, _ in moves)
            got = cep_probability(net)
            assert abs(Fraction(got) - want) <= 2 * (moved + 1) * ULP * want
