"""The generator yields exact sizes, reducible networks and
non-degenerate results, all from the seed alone."""

import numpy as np
import pytest

import netgen
from qnetdet.network import network_from_dict, reduce_series_parallel

REDUCE = sorted(netgen.SHAPES)


@pytest.mark.parametrize("edges", [1, 2, 3, 4, 5, 17, 40, 81])
def test_nested_exact_size(edges):
    assert len(netgen.nested_edges(np.random.default_rng(0), edges)) == edges


@pytest.mark.parametrize("edges", range(20, 81, 7))
@pytest.mark.parametrize("heavy", [6, 9])
def test_bundles_exact_size(edges, heavy):
    out = netgen.bundles_edges(np.random.default_rng(edges), edges, heavy)
    assert len(out) == edges


@pytest.mark.parametrize("edges", range(80, 241, 23))
def test_chains_exact_size(edges):
    assert len(netgen.chains_edges(np.random.default_rng(edges), edges)) == edges


@pytest.mark.parametrize("workload", REDUCE)
@pytest.mark.parametrize("seed", [0, 7])
def test_pool_reduces_to_non_degenerate_vectors(workload, seed):
    d, lo, hi = netgen.SHAPES[workload]
    for doc in netgen.make_pool(workload, seed, 5):
        assert lo <= len(doc["edges"]) <= hi
        vec, _ = reduce_series_parallel(network_from_dict(doc))
        top = vec.entries[0]
        assert 1.0 / d + 1e-3 <= top <= 1.0 - 1e-3


@pytest.mark.parametrize("workload", REDUCE)
def test_pool_depends_only_on_seed(workload):
    first = netgen.dumps(netgen.make_pool(workload, 3, 3))
    assert first == netgen.dumps(netgen.make_pool(workload, 3, 3))
    assert first != netgen.dumps(netgen.make_pool(workload, 4, 3))
