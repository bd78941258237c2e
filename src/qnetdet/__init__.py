"""Deterministic entanglement transmission on series-parallel quantum networks.

The package computes the Schmidt vector deterministically obtainable
between two terminals of a series-parallel network of bipartite pure
states, exposes the underlying series (entanglement swapping) and
parallel (purification) combination rules, and ships a randomized
verification suite for the monotone inequalities the construction
rests on.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .backend import backend_name
from .schmidt import (
    SchmidtVector,
    ProbabilisticEnsemble,
    normalize_descending,
    majorizes,
    kron,
    concurrence,
    det_vec,
    adjugate_vec,
)
from .rules import (
    Povm,
    swap_rule,
    purify_rule,
    conversion_probability,
    enumerate_swap_outcomes,
    validate_povm,
    deterministic_swap_povm,
    bell_povm_d2,
)
from .network import (
    QuantumNetwork,
    TopologyClass,
    parse_network,
    network_from_dict,
    reduce_series_parallel,
    classify_topology,
    cep_probability,
    report,
)

__all__ = [
    "__version__",
    "backend_name",
    "SchmidtVector",
    "ProbabilisticEnsemble",
    "normalize_descending",
    "majorizes",
    "kron",
    "concurrence",
    "det_vec",
    "adjugate_vec",
    "Povm",
    "swap_rule",
    "purify_rule",
    "conversion_probability",
    "enumerate_swap_outcomes",
    "validate_povm",
    "deterministic_swap_povm",
    "bell_povm_d2",
    "QuantumNetwork",
    "TopologyClass",
    "parse_network",
    "network_from_dict",
    "reduce_series_parallel",
    "classify_topology",
    "cep_probability",
    "report",
]
