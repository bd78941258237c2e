"""Randomized verification of the structural properties behind the
series and parallel rules.

Each check runs ``trials`` independent seeded trials against one claimed
property of the implemented maps (convexity, determinant identities,
majorization dominance, optimality of the deterministic rules against
sampled measurement strategies) and reports one-sided slacks: a
violation requires exceeding the configured tolerance, and the largest
slack is reported even on success so equality cases stay visible.

Identical configurations produce identical reports; trials draw from
per-trial substreams, so they are order-independent and individually
replayable.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time

import numpy as np

from . import sampling
from ._frozen import Frozen
from .backend import kernels
from .errors import (
    DimensionNotTwo,
    DimensionTooLarge,
    DimensionTooSmall,
    RejectionBudgetExceeded,
)
from .network import (
    Edge,
    QuantumNetwork,
    _decompose,
    _det_parallel,
    _fold,
    _head,
    reduce_series_parallel,
)
from .rules import (
    _outcome_spectra,
    _swap_raw,
    bell_povm_d2,
    deterministic_swap_povm,
    enumerate_swap_outcomes,
    purify_rule,
    swap_rule,
)
from .schmidt import (
    SchmidtVector,
    concurrence,
    det_vec,
    adjugate_vec,
    kron,
    majorization_slack,
    majorizes,
    normalize_descending,
    submajorization_slack,
    _integer,
    _unit,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CheckConfig",
    "CheckReport",
    "CHECKS",
    "GROUPS",
    "run_checks",
    "reproduce_counterexample",
]

# violations stored per report; the total is still counted
_VIOLATION_CAP = 25

_REJECTION_BUDGET = 200


class CheckConfig(Frozen):
    """Shared knobs for one verification run.

    Parameters
    ----------
    dimension : int
        Local dimension of every sampled link, 2..8.
    trials : int
        Independent trials per check.
    seed : int
        Root seed; every (check, trial) pair derives its own substream.
    tolerance : float
        One-sided slack above which a trial counts as a violation: a
        finite positive int or float (numpy floats too), kept as a float.
    povm_size : int, optional
        Element count for sampled swap measurements.  None picks the
        completeness minimum, dimension squared.
    """

    __slots__ = ("dimension", "trials", "seed", "tolerance", "povm_size")

    def __init__(self, dimension=2, trials=1000, seed=0, tolerance=1e-9, povm_size=None):
        dimension, trials, seed = _integer("dimension", dimension), _integer("trials", trials), _integer("seed", seed)
        if povm_size is not None:
            povm_size = _integer("povm_size", povm_size)
        if dimension < 2:
            raise DimensionTooSmall(f"dimension {dimension} below 2")
        if dimension > 8:
            raise DimensionTooLarge(f"dimension {dimension} above 8")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float, np.floating)):
            raise ValueError(f"tolerance must be a number, got {tolerance!r}")
        try:
            tolerance = float(tolerance)
        except OverflowError:  # an integer past the float range
            tolerance = math.inf
        if not tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if tolerance == math.inf:
            raise ValueError("tolerance must be finite")
        if povm_size is not None and povm_size < 1:
            raise ValueError("povm_size must be at least 1")
        for field, value in zip(self.__slots__, (dimension, trials, seed, tolerance, povm_size)):
            object.__setattr__(self, field, value)

    @property
    def resolved_povm_size(self) -> int:
        if self.povm_size is not None:
            return self.povm_size
        return self.dimension * self.dimension


class CheckReport(Frozen):
    """Outcome of one check: the violation records plus the largest
    slack seen across all trials (negative slack means comfortable
    margin).  ``passed`` is true exactly when no trial violated.  The
    violation records, a tuple of dicts, and the extras, a dict that
    defaults to a new empty one, hold JSON-ready values only (see
    _plain); through its dicts a report has no hash."""

    __slots__ = ("name", "trials_run", "passed", "max_slack", "violations", "extras")

    def __init__(self, name, trials_run, passed, max_slack, violations, extras=None):
        values = (name, trials_run, passed, max_slack, violations, {} if extras is None else extras)
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trials_run": self.trials_run,
            "passed": self.passed,
            "max_slack": self.max_slack,
            "violations": list(self.violations),
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        return out


def _plain(v):
    """``v`` as JSON-ready Python values: a SchmidtVector as its
    entries, an Edge as [u, v, link], a list, tuple or ndarray as a list
    and a dict as a dict, each element converted in turn.  str, bool,
    int and None stay as they are; anything else becomes a float, and a
    non-finite one its repr string ("nan", "inf", "-inf")."""
    if isinstance(v, SchmidtVector):
        v = v.entries
    elif isinstance(v, Edge):
        v = (v.u, v.v, v.link)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if v is None or isinstance(v, (str, int)):
        return v
    v = float(v)
    return v if math.isfinite(v) else repr(v)


class _Acc:
    """Per-check accumulator: the running slack maximum plus capped
    violation records.  The trial driver sets ``trial`` before each
    trial body runs; a fixed check leaves it None."""

    def __init__(self, tolerance: float):
        self.tol = float(tolerance)
        self.trial = None
        self.max_slack = -math.inf
        self.violations = []
        self.total = 0

    def slack(self, value, /, tol=None, **record):
        """Record one claim's slack.  Above ``tol`` (the configured
        tolerance when None), or NaN, it is a violation; the first
        _VIOLATION_CAP violations keep ``record``, after the trial
        index, through _plain.  A NaN leaves the maximum as it was."""
        v = float(value)
        if v > self.max_slack:
            self.max_slack = v
        if not v <= (self.tol if tol is None else tol):
            self.total += 1
            if len(self.violations) < _VIOLATION_CAP:
                if self.trial is not None:
                    record = {"trial": self.trial, **record}
                self.violations.append(_plain(record))

    def report(self, name, trials, extras=None) -> CheckReport:
        ex = _plain(extras or {})
        if self.total > len(self.violations):
            ex["violations_truncated_from"] = self.total
        return CheckReport(
            name=name,
            trials_run=trials,
            passed=self.total == 0,
            max_slack=0.0 if self.max_slack == -math.inf else self.max_slack,
            violations=tuple(self.violations),
            extras=ex,
        )


def _average_gap(weights, states, base) -> float:
    """Largest gap, over the concurrence orders k, of the weighted
    average of C_k over ``states`` above C_k(base)."""
    return max(
        math.fsum(p * concurrence(v, k) for p, v in zip(weights, states)) - concurrence(base, k)
        for k in range(1, base.dimension + 1)
    )


def _purify_raw(xs, d) -> list:
    return kernels.purify_kernel([float(v) for v in xs], d)


# ---------------------------------------------------------------------------
# registry and trial driver


# name -> (group, run, qubit_only) in report order, where run(cfg)
# returns the CheckReport and qubit_only is the skip reason of a
# statement about qubits only, None for any dimension; CHECKS and GROUPS
# are derived from it
_REGISTRY = {}


def _unmet(name: str, cfg: CheckConfig) -> str | None:
    """Why ``cfg`` misses the dimension precondition of check ``name``,
    or None when it meets it."""
    _, _, why = _REGISTRY[name]
    if why is None or cfg.dimension == 2:
        return None
    return f"{why}; configured dimension {cfg.dimension}"


def _trials(name: str, group: str, fold=None, qubit_only: str | None = None):
    """Register the decorated per-trial body as check ``name`` in
    ``group``.

    ``trial(cfg, t, rng, acc)`` runs trial ``t`` on the substream
    (seed, name, t), records its slacks on ``acc``, which stamps ``t``
    on every violation record, and returns the trial's record.
    ``fold(cfg, records)`` turns the records of all trials, in trial
    order, into the report extras.  A check with a ``qubit_only``
    reason raises DimensionNotTwo at any other dimension."""

    def register(trial):
        def run(cfg: CheckConfig) -> CheckReport:
            why = _unmet(name, cfg)
            if why:
                raise DimensionNotTwo(why)
            acc = _Acc(cfg.tolerance)
            records = []
            for t in range(cfg.trials):
                acc.trial = t
                records.append(trial(cfg, t, sampling.substream(cfg.seed, name, t), acc))
            return acc.report(name, cfg.trials, fold and fold(cfg, records))

        _REGISTRY[name] = (group, run, qubit_only)
        return trial

    return register


def _fixed(name: str, group: str):
    """Register the decorated fixed-instance body as check ``name`` in
    ``group``: ``body(acc)`` records its claims on ``acc`` once and
    returns the report extras."""

    def register(body):
        def run(cfg: CheckConfig) -> CheckReport:
            acc = _Acc(cfg.tolerance)
            return acc.report(name, 1, body(acc))

        _REGISTRY[name] = (group, run, None)
        return body

    return register


def _hits(records) -> list:
    """The records of the trials that returned one."""
    return [r for r in records if r is not None]


# ---------------------------------------------------------------------------
# spectral-map identities


def _mixing_slack(acc, rule, xs, ps, d, **record):
    """Record on ``acc`` whether the ``ps``-weighted sum of ``rule`` (d
    entries) over the inputs ``xs`` majorizes ``rule`` of their weighted
    sum; the record is weights, inputs, ``record``, then both sides."""
    mix_of_maps = np.zeros(d)
    mixed_input = np.zeros(len(xs[0]))
    for p, x in zip(ps, xs):
        mix_of_maps += p * np.asarray(rule(x))
        mixed_input += p * np.asarray(x)
    map_of_mix = rule(mixed_input.tolist())
    acc.slack(
        majorization_slack(mix_of_maps, map_of_mix),
        weights=ps,
        inputs=xs,
        **record,
        mix_of_maps=mix_of_maps,
        map_of_mix=map_of_mix,
    )


@_trials("lemma_convexity_swap", "lemmas")
def _(cfg, t, rng, acc):
    """Mixing swap inputs spreads the output spectrum upward: the
    weighted sum of per-input swap spectra majorizes the swap spectrum
    of the weighted input sum, for nonnegative weights."""
    d = cfg.dimension
    count = int(rng.integers(2, 5))
    xs = [sorted(sampling.random_positive(d, rng), reverse=True) for _ in range(count)]
    ps = rng.uniform(0.2, 2.0, size=count).tolist()
    z = sampling.random_positive(d, rng)
    _mixing_slack(acc, lambda x: _swap_raw(x, z), xs, ps, d, z=z)


@_trials("lemma_det_preserving", "lemmas")
def _(cfg, t, rng, acc):
    """The swap output determinant equals d^d times the product of the
    input determinants, to relative accuracy."""
    d = cfg.dimension
    x = sampling.random_schmidt(d, rng)
    y = sampling.random_schmidt(d, rng)
    lhs = det_vec(swap_rule(x, y))
    rhs = d**d * det_vec(x) * det_vec(y)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    acc.slack(rel, x=x, y=y, lhs=lhs, rhs=rhs)


@_trials("lemma_duality", "lemmas")
def _(cfg, t, rng, acc):
    """Entrywise-reciprocal duality: the sorted adjugate spectrum of a
    swap output equals d^(d-2) times the swap of the input adjugates.
    Sampled on interior vectors so the reciprocals stay conditioned."""
    d = cfg.dimension
    scale = d ** (d - 2)
    raw = rng.dirichlet(np.ones(d)) + 0.02
    x = SchmidtVector(raw / raw.sum())
    raw = rng.dirichlet(np.ones(d)) + 0.02
    y = SchmidtVector(raw / raw.sum())
    lhs = sorted(adjugate_vec(swap_rule(x, y)), reverse=True)
    rhs = [scale * v for v in _swap_raw(adjugate_vec(x), adjugate_vec(y))]
    ref = max(abs(v) for v in lhs)
    worst = max(abs(a - b) for a, b in zip(lhs, rhs)) / max(ref, 1e-300)
    acc.slack(worst, x=x, y=y, lhs=lhs, rhs=rhs)


def _extremity_extras(cfg, records):
    return {
        "rejection_fallbacks": sum(fallback for fallback, _ in records),
        "mean_draws_per_trial": round(sum(draws for _, draws in records) / cfg.trials, 3),
    }


@_trials("lemma_extremity", "lemmas", fold=_extremity_extras)
def _(cfg, t, rng, acc):
    """The parallel rule output is the majorization-least dominator:
    any d-entry unit vector whose zero-padding majorizes the input also
    majorizes the rule output.  Candidates come from rejection sampling
    with a deterministic tail-collapse fallback.  The record is
    (fallback used, draws)."""
    d = cfg.dimension
    m = d + 1 + (t % 2)
    x = sampling.random_schmidt(m, rng)
    try:
        cand, used = sampling.dominating_candidate(x.entries, d, _REJECTION_BUDGET, rng)
        record = (0, used)
    except RejectionBudgetExceeded:
        cand = SchmidtVector(sampling.tail_collapse(x.entries, d))
        record = (1, _REJECTION_BUDGET)
    pur = purify_rule(x, d)
    acc.slack(majorization_slack(cand.entries, pur.entries), x=x, candidate=cand, purified=pur)
    return record


@_trials("lemma_convexity_purify", "lemmas")
def _(cfg, t, rng, acc):
    """Mixing inputs of the parallel rule spreads the output upward:
    the weighted sum of per-input outputs majorizes the output of the
    weighted input sum."""
    d = cfg.dimension
    m = d + 1 + (t % 2)
    count = int(rng.integers(2, 5))
    xs = [sorted(sampling.random_positive(m, rng), reverse=True) for _ in range(count)]
    ps = rng.uniform(0.2, 2.0, size=count).tolist()
    _mixing_slack(acc, lambda x: _purify_raw(x, d), xs, ps, d)


@_trials("lemma_sum_product", "lemmas")
def _(cfg, t, rng, acc):
    """Log-domain mixing bound for the parallel rule: whenever the log
    of z is weakly submajorized by the summed logs of x and y, the same
    holds after applying the rule to all three.

    z is built on the equality boundary (entrywise product of the
    sorted inputs), then pushed strictly inside the premise by
    entrywise damping and pairwise log-domain transfers, both of which
    can only lower sorted log prefix sums."""
    d = cfg.dimension
    m = d + 1 + (t % 2)
    x = sorted(sampling.random_positive(m, rng), reverse=True)
    y = sorted(sampling.random_positive(m, rng), reverse=True)
    z = [a * b for a, b in zip(x, y)]
    if t % 5:
        z = sampling.log_damped(z, rng)
        steps = int(rng.integers(0, 3))
        if steps:
            z = np.exp(sampling.dominated_vector(np.log(z), steps, rng)).tolist()
    lhs = np.log(_purify_raw(x, d)) + np.log(_purify_raw(y, d))
    rhs = np.log(_purify_raw(z, d))
    acc.slack(submajorization_slack(rhs, lhs), x=x, y=y, z=z, lhs_logs=lhs, rhs_logs=rhs)


# the largest dimension at which the swap part of isotone_maps is asserted
_SWAP_ISOTONE_MAX_D = 3


def _isotone_extras(cfg, swap_slacks):
    if cfg.dimension <= _SWAP_ISOTONE_MAX_D:
        return None
    worst = max(range(cfg.trials), key=swap_slacks.__getitem__)
    return {"swap_max_slack": swap_slacks[worst], "swap_worst_trial": worst}


@_trials("isotone_maps", "lemmas", fold=_isotone_extras)
def _(cfg, t, rng, acc):
    """Order preservation of everything downstream of a majorization:
    swap and purify map a dominating input to a dominating output, and
    every concurrence order is monotone under domination and concave
    under mixing.

    The swap part is asserted only up to dimension 3.  From d = 4 on it
    is false: sampled x majorizing y give swap(x, z) that fails to
    majorize swap(y, z) by ~1e-4, far above the series rule's error
    (tests/test_checks.py pins one such triple).  There its largest
    slack and that trial go to the extras instead."""
    d = cfg.dimension
    x = sorted(sampling.random_positive(d, rng), reverse=True)
    y = sampling.dominated_vector(x, int(rng.integers(1, 5)), rng)
    z = sampling.random_positive(d, rng)
    s_swap = majorization_slack(_swap_raw(x, z), _swap_raw(y, z))

    m = d + 1 + (t % 2)
    xm = sorted(sampling.random_positive(m, rng), reverse=True)
    ym = sampling.dominated_vector(xm, int(rng.integers(1, 5)), rng)
    s_pur = majorization_slack(_purify_raw(xm, d), _purify_raw(ym, d))

    tot = math.fsum(x)
    lam_hi = SchmidtVector([v / tot for v in x])
    lam_lo = SchmidtVector([v / tot for v in y])
    s_mono = max(
        concurrence(lam_hi, k) - concurrence(lam_lo, k) for k in range(1, d + 1)
    )

    count = int(rng.integers(2, 5))
    members = [sampling.random_schmidt(d, rng) for _ in range(count)]
    weights = rng.dirichlet(np.ones(count)).tolist()
    mix = SchmidtVector(
        np.sum([p * np.asarray(v.entries) for p, v in zip(weights, members)], axis=0)
    )
    s_conc = _average_gap(weights, members, mix)

    if d <= _SWAP_ISOTONE_MAX_D:
        worst = max(s_swap, s_pur, s_mono, s_conc)
    else:
        worst = max(s_pur, s_mono, s_conc)
    acc.slack(
        worst,
        swap_slack=s_swap,
        purify_slack=s_pur,
        monotonicity_slack=s_mono,
        concavity_slack=s_conc,
        x=x,
        y=y,
    )
    return s_swap


def _prefix_term(values, l, k, s) -> float:
    """Product of the l-1 largest values times the power sum, exponent
    s, of the values ranked l..k."""
    vs = sorted(values, reverse=True)
    prod = 1.0
    for v in vs[: l - 1]:
        prod *= v
    return prod * math.fsum(v**s for v in vs[l - 1 : k])


@_trials("prefix_power", "lemmas")
def _(cfg, t, rng, acc):
    """Prefix-product power-sum dominance: when the sorted logs of x
    weakly submajorize those of y, the product of the l-1 largest
    entries times the power sum of entries l..k is at least as large
    for x as for y, for every valid k, l and exponent 0 <= s <= k-l+1.
    Exponent boundaries are cycled in deterministically."""
    n = cfg.dimension + (t % 4)
    x = sorted(sampling.random_positive(n, rng), reverse=True)
    y = sampling.log_damped(x, rng)
    k = int(rng.integers(1, n + 1))
    l = int(rng.integers(1, k + 1))
    cyc = t % 7
    if cyc == 0:
        s = 0.0
    elif cyc == 1:
        s = float(k - l + 1)
    else:
        s = float(rng.uniform(0.0, k - l + 1))
    tx = _prefix_term(x, l, k, s)
    ty = _prefix_term(y, l, k, s)
    acc.slack((ty - tx) / max(abs(tx), 1e-300), x=x, y=y, k=k, l=l, s=s, lhs=tx, rhs=ty)


def _fold_link(d, rng) -> SchmidtVector:
    """A link for the fold check: a flat Dirichlet draw, or a shape on
    which the parallel rule's levelling switches: integer weights (ties
    and zeros), a product state, the uniform vector or a cut support."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return sampling.random_schmidt(d, rng)
    if kind == 1:
        w = rng.integers(0, 4, size=d).astype(float)
        w[0] += 1.0
    elif kind == 2:
        w = np.eye(d)[0]
    elif kind == 3:
        w = np.ones(d)
    else:
        w = rng.dirichlet(np.ones(d))
        w[int(rng.integers(1, d)):] = 0.0
    return normalize_descending(w)


@_trials("lemma_parallel_fold", "lemmas")
def _(cfg, t, rng, acc):
    """The reduction folds a bundle pairwise, P(..P(P(a(x)b)(x)c)..),
    where P is the parallel rule down to d entries and (x) the tensor
    product; this equals P of the full product of the bundle.  Each
    trial reduces an A-B bundle of 2..5 links, members in drawn and in
    reversed order, against the full product (capped at 4096 entries).

    Proof sketch, P(P(x)(x)c) = P(x(x)c) for x with at least d entries
    and unit total: P(w) is the least d-vector majorizing w (the
    ordering behind Nielsen's conversion criterion, PRL 83, 436, 1999),
    since its prefix sums are the least concave majorant of the points
    (k, S_k(w)), k < d, and (d, total); so y majorizing w makes P(y)
    majorize P(w).  P(x) majorizes x, so P(x)(x)c majorizes x(x)c and
    P(P(x)(x)c) majorizes P(x(x)c).  Conversely write P(x) = (x_1..x_r,
    t..t), d - r level entries t <= x_r, and take the k < d largest
    entries of P(x)(x)c, each column's head products x_i c_j before its
    level ones: h head entries summing to H, and q = k - h level ones in
    columns J.  Each column in J holds all r head entries, so h >= r and
    its level mass (d - r) t c_j lies outside H; the level entries sum
    to at most q t max_J c_j <= q (1 - H) / (d - h).  The concave prefix
    sums of P(x(x)c) lie above (h, H) and reach 1 at d, so at k they are
    at least H + q (1 - H) / (d - h): P(x(x)c) majorizes P(x)(x)c, hence
    P(P(x)(x)c).  The two majorize each other, so they are equal, and
    induction over the members gives the fold.  The slack is the largest
    entry difference, which is rounding only."""
    d = cfg.dimension
    most = 5
    while d**most > 4096:
        most -= 1
    links = [_fold_link(d, rng) for _ in range(int(rng.integers(2, most + 1)))]
    product = [math.prod(p) for p in itertools.product(*(v.entries for v in links))]
    full = _unit(_purify_raw(product, d)).entries
    folded = [
        reduce_series_parallel(
            QuantumNetwork(d, ("A", "B"), [Edge("A", "B", v) for v in members])
        )[0].entries
        for members in (links, links[::-1])
    ]
    acc.slack(
        max(abs(a - b) for vec in folded for a, b in zip(vec, full)),
        links=links,
        full_product=full,
        folded=folded,
    )


def _scrambled(edges, terminals, rng) -> QuantumNetwork:
    """The network on `edges` with its inner node names shuffled among
    the inner nodes, and its edges permuted and each reversed with
    probability 1/2."""
    inner = sorted({n for e in edges for n in (e.u, e.v)} - set(terminals))
    names = dict(zip(inner, (inner[int(k)] for k in rng.permutation(len(inner)))))
    names.update((n, n) for n in terminals)
    out = []
    for i in rng.permutation(len(edges)):
        e = edges[int(i)]
        u, v = names[e.u], names[e.v]
        out.append(Edge(v, u, e.link) if rng.random() < 0.5 else Edge(u, v, e.link))
    return QuantumNetwork(edges[0].link.dimension, terminals, out)


@_trials("reduction_invariance", "lemmas")
def _(cfg, t, rng, acc):
    """The reduction is a function of the network's shape: shuffling
    the inner node names, permuting the edges and reversing some of
    them, and adding edges that lie on no A-B path, changes no bit of
    the final vector, the conversion figure or the topology class.
    From d = 4 on the series rule is not associative, so this holds
    only because the fold order comes from the series-parallel
    decomposition tree: chains fold left to right from A, bundles in
    ascending vector order.

    Each trial draws a random series-parallel network of up to 30 links
    and adds 0..3 off-path edges: self-loops, pendants and triangles
    hanging off a node, and islands.  Every 10th trial is instead a bare
    chain of 2..8 links, scrambled, against the left fold
    swap(..swap(swap(l1, l2), l3).., lk).  The slack is the largest
    entry difference, with a class mismatch counting 1; the tolerance
    is zero."""
    d = cfg.dimension
    if t % 10 == 0:
        links = [sampling.random_schmidt(d, rng) for _ in range(int(rng.integers(2, 9)))]
        path = ["A", *(f"r{int(k)}" for k in rng.permutation(len(links) - 1)), "B"]
        edges = [Edge(u, v, link) for u, v, link in zip(path, path[1:], links)]
        got = reduce_series_parallel(_scrambled(edges, ("A", "B"), rng))[0].entries
        want = functools.reduce(swap_rule, links).entries
        acc.slack(
            max(abs(a - b) for a, b in zip(got, want)),
            tol=0.0,
            links=links,
            reduced=got,
            left_fold=want,
        )
        return
    net = sampling.random_network(d, 30, rng)
    nodes = sorted({n for e in net.edges for n in (e.u, e.v)})
    edges = list(net.edges)
    for i in range(int(rng.integers(0, 4))):
        n = nodes[int(rng.integers(len(nodes)))]
        x, y = f"off{i}x", f"off{i}y"
        pairs = ([(n, n)], [(n, x)], [(n, x), (x, y), (y, n)], [(x, y)])[int(rng.integers(4))]
        edges += [Edge(u, v, sampling.random_schmidt(d, rng)) for u, v in pairs]
    base = _head(net)[0]
    other = _head(_scrambled(edges, net.terminals, rng))[0]
    acc.slack(
        max(
            float(base["topology"] != other["topology"]),
            abs(base["cep_probability"] - other["cep_probability"]),
            *(abs(a - b) for a, b in zip(base["det_vector"], other["det_vector"])),
        ),
        tol=0.0,
        edges=edges,
        topology=[base["topology"], other["topology"]],
        cep_probability=[base["cep_probability"], other["cep_probability"]],
        det_vector=[base["det_vector"], other["det_vector"]],
    )


def _amgm_extras(cfg, records):
    tight = _hits(records)
    return {
        "equality_trials": len(tight),
        "equality_max_abs_slack": max([0.0, *tight]),
    }


@_trials("reverse_amgm", "amgm", fold=_amgm_extras)
def _(cfg, t, rng, acc):
    """Reverse arithmetic-geometric mean bound for slowly growing
    increments: with E_k = offset + sum of the first k increments and
    every increment between its predecessor and E_k/k, the power mean
    (E_n/n)^n is bounded by the increment product times
    (1 + (offset/first)/n)^n, per-prefix variants included.  Evaluated
    in the log domain; equality cases (all increments equal) are cycled
    in and keep the recorded slack at the floating-point floor.  The
    record of an equality trial is its absolute slack."""
    n = int(rng.integers(1, 11))
    mode = t % 25
    if mode == 0:
        eps = [float(rng.uniform(0.1, 2.0))] * n
        delta = 0.0
    elif mode == 1:
        eps = [float(rng.uniform(0.1, 2.0))] * n
        delta = float(rng.exponential(1.0)) + 0.1
    else:
        delta = 0.0 if rng.random() < 0.3 else float(rng.exponential(1.0))
        eps = [float(rng.uniform(0.1, 2.0))]
        total = delta + eps[0]
        for k in range(1, n):
            hi = total / k
            nxt = float(rng.uniform(eps[-1], hi)) if hi > eps[-1] else eps[-1]
            eps.append(nxt)
            total += nxt
    ln_eps = [math.log(v) for v in eps]
    ratio = delta / eps[0]
    prefix = 0.0
    running = delta
    worst = -math.inf
    for j in range(1, n + 1):
        prefix += ln_eps[j - 1]
        running += eps[j - 1]
        mean_ln = j * math.log(running / j)
        bound_mean = prefix + j * math.log1p(ratio / j)
        bound_exp = prefix + ratio
        worst = max(worst, mean_ln - bound_mean, mean_ln - bound_exp)
    acc.slack(worst, offset=delta, increments=eps)
    if mode in (0, 1):
        # the (1 + ratio/n)^n form is tight for equal increments
        prefix = math.fsum(ln_eps)
        running = delta + math.fsum(eps)
        return abs(n * math.log(running / n) - (prefix + n * math.log1p(ratio / n)))
    return None


# ---------------------------------------------------------------------------
# protocol optimality


@_trials("theorem_single_link", "theorems")
def _(cfg, t, rng, acc):
    """Converting one link into a measurement ensemble cannot raise any
    average concurrence order, whether the link then feeds a swap or a
    purification.  Also verifies the locality premise: the sorted
    ensemble average majorizes the source spectrum."""
    d = cfg.dimension
    lam = sampling.random_schmidt(d, rng)
    count = 1 if t % 10 == 0 else int(rng.integers(2, 5))
    kraus = sampling.sample_local_kraus(d, count, rng)
    ens = _outcome_spectra(np.ones(kraus.shape[1]), lam.entries, kraus)
    states = [_unit(vec.tolist()) for _, vec in ens]

    mix = np.sum([p * vec for p, vec in ens], axis=0)
    s_local = majorization_slack(mix, lam.entries)

    z = sampling.random_schmidt(d, rng)
    w = sampling.random_schmidt(d, rng)
    swap_base = swap_rule(lam, z)
    pur_base = purify_rule(kron(lam, w), d)
    swapped = [swap_rule(v, z) for v in states]
    purified = [purify_rule(kron(v, w), d) for v in states]
    probs = [p for p, _ in ens]
    s_swap = _average_gap(probs, swapped, swap_base)
    s_pur = _average_gap(probs, purified, pur_base)
    worst = max(s_local, s_swap, s_pur)
    acc.slack(
        worst,
        link=lam,
        locality_slack=s_local,
        swap_context_slack=s_swap,
        purify_context_slack=s_pur,
        probabilities=probs,
    )


@functools.lru_cache(maxsize=None)
def _series_low_order_witness(d: int) -> dict:
    """Fixed demonstration that series-rule optimality is a top-order
    property only: on two rank-2 links, the block measurement built
    from the four qubit elements keeps every outcome maximally
    entangled on its support, so the order-2 ensemble average exceeds
    the order-2 value of the rule output.  Recorded, never asserted."""
    link = SchmidtVector([0.5, 0.5] + [0.0] * (d - 2))
    els = np.zeros((d * d, d, d), dtype=complex)
    els[:4, :2, :2] = bell_povm_d2().elements
    units = [(i, j) for i in range(d) for j in range(d) if i >= 2 or j >= 2]
    for a, (i, j) in enumerate(units, start=4):
        els[a, i, j] = 1.0
    outs = _outcome_spectra(link.entries, link.entries, els)
    avg = math.fsum(p * concurrence(_unit(v.tolist()), 2) for p, v in outs)
    rule_value = concurrence(swap_rule(link, link), 2)
    return {
        "order": 2,
        "link": link,
        "ensemble_average": avg,
        "rule_value": rule_value,
        "gap": avg - rule_value,
    }


def _series_extras(cfg, records):
    extras = {"deterministic_equality_gap": max([0.0, *_hits(records)])}
    if cfg.dimension >= 3:
        extras["low_order_witness"] = _series_low_order_witness(cfg.dimension)
    return extras


@_trials("theorem_simple_series", "theorems", fold=_series_extras)
def _(cfg, t, rng, acc):
    """Against sampled complete swap measurements, the series rule is
    average-optimal in the top concurrence order, and its top order
    factorizes into the product of the input values.  The explicit
    measurement that realizes the rule is cycled in to expose the
    equality case; the record of such a trial is its absolute gap.
    Lower orders are not asserted; a fixed witness in the extras shows
    why."""
    d = cfg.dimension
    la = sampling.random_schmidt(d, rng)
    lb = sampling.random_schmidt(d, rng)
    deterministic = t % 10 == 0
    if deterministic:
        els = deterministic_swap_povm(d).elements
    else:
        els = sampling.sample_povm_arrays(d, cfg.resolved_povm_size, rng)
    outs = _outcome_spectra(la.entries, lb.entries, els)
    base = swap_rule(la, lb)
    cd_base = concurrence(base, d)
    avg = math.fsum(p * concurrence(_unit(v.tolist()), d) for p, v in outs)
    s_avg = avg - cd_base
    prod = concurrence(la, d) * concurrence(lb, d)
    rel_mult = abs(cd_base - prod) / max(prod, 1e-300)
    acc.slack(s_avg, claim="average_top_order", links=[la, lb], average=avg, rule_value=cd_base)
    acc.slack(
        rel_mult,
        tol=1e-8,
        claim="multiplicativity",
        links=[la, lb],
        rule_value=cd_base,
        product=prod,
    )
    return abs(s_avg) if deterministic else None


@_trials("theorem_simple_parallel", "theorems")
def _(cfg, t, rng, acc):
    """Against sampled rank-reducing measurements on the joint state of
    two parallel links, the parallel rule is average-optimal in every
    concurrence order; the sorted ensemble average majorizes both the
    joint spectrum (padded) and the rule output."""
    d = cfg.dimension
    la = sampling.random_schmidt(d, rng)
    lb = sampling.random_schmidt(d, rng)
    joint = kron(la, lb)
    count = int(rng.integers(d, d + 3))
    kraus = sampling.sample_wide_kraus(d, count, rng)
    ens = _outcome_spectra(np.ones(kraus.shape[1]), joint.entries, kraus)
    states = [_unit(vec.tolist()) for _, vec in ens]
    pur = purify_rule(joint, d)

    mix = np.sum([p * vec for p, vec in ens], axis=0)
    s_joint = majorization_slack(mix, joint.entries)
    s_rule = majorization_slack(mix, pur.entries)
    s_avg = _average_gap([p for p, _ in ens], states, pur)
    worst = max(s_joint, s_rule, s_avg)
    acc.slack(worst, links=[la, lb], joint_slack=s_joint, rule_slack=s_rule, average_slack=s_avg)


@functools.lru_cache(maxsize=None)
def _nested_qubit_demo() -> dict:
    """Fixed comparison on four identical qubit links: swapping the two
    joint states through independent four-element qubit measurements
    and purifying each branch stays strictly below the purify-then-swap
    rule value."""
    lam = SchmidtVector((0.9, 0.1))
    zz = list(enumerate_swap_outcomes(lam, lam, bell_povm_d2()))
    avg = 0.0
    for pi, vi in zz:
        for pj, vj in zz:
            avg += pi * pj * concurrence(purify_rule(kron(vi, vj), 2), 2)
    pur = purify_rule(kron(lam, lam), 2)
    rule_value = concurrence(swap_rule(pur, pur), 2)
    return {
        "link": [0.9, 0.1],
        "rule_value": rule_value,
        "nested_average": avg,
    }


def _product_measurement(ys, zs):
    """Every ``np.kron(yi, zj)``, yi outer and zj inner, as one stack
    built in one broadcast: (K, d, d) and (L, d, d) arrays give
    (K·L, d², d²)."""
    prod = ys[:, None, :, None, :, None] * zs[None, :, None, :, None, :]
    k, l, r1, r2, c1, c2 = prod.shape
    return prod.reshape(k * l, r1 * r2, c1 * c2)


def _parallel_then_series_extras(cfg, records):
    nested = _hits(records)
    extras = {
        "nested_trials": len(nested),
        "nested_best_average": max([0.0, *nested]),
    }
    if cfg.dimension == 2:
        extras["nested_qubit_demo"] = _nested_qubit_demo()
    return extras


@_trials("theorem_parallel_then_series", "theorems", fold=_parallel_then_series_extras)
def _(cfg, t, rng, acc):
    """Two parallel pairs joined in series: any sampled complete swap
    measurement on the two joint states, followed by purifying each
    outcome, has top-order average at most the value of purifying both
    pairs first and swapping the results.  Product measurements (the
    nested strategy) are cycled in and tracked separately: the record
    of such a trial is its average."""
    d = cfg.dimension
    links = [sampling.random_schmidt(d, rng) for _ in range(4)]
    joint_left = kron(links[0], links[1])
    joint_right = kron(links[2], links[3])
    nested = t % 5 == 0
    if nested:
        ys = sampling.sample_povm_arrays(d, d * d, rng)
        zs = sampling.sample_povm_arrays(d, d * d, rng)
        els = _product_measurement(ys, zs)
    else:
        els = sampling.sample_povm_arrays(d * d, d**4, rng)
    outs = _outcome_spectra(joint_left.entries, joint_right.entries, els)
    avg = math.fsum(p * concurrence(_unit(_purify_raw(vec.tolist(), d)), d) for p, vec in outs)
    bound = concurrence(
        swap_rule(purify_rule(joint_left, d), purify_rule(joint_right, d)), d
    )
    acc.slack(avg - bound, links=links, nested=nested, average=avg, rule_value=bound)
    return avg if nested else None


@_trials(
    "theorem_worst_case_d2",
    "theorems",
    qubit_only="worst-case optimality is a qubit statement",
)
def _(cfg, t, rng, acc):
    """Qubit networks only: replacing any one link of a random
    series-parallel network by a measurement ensemble and reducing each
    branch deterministically cannot push the worst branch above the
    all-deterministic value.  Single-operator (unitary) ensembles are
    cycled in to expose the equality case."""
    net = sampling.random_network(2, 6, rng)
    # every branch has the network's shape: decompose it once
    moves, root = _decompose(net)
    links = [e.link for e in net.edges]

    def reduced(values):
        return concurrence(_fold(moves, values, swap_rule, _det_parallel)[root], 2)

    base = reduced(links)
    idx = int(rng.integers(0, len(links)))
    count = 1 if t % 10 == 0 else int(rng.integers(2, 5))
    kraus = sampling.sample_local_kraus(2, count, rng)
    ens = _outcome_spectra(np.ones(kraus.shape[1]), links[idx].entries, kraus)
    worst_branch = math.inf
    for _, vec in ens:
        branch = list(links)
        branch[idx] = _unit(vec.tolist())
        worst_branch = min(worst_branch, reduced(branch))
    acc.slack(
        worst_branch - base,
        edge=idx,
        edge_count=len(links),
        worst_branch=worst_branch,
        deterministic_value=base,
    )


# ---------------------------------------------------------------------------
# fixed-instance comparison

# closed form of the triangle reduction's top entry and the published
# three-digit reference values frozen for regression
_TRIANGLE_TOP = 9.0 * (25.0 + 4.0 * math.sqrt(34.0)) / 500.0
_REFERENCE_DET = 0.673
_REFERENCE_ZZ = 0.695
_REFERENCE_MIXTURE = (0.819, 0.181)


def reproduce_counterexample() -> dict:
    """Fixed-instance demonstration that the deterministic rules are
    not average-optimal once a series pair is later joined in parallel.

    Three identical (0.9, 0.1) qubit links form a triangle: two in
    series A-M-B plus one direct A-B link.  The deterministic reduction
    yields one final vector; applying the four-element qubit measurement
    to the series pair instead and purifying each outcome against the
    direct link yields a strictly larger average top-order concurrence.
    The post-reduction mixture also fails to majorize the series-rule
    output, which is why the average comparison can tip.
    """
    lam = SchmidtVector((0.9, 0.1))
    net = QuantumNetwork(
        2,
        ("A", "B"),
        [Edge("A", "M", lam), Edge("M", "B", lam), Edge("A", "B", lam)],
    )
    det_vecfinal, _ = reduce_series_parallel(net)
    det_value = concurrence(det_vecfinal, 2)

    ensemble = list(enumerate_swap_outcomes(lam, lam, bell_povm_d2()))
    finals = [(p, purify_rule(kron(lam, v), 2)) for p, v in ensemble]
    zz_value = math.fsum(p * concurrence(v, 2) for p, v in finals)
    worst_value = min(concurrence(v, 2) for _, v in finals)
    mixture = [
        math.fsum(p * v.entries[j] for p, v in finals) for j in range(2)
    ]
    swap_pair = swap_rule(lam, lam)
    return _plain(
        {
            "det_vector": det_vecfinal,
            "det_value": det_value,
            "closed_form_top": _TRIANGLE_TOP,
            "zz_ensemble": ensemble,
            "zz_value": zz_value,
            "worst_case_value": worst_value,
            "mixture": mixture,
            "swap_vector": swap_pair,
            "mixture_majorizes_swap": majorizes(mixture, swap_pair),
        }
    )


@_fixed("counterexample", "counterexample")
def _(acc):
    """Pins the fixed-instance comparison to its frozen reference
    values: reduction vector, both strategy values, the mixture, and
    the failed majorization."""
    data = reproduce_counterexample()
    top, det, zz = data["det_vector"][0], data["det_value"], data["zz_value"]
    acc.slack(
        abs(top - _TRIANGLE_TOP), tol=1e-9, claim="closed_form_top", got=top, want=_TRIANGLE_TOP
    )
    acc.slack(abs(det - _REFERENCE_DET), tol=5e-4, claim="det_value", got=det, want=_REFERENCE_DET)
    acc.slack(abs(zz - _REFERENCE_ZZ), tol=5e-4, claim="zz_value", got=zz, want=_REFERENCE_ZZ)
    mixture = data["mixture"]
    acc.slack(
        max(abs(a - b) for a, b in zip(mixture, _REFERENCE_MIXTURE)),
        tol=1e-3,
        claim="mixture",
        got=mixture,
        want=_REFERENCE_MIXTURE,
    )
    majorized = data["mixture_majorizes_swap"]
    acc.slack(float(majorized), tol=0.5, claim="mixture_must_not_majorize", got=majorized)
    acc.slack(
        0.0 if zz > det else 1.0, tol=0.5, claim="strategy_beats_rules", zz_value=zz, det_value=det
    )
    return data


# ---------------------------------------------------------------------------
# the registered checks and their groups, in report order

CHECKS = {name: run for name, (_, run, _) in _REGISTRY.items()}


def _groups() -> dict:
    groups = {}
    for name, (group, _, _) in _REGISTRY.items():
        groups.setdefault(group, []).append(name)
    return {group: tuple(names) for group, names in groups.items()} | {"all": tuple(_REGISTRY)}


GROUPS = _groups()


def run_checks(selector: str, cfg: CheckConfig) -> list:
    """Run one named check or a named group, each through its
    ``CHECKS`` entry, and log each check's wall time and trial rate at
    DEBUG.

    Group runs skip checks whose dimension precondition the
    configuration cannot meet (recorded in the report extras); naming
    such a check directly raises instead.

    Raises
    ------
    KeyError
        Unknown selector.
    DimensionNotTwo
        A directly named check needs dimension 2.
    """
    grouped = selector in GROUPS
    if not grouped and selector not in CHECKS:
        raise KeyError(
            f"unknown check or group {selector!r}; groups: {sorted(GROUPS)}, "
            f"checks: {sorted(CHECKS)}"
        )
    reports = []
    for name in GROUPS[selector] if grouped else (selector,):
        why = _unmet(name, cfg) if grouped else None
        if why:
            logger.info("skipping %s: %s", name, why)
            reports.append(CheckReport(name, 0, True, 0.0, (), {"skipped": why}))
            continue
        start = time.perf_counter()
        rep = CHECKS[name](cfg)
        elapsed = time.perf_counter() - start
        logger.debug(
            "check %s: %d trials in %.3f s (%.1f trials/s)",
            name,
            rep.trials_run,
            elapsed,
            rep.trials_run / elapsed if elapsed > 0.0 else math.inf,
        )
        reports.append(rep)
    return reports
