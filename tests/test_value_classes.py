"""The contract of the immutable records: equality and hashing on the
fields, against the same class only (identity for a measurement, no
hash for a check report, whose extras are a dict), a field-wise repr,
no assignment or deletion, and copies and pickles that round-trip."""

import copy
import pickle

import numpy as np
import pytest

from qnetdet.checks import CheckConfig, CheckReport
from qnetdet.network import Edge, QuantumNetwork
from qnetdet.rules import Povm, bell_povm_d2
from qnetdet.schmidt import ProbabilisticEnsemble, SchmidtVector, normalize_descending

LINK = (0.6, 0.4)
OTHER = (0.7, 0.3)


def _vector(entries=LINK):
    return SchmidtVector(entries)


def _ensemble(entries=LINK):
    return ProbabilisticEnsemble([(0.25, _vector(entries)), (0.75, _vector((0.5, 0.5)))])


def _edge(entries=LINK):
    return Edge("a", "m", _vector(entries))


def _network(entries=LINK):
    return QuantumNetwork(2, ("a", "b"), [_edge(entries), Edge("m", "b", _vector())])


def _config(entries=LINK):
    return CheckConfig(dimension=3, trials=40, seed=int(10 * entries[0]), tolerance=1e-8, povm_size=12)


def _report(entries=LINK):
    return CheckReport("lemma_duality", 40, False, entries[1], ({"trial": 3, "got": list(entries)},), {"n": 2})


# class, factory of an instance from its first link's entries, fields
HASHABLE = [
    (SchmidtVector, _vector, ("entries",)),
    (ProbabilisticEnsemble, _ensemble, ("outcomes",)),
    (Edge, _edge, ("u", "v", "link")),
    (QuantumNetwork, _network, ("dimension", "terminals", "edges")),
    (CheckConfig, _config, ("dimension", "trials", "seed", "tolerance", "povm_size")),
]
RECORDS = HASHABLE + [
    (CheckReport, _report, ("name", "trials_run", "passed", "max_slack", "violations", "extras")),
]
each_record = pytest.mark.parametrize("cls, make, names", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
each_hashable = pytest.mark.parametrize("cls, make, names", HASHABLE, ids=[cls.__name__ for cls, _, _ in HASHABLE])


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


ROUND_TRIPS = ["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))]


def _round_trip(obj, how):
    if how == "copy":
        return copy.copy(obj)
    if how == "deepcopy":
        return copy.deepcopy(obj)
    return pickle.loads(pickle.dumps(obj, protocol=int(how[len("pickle"):])))


class TestRecords:
    @each_record
    def test_equality_on_fields(self, cls, make, names):
        a, b, c = make(), make(), make(OTHER)
        assert a is not b
        assert a == b and not a != b
        assert a != c and not a == c

    @each_hashable
    def test_hash_on_fields(self, cls, make, names):
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert hash(a) == hash(_fields(a, names))
        assert len({a, b, make(OTHER)}) == 2

    def test_check_report_has_no_hash(self):
        # its extras, and its violation records, are dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(_report())
        with pytest.raises(TypeError, match="unhashable"):
            hash(CheckReport("reverse_amgm", 1, True, 0.0, ()))

    @each_record
    def test_same_class_only(self, cls, make, names):
        # a subclass instance with the same fields is another value
        a = make()
        other = object.__new__(type("Sub", (cls,), {}))
        for name in names:
            object.__setattr__(other, name, getattr(a, name))
        assert a != other and other != a
        assert a != _fields(a, names)
        assert a.__eq__(_fields(a, names)) is NotImplemented
        assert a.__eq__(other) is NotImplemented

    @each_record
    def test_repr_lists_fields(self, cls, make, names):
        a = make()
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
        assert repr(a) == f"{cls.__name__}({shown})"

    @each_record
    def test_no_assignment_or_deletion(self, cls, make, names):
        a = make()
        before = _fields(a, names)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert _fields(a, names) == before

    @each_record
    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_round_trip(self, cls, make, names, how):
        a = make()
        b = _round_trip(a, how)
        assert type(b) is cls
        assert b == a
        assert _fields(b, names) == _fields(a, names)
        with pytest.raises(AttributeError):
            setattr(b, names[0], None)

    @each_hashable
    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_round_trip_keeps_hash(self, cls, make, names, how):
        a = make()
        assert hash(_round_trip(a, how)) == hash(a)


def test_check_report_extras_default_to_a_new_dict():
    a, b = CheckReport("x", 1, True, 0.0, ()), CheckReport("x", 1, True, 0.0, ())
    assert a.extras == {} and a.extras is not b.extras


def test_repr_examples():
    vec = SchmidtVector([0.4, 0.6])
    assert repr(vec) == "SchmidtVector(entries=(0.6, 0.4))"
    assert repr(Edge("a", "b", vec)) == "Edge(u='a', v='b', link=SchmidtVector(entries=(0.6, 0.4)))"
    assert repr(ProbabilisticEnsemble([(1.0, vec)])) == (
        "ProbabilisticEnsemble(outcomes=((1.0, SchmidtVector(entries=(0.6, 0.4))),))"
    )
    # the fast constructor builds the same record
    assert normalize_descending([3.0, 2.0]) == vec
    assert repr(normalize_descending([3.0, 2.0])) == repr(vec)


class TestPovm:
    """A measurement compares and hashes by identity: its elements are
    an array, which has no single truth value."""

    def test_identity_equality_and_hash(self):
        a, b = bell_povm_d2(), bell_povm_d2()
        assert np.array_equal(a.elements, b.elements)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2

    def test_repr(self):
        a = bell_povm_d2()
        assert repr(a).startswith("Povm(elements=array([[[")
        assert repr(a) == f"Povm(elements={a.elements!r})"

    def test_no_assignment_or_deletion(self):
        a = bell_povm_d2()
        with pytest.raises(AttributeError):
            a.elements = np.zeros((1, 2, 2))
        with pytest.raises(AttributeError):
            del a.elements
        with pytest.raises(AttributeError):
            a.extra = 1
        assert not a.elements.flags.writeable

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_round_trip(self, how):
        a = Povm(bell_povm_d2().elements)
        b = _round_trip(a, how)
        # a shallow copy shares the read-only array
        assert (b.elements is a.elements) == (how == "copy")
        assert type(b) is Povm and b is not a and b != a
        assert np.array_equal(b.elements, a.elements)
        assert b.dimension == 2 and len(b) == 4
        with pytest.raises(AttributeError):
            b.elements = None
