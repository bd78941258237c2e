"""The single-pass JSON renderer: the recorded bytes on seeded documents
(tests/_digests.py) and literal text on short ones, documents that
json.loads reads back at 12 significant digits, one float format, and a
closed set of accepted types."""

import json
import math
import random
import struct

import numpy as np
import pytest
from _digests import check

from qnetdet import checks
from qnetdet._jsonio import format_float, render_json
from qnetdet.network import report
from qnetdet.sampling import random_network, substream

SEED = 20261018

FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-5,
    1e-4,
    0.1,
    1 / 3,
    1.0,
    -1.0,
    123456789012.5,
    1234567890123.0,
    1e16,
    1e21,
    1e22,
    2.0**53 + 2,
)
INTS = (0, 1, -1, 7, 2**31, 2**53, 2**53 + 1, -(2**53) - 1, 2**64, -(2**70), 10**30)
STRINGS = (
    "",
    "A",
    "node_7",
    'say "hi"',
    "back\\slash",
    "tab\there",
    "line\nbreak\r",
    "\x00\x01\x08\x0c\x1f",
    "\x7f",
    "é",
    "量子",
    "\U0001f600",
    "  ",
    "/slash",
    "'single'",
)
KEYS = STRINGS + (0, 1, -3, 2**60, 1.5, -0.0, True, False, None, (1, 2))


def _float(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(FLOATS)
    if kind == 1:
        return rng.random()
    if kind == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    # any finite double, from its bit pattern
    while True:
        v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(v):
            return v


def _string(rng):
    if rng.random() < 0.6:
        return rng.choice(STRINGS)
    alphabet = 'ab"\\\n\t\x00\x1fé量 '
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def _value(rng, depth, shared):
    """A random JSON-able value; float lists are sometimes reused
    objects, as a reduction trace reuses each output vector."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.getrandbits(rng.randrange(1, 80)) - 2**40
    if kind == 3:
        return _float(rng)
    if kind == 4:
        return _string(rng)
    if kind == 5:
        return rng.choice(([], (), {}))
    if kind in (6, 7):
        if shared and rng.random() < 0.4:
            return rng.choice(shared)
        vec = [_float(rng) for _ in range(rng.randrange(1, 9))]
        vec = tuple(vec) if rng.random() < 0.2 else vec
        shared.append(vec)
        return vec
    if kind == 8:
        items = [_value(rng, depth + 1, shared) for _ in range(rng.randrange(1, 5))]
        return tuple(items) if rng.random() < 0.3 else items
    return {
        (rng.choice(KEYS) if rng.random() < 0.5 else _string(rng)): _value(rng, depth + 1, shared)
        for _ in range(rng.randrange(1, 6))
    }


# (draws, outcomes) digests, as _digests.check writes them, of the 3000
# documents of random.Random(SEED), recorded while the recursive renderer
# that the single pass replaced gave the same text on each
RENDER_DIGESTS = {"documents": ("05c500076e349bea", "721fb62a74559acc")}


def _as_read(obj):
    """obj as json.loads reads render_json's text of it: each float at
    12 significant digits, tuples as lists, keys as strings."""
    if type(obj) is float:
        return float(format_float(obj))
    if type(obj) in (list, tuple):
        return [_as_read(v) for v in obj]
    if type(obj) is dict:
        return {str(k): _as_read(v) for k, v in obj.items()}
    return obj


def _reads_back(doc):
    assert json.loads(render_json(doc)) == _as_read(doc)


class TestDifferential:
    """The recorded bytes, literal text, and text that json reads back."""

    def test_random_values(self):
        rng = random.Random(SEED)
        docs = [_value(rng, 0, []) for _ in range(3000)]
        check(RENDER_DIGESTS, "documents", docs, render_json)

    @pytest.mark.parametrize(
        "doc, text",
        [
            (-0.0, "0"),
            ([0.0, -0.0, 1.0], "[0, 0, 1]"),
            ([5e-324, 1.7976931348623157e308, -1e-310], "[4.94065645841e-324, 1.79769313486e+308, -1e-310]"),
            ([2**53 + 1, -(2**70), 1.0], "[9007199254740993, -1180591620717411303424, 1]"),
            ([True, 1, False, 0, 1.0], "[true, 1, false, 0, 1]"),
            ({True: 1, None: 0, 2: [], 1.5: {}, "": ()}, '{"True": 1, "None": 0, "2": [], "1.5": {}, "": []}'),
            ({"k": "é 量 \U0001f600", 'q"': "\x00\n\\"}, '{"k": "é 量 \U0001f600", "q\\"": "\\u0000\\n\\\\"}'),
            ([[], {}, (), ""], '[[], {}, [], ""]'),
            # bool, int and str keys, and a string value equal to a key
            ([{True: 0}, {1: 0}, {"1": "1"}, {"True": ("True",)}], '[{"True": 0}, {"1": 0}, {"1": "1"}, {"True": ["True"]}]'),
        ],
        # the ids pytest gives the documents alone
        ids=["-0.0", *(f"doc{i}" for i in range(1, 9))],
    )
    def test_edge_values(self, doc, text):
        assert render_json(doc) == text + "\n"

    def test_reused_vector_rendered_the_same(self):
        vec = [0.9, 0.1]
        doc = {"output": vec, "next": {"inputs": [vec, vec]}, "again": vec}
        assert render_json(doc) == '{"output": [0.9, 0.1], "next": {"inputs": [[0.9, 0.1], [0.9, 0.1]]}, "again": [0.9, 0.1]}\n'
        vec[0] = 0.8
        assert render_json(doc) == '{"output": [0.8, 0.1], "next": {"inputs": [[0.8, 0.1], [0.8, 0.1]]}, "again": [0.8, 0.1]}\n'

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_reports(self, d):
        rng = substream(SEED, "render_reports", d)
        for _ in range(100):
            _reads_back(report(random_network(d, 30, rng)))

    @pytest.mark.parametrize("d, trials", [(2, 40), (3, 10), (4, 4)])
    def test_verify_all_docs(self, d, trials):
        cfg = checks.CheckConfig(dimension=d, trials=trials, seed=3)
        _reads_back({"reports": [r.to_dict() for r in checks.run_checks("all", cfg)]})


class TestTypeContract:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_violation_payload_renders(self, monkeypatch, d):
        """With every slack recorded as a violation, each check's report,
        payloads included, holds only types the renderer accepts."""
        slack = checks._Acc.slack
        monkeypatch.setattr(
            checks._Acc, "slack", lambda self, value, /, tol=None, **record: slack(self, value, tol=-math.inf, **record)
        )
        cfg = checks.CheckConfig(dimension=d, trials=3, seed=1)
        reports = checks.run_checks("all", cfg)
        assert [r.name for r in reports] == list(checks.GROUPS["all"])
        for r in reports:
            if "skipped" in r.extras:
                continue
            assert not r.passed and r.violations, r.name
            _reads_back(r.to_dict())

    @pytest.mark.parametrize(
        "value",
        [np.float64(0.5), np.int64(3), np.bool_(True), np.zeros(2), np.float32(0.5)],
        ids=["float64", "int64", "bool_", "ndarray", "float32"],
    )
    def test_numpy_values_rejected(self, value):
        for doc in (value, [value], [0.5, value], {"k": value}):
            with pytest.raises(TypeError, match="numpy"):
                render_json(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for doc in (bad, [bad], [0.5, bad], [1, bad], {"k": bad}):
            with pytest.raises(ValueError, match="non-finite value"):
                render_json(doc)
        with pytest.raises(ValueError, match="non-finite value"):
            format_float(bad)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            render_json({"k": [value]})

    @pytest.mark.parametrize("base", [str, int, float, list, dict])
    def test_subclasses_rejected(self, base):
        # a subclass is not its base: dispatch is on exact types only
        value = type(f"My{base.__name__}", (base,), {})()
        for doc in (value, [value], [0.5, value], ["a", value], {"k": value}):
            with pytest.raises(TypeError, match=f"^cannot serialize My{base.__name__}$"):
                render_json(doc)

    def test_one_float_format(self):
        assert render_json([0.0, -0.0, 1e-5, 1.0, 0.1 + 0.2]) == "[0, 0, 1e-05, 1, 0.3]\n"
        assert render_json(-0.0) == "0\n"
        assert render_json({"x": 2**53 + 1, "y": True}) == '{"x": 9007199254740993, "y": true}\n'
