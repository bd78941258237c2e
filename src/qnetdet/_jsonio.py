"""Deterministic JSON rendering with one float format.

`render_json` accepts None, bool, int, float and str, and lists, tuples
and dicts of these, subclasses included; a dict key of another type is
rendered as the string `str(key)`.  Every float is printed by
`format_float`: 12 significant digits, zero of either sign as `0`, and
NaN or an infinity raise ValueError.  Any other type raises TypeError,
numpy scalars and arrays included: the module imports no numpy, so
`qnetdet reduce` runs without loading it, and the commands that use
numpy convert their values to Python numbers first.

The output is compact (`", "` between items, `": "` after a key) and
newline-terminated, so identical data produce identical bytes across
runs; golden files can then be compared verbatim.  Values computed with
numpy, such as the series rule from d = 4 up, are reproducible for one
numpy/LAPACK build.
"""

import json
import math
import re

__all__ = ["format_float", "render_json"]

# the characters json.dumps escapes in a string when ensure_ascii is off
_needs_escape = re.compile(r'[\x00-\x1f"\\]').search

_FLOATS_ONLY = frozenset((float,))


def format_float(value: float) -> str:
    """12-significant-digit decimal form of a finite float, valid as a
    JSON number."""
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"non-finite value {value!r} cannot be serialized")
    if v == 0.0:
        # avoid the platform-dependent sign of a negative zero
        return "0"
    return format(v, ".12g")


def _string(s: str) -> str:
    if _needs_escape(s) is None:
        return '"' + s + '"'
    return json.dumps(s, ensure_ascii=False)


def _key(k) -> str:
    return _string(str(k)) + ": "


class _Texts(dict):
    """Exact strings mapped to their rendered text, filled on lookup.
    A key of any other type is rendered but not stored: True and 1 are
    equal dict keys, yet render as "True" and "1"."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, s):
        text = self.render(s)
        if type(s) is str:
            self[s] = text
        return text


def render_json(obj) -> str:
    """Serialize to a compact JSON string, newline-terminated.

    One pass dispatches on the exact type and falls back to isinstance
    checks for subclasses.  Within a call each string and key is
    rendered once, and so is each list object of floats: a reduction
    trace lists a vector as one move's output and the next move's input.
    """
    strings = _Texts(_string)
    keys = _Texts(_key)
    float_lists = {}  # id of a list or tuple of floats inside obj -> its text

    def value(o):
        t = type(o)
        if t is str:
            return strings[o]
        if t is list or t is tuple:
            return sequence(o)
        if t is float:
            return format_float(o)
        if t is dict:
            return mapping(o)
        if t is int:
            return str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        return subclass(o)

    def sequence(o):
        if not o:
            return "[]"
        text = float_lists.get(id(o))
        if text is not None:
            return text
        if not _FLOATS_ONLY.issuperset(map(type, o)):
            return "[" + ", ".join(map(value, o)) + "]"
        text = ", ".join([format(v, ".12g") for v in o])
        if "n" in text or 0.0 in o:
            # "nan" or "inf", which raise, or a zero of either sign
            text = ", ".join(map(format_float, o))
        text = float_lists[id(o)] = "[" + text + "]"
        return text

    def mapping(o):
        return "{" + ", ".join([keys[k] + value(v) for k, v in o.items()]) + "}"

    def subclass(o):
        if type(o).__module__ == "numpy":
            raise TypeError(f"cannot serialize numpy {type(o).__name__}; convert it to a Python value")
        if isinstance(o, str):
            return _string(o)
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return format_float(o)
        if isinstance(o, dict):
            return mapping(o)
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(map(value, o)) + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return value(obj) + "\n"
