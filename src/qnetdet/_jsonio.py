"""Deterministic JSON rendering with one float format.

`render_json` accepts None, bool, int, float and str, and lists, tuples
and dicts of these, exact types only: a subclass of any of them raises
TypeError like any other type.  A dict key of another type is rendered
as the string `str(key)`.  Every float is printed by `format_float`: 12
significant digits, zero of either sign as `0`, and NaN or an infinity
raise ValueError.  Any other type raises TypeError, numpy scalars and
arrays included: the module imports no numpy, so `qnetdet reduce` runs
without loading it, and the commands that use numpy convert their
values to Python numbers first.

The output is compact (`", "` between items, `": "` after a key) and
newline-terminated, so identical data produce identical bytes across
runs; golden files can then be compared verbatim.  Values computed with
numpy, such as the series rule from d = 4 up, are reproducible for one
numpy/LAPACK build.  A call keeps no state: each string and key is
escaped where it occurs.  `_float_rows` is the one route from lists of
floats to their texts, shared with the `reduce` report writer.
"""

import functools
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


@functools.lru_cache(maxsize=64)
def _row_format(n: int) -> str:
    """The %-template of a JSON list of n floats, each as ``%.12g``."""
    return "[" + ", ".join(["%.12g"] * n) + "]"


def _float_rows(rows: list, n: int) -> list:
    """The JSON texts of a list of tuples of n floats each, every float
    as `format_float` prints it."""
    flat = tuple([v for row in rows for v in row])
    # "%.12g" % v is format(v, ".12g"), for all the rows at once
    text = "\n".join([_row_format(n)] * len(rows)) % flat
    if "n" in text or 0.0 in flat:
        # "nan" or "inf", which raise, or a zero of either sign
        return ["[" + ", ".join(map(format_float, row)) + "]" for row in rows]
    return text.split("\n")


def _value(o):
    """The JSON text of o."""
    t = type(o)
    if t is str:
        return _string(o)
    if t is list or t is tuple:
        if not _FLOATS_ONLY.issuperset(map(type, o)):
            return "[" + ", ".join([_value(v) for v in o]) + "]"
        return _float_rows([o], len(o))[0]
    if t is float:
        return format_float(o)
    if t is dict:
        return "{" + ", ".join([_string(str(k)) + ": " + _value(v) for k, v in o.items()]) + "}"
    if t is int:
        return str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t.__module__ == "numpy":
        raise TypeError(f"cannot serialize numpy {t.__name__}; convert it to a Python value")
    raise TypeError(f"cannot serialize {t.__name__}")


def render_json(obj) -> str:
    """Serialize to a compact JSON string, newline-terminated.

    One pass dispatches on the exact type of each value; a list of
    floats only is formatted by `_float_rows`.  A call keeps no state
    and builds no container but the texts it joins, so it leaves no
    reference cycle behind.
    """
    return _value(obj) + "\n"
