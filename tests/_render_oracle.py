"""Reference copy of the recursive JSON renderer, for tests only.

`format_float`, `_render` and `render_json` below are the renderer as
it stood before the single-pass rewrite: one recursive call per value,
an isinstance chain, numpy values converted with `.item()`, and
`json.dumps` per key and string.  They are kept verbatim as the oracle
that the differential tests in test_jsonio.py compare
`qnetdet._jsonio.render_json` against (compact mode; the package never
passed `pretty=True`), and the package never imports this module.
"""

import json
import math

import numpy as np

_INDENT = "  "


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


def _render(obj, pretty: bool, depth: int, out: list):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = _INDENT * (depth + 1) if pretty else ""
        sep = ",\n" if pretty else ", "
        out.append("{\n" if pretty else "{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(sep)
            out.append(pad)
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(": ")
            _render(val, pretty, depth + 1, out)
        out.append("\n" + _INDENT * depth + "}" if pretty else "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        # short numeric runs stay on one line even in pretty mode
        flat = not pretty or all(
            isinstance(v, (int, float, np.generic)) and not isinstance(v, bool)
            for v in items
        )
        if flat:
            out.append("[")
            for i, val in enumerate(items):
                if i:
                    out.append(", ")
                _render(val, False, depth + 1, out)
            out.append("]")
        else:
            pad = _INDENT * (depth + 1)
            out.append("[\n")
            for i, val in enumerate(items):
                if i:
                    out.append(",\n")
                out.append(pad)
                _render(val, pretty, depth + 1, out)
            out.append("\n" + _INDENT * depth + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj, pretty: bool = False) -> str:
    """Serialize to a JSON string, newline-terminated."""
    out = []
    _render(obj, pretty, 0, out)
    out.append("\n")
    return "".join(out)
