"""Structured-text (JSON) emission with bit-exact real round-trips.

Reals are written with 17 significant digits, which is enough for every
IEEE-754 double to survive a decimal round trip bit-exactly.  Keys are
sorted so reruns produce byte-identical documents.  A list of only Python
floats, or of only Python ints, is written on one line by one join after
one finiteness check; any other list is written item by item, to the same
bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["dumps", "dump", "load"]


def _emit(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite real cannot be serialized")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        kinds = set(map(type, obj))
        if kinds == {float}:
            if not all(map(math.isfinite, obj)):
                raise ValueError("non-finite real cannot be serialized")
            out.append("[" + ", ".join([format(x, ".17g") for x in obj]) + "]")
            return
        if kinds == {int}:
            out.append("[" + ", ".join(map(str, obj)) + "]")
            return
        flat = all(isinstance(x, (int, float, np.integer, np.floating, bool))
                   for x in obj)
        if flat:
            out.append("[")
            for i, x in enumerate(obj):
                if i:
                    out.append(", ")
                _emit(x, out, indent)
            out.append("]")
        else:
            out.append("[\n")
            for i, x in enumerate(obj):
                out.append(pad + "  ")
                _emit(x, out, indent + 1)
                out.append(",\n" if i + 1 < len(obj) else "\n")
            out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(pad + "  " + json.dumps(k) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
