"""Deterministic text serialization: fixed float formatting, stable JSON.

All floats are printed with 17 significant digits so that identical inputs
produce byte-identical reports and every value round-trips exactly.  JSON
writes a non-finite float as ``Infinity``, ``-Infinity`` or ``NaN``, as :mod:`json` does.
"""

from __future__ import annotations

import numpy as np

CSV_SCHEMA = "# schema=1"
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def fmt(x) -> str:
    """A float as a fixed 17-significant-digit token."""
    return format(float(x), ".17g")


def _json_token(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        token = fmt(value)
        return _JSON_NON_FINITE.get(token, token)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_json_token(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_token(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(obj) -> str:
    """JSON with deterministic layout and 17-digit floats."""
    return _json_token(obj, 0) + "\n"
