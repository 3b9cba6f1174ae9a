"""Deterministic text serialization: fixed float formatting, stable JSON, one CSV writer.

All floats are printed with 17 significant digits so that identical inputs
produce byte-identical reports and every value round-trips exactly.  JSON
writes a non-finite float as ``Infinity``, ``-Infinity`` or ``NaN``, as :mod:`json` does.
:func:`csv_text` is the one writer of the CSV reports (moments and the limit
report), and :func:`records` the one reader of the `k re im` line formats:
symbol files and moments CSVs.
"""

from __future__ import annotations

import numpy as np

from .errors import SymbolParseError

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


def csv_text(meta: dict, header: str, rows) -> str:
    """``CSV_SCHEMA``, one `# key=value` line per ``meta`` item, ``header``, then one
    line per row of ``rows``: an int prints as it is and any other value through :func:`fmt`."""
    lines = [CSV_SCHEMA, *(f"# {key}={value}" for key, value in meta.items()), header]
    lines += [",".join(str(v) if isinstance(v, int) else fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def records(data: bytes, sep: str | None, shape_error: str, skip=("#",)):
    """(k, complex(re, im), line number) for each three-field line of ``data``, in order.

    Lines end at LF, CRLF or CR and are decoded as UTF-8 one by one; blank lines
    and those that start with a prefix in ``skip`` are passed over.  A line that
    is not UTF-8, does not split on ``sep`` into three fields (``shape_error``,
    given the field count) or does not parse as ``int, float, float`` raises
    :class:`SymbolParseError` naming its line.
    """
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise SymbolParseError(str(exc), lineno=lineno) from None
        if not line or line.startswith(skip):
            continue
        parts = line.split(sep)
        if len(parts) != 3:
            raise SymbolParseError(shape_error.format(len(parts)), lineno=lineno)
        try:
            k = int(parts[0])
            value = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise SymbolParseError(f"could not parse {line!r}", lineno=lineno) from None
        yield k, value, lineno
