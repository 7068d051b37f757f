"""Byte-stable text writers for model files, CLI reports and CSV tables.

`write_json(path, obj)` writes exactly what `json.dumps(obj, indent=2)`
returns, and a newline. With an indent, `json.dumps` falls back to
CPython's pure-Python encoder; here every list or dict that holds only
scalars, and every matrix (a list of non-empty lists of numbers), goes
through json's C encoder, whose item separator is set to the indent=2
separator of its depth. Only the structure around those leaves is
assembled in Python. The whole text is encoded before the file is
opened, so a value json cannot write raises TypeError and leaves an
existing file as it was.

`csv_line` and `csv_rows` write what `csv.writer` writes for cells that
need no quoting: numbers, and the fixed labels of this package's tables.
Floats are written with their shortest round-trip `repr`. `write_csv`
writes such lines to a file in one write.
"""

from __future__ import annotations

import json
from itertools import chain

__all__ = ["write_json", "write_csv", "csv_line", "csv_rows"]

_NUMBERS = frozenset({float, int, bool, type(None)})
_SCALARS = _NUMBERS | {str}


def write_json(path, obj) -> None:
    """Write `obj` as indent=2 JSON with a trailing newline, in one write."""
    text = _encode(obj, 0) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _encode(obj, depth: int) -> str:
    """`json.dumps(obj, indent=2)` of `obj` at `depth`, byte for byte."""
    if not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    if not obj:
        return "[]" if isinstance(obj, (list, tuple)) else "{}"
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if set(map(type, obj.values() if isinstance(obj, dict) else obj)) <= _SCALARS:
        # "[a,<inner>b]": the C encoder writes the separators of this depth
        text = json.dumps(obj, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if type(obj) is list and all(type(row) is list and row for row in obj):
        if set(map(type, chain.from_iterable(obj))) <= _NUMBERS:
            return _matrix(obj, outer, inner)
    if isinstance(obj, dict):
        items = [_key(k) + ": " + _encode(v, depth + 1) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_encode(v, depth + 1) for v in obj]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def _matrix(rows: list, outer: str, inner: str) -> str:
    cell = inner + "  "
    # "[[a,<cell>b],<cell>[c,<cell>d]]"; numbers never contain brackets, so
    # "],<cell>[" occurs only between rows, where it gets the row indent
    text = json.dumps(rows, separators=("," + cell, ": "))
    body = text[2:-2].replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
    return "[" + inner + "[" + cell + body + inner + "]" + outer + "]"


def _key(key) -> str:
    # json writes int, float, bool and None keys as the string of their JSON text
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def write_csv(path, lines) -> None:
    """Write CSV lines (`csv_line`, `csv_rows`) as they are, in one write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def csv_line(cells) -> str:
    """One CSV line of cells written with `str`."""
    return ",".join(map(str, cells)) + "\r\n"


def csv_rows(index, values) -> str:
    """CSV lines of the `index` cells followed by one row of a float matrix each."""
    lead = "".join(f"{i}," for i in index)
    return "".join(lead + ",".join(map(repr, row)) + "\r\n" for row in values.tolist())
