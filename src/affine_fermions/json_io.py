"""The JSON rules of the subcommands: the entry rule of the input documents,
and the one writer of every JSON file they produce."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["number_array", "read_json", "Rows"]


def read_json(path) -> object:
    """The JSON document in the file at `path`.

    A document nested past the interpreter's recursion limit raises
    ValueError naming `path`; a malformed one raises json.JSONDecodeError,
    and an unreadable file OSError.
    """
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def number_array(value, field: str) -> np.ndarray:
    """`value`, a rectangular nest of lists of JSON numbers, as a float array.

    ints and floats are numbers; bools are not.  Rows of unequal length or
    depth, any other entry and an integer beyond the float range raise
    ValueError naming `field`.  The caller checks the shape.
    """
    entries = np.asarray(value, dtype=object)
    # The exact types first, without a Python loop; then the first entry that fails.
    if not set(map(type, entries.ravel())) <= {int, float}:
        for entry in entries.ravel():
            if isinstance(entry, list):  # the array stops at rows that differ
                raise ValueError(f"{field} must be a rectangular list of numbers")
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValueError(f"{field} entries must be JSON numbers, got {entry!r}")
    try:
        return entries.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{field} entries must be finite") from None


class Rows:
    """Rows of numbers held as columns: written as the list `zip(*columns)`.

    Each column is a 1-d int or float array, all of one length, taken as
    int64 or float64; one that does not cast safely (uint64) raises
    TypeError.  `_json_text` writes a Rows value exactly as json writes the
    list of row lists, without building those lists.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns):
        columns = [np.asarray(c) for c in columns]
        if not columns or any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValueError("Rows needs one or more 1-d columns of one length")
        if any(c.dtype.kind not in "iuf" for c in columns):
            raise TypeError("Rows columns must hold ints or floats")
        # A float's bits then view as an int64, and an int's offset from the column's least cannot wrap.
        self.columns = tuple(
            c.astype(float if c.dtype.kind == "f" else np.int64, casting="safe", copy=False) for c in columns
        )

    def __len__(self) -> int:
        return len(self.columns[0])


# The C encoder; it spells floats, NaN and Infinity as json.dumps does with an indent.
_ENCODE = json.JSONEncoder().encode
_NUMBERS = {int, float}  # exact types: a bool is not a number here


def _cells(column: np.ndarray) -> np.ndarray:
    """json's text of each entry of a non-empty column, as an object array.

    Each distinct entry is spelled once and its entries share that str.
    Floats are told apart by bit pattern, since by value -0.0 would take
    0.0's text and NaN would not equal itself, and spelled in one encoder
    call.  An int is spelled by int.__repr__, as json spells it; a column no
    shorter than its range is spelled over the range, without a sort.
    """
    if column.dtype.kind == "f":
        _, first, index = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
        texts = _ENCODE(column[first].tolist())[1:-1].split(", ")
    else:
        low, high = int(column.min()), int(column.max())
        if high - low < len(column):
            distinct, index = range(low, high + 1), column - low
        else:
            distinct, index = np.unique(column, return_inverse=True)
            distinct = distinct.tolist()
        texts = list(map(int.__repr__, distinct))
    return np.array(texts, dtype=object)[index]


def _row_pieces(rows: Rows, inner: str, deeper: str) -> list:
    """Each cell of `rows` followed by its separator, row after row, less the last separator.

    The table is freed when this returns, before the caller joins the text.
    """
    table = np.empty((len(rows), 2 * len(rows.columns)), dtype=object)
    table[:, 1::2] = f",\n{deeper}"  # np.full would copy the str into every cell
    table[:, -1] = f"\n{inner}],\n{inner}[\n{deeper}"
    for j, column in enumerate(rows.columns):
        table[:, 2 * j] = _cells(column)
    return table.ravel()[:-1].tolist()


def _json_text(obj, indent: str = "") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for str keys.

    A `Rows` value stands for its list of row lists.  json.dumps with an
    indent runs the pure-Python encoder on every element.  Here a list of
    numbers goes to the C encoder in one call and is indented by
    `str.replace`; a `Rows` value is spelled column by column and joined in
    one pass over a table of cells and separators.  Type checks run in
    `set(map(type, ...))`, not in a per-element loop.
    """
    kind = type(obj)
    if kind is str:
        return _ENCODE(obj)
    if kind is int or kind is float and math.isfinite(obj):
        return repr(obj)  # json's spelling of a finite number, without the encoder's set-up
    inner = indent + "  "
    if kind is Rows:
        if not len(obj):
            return "[]"
        deeper = inner + "  "
        body = "".join(_row_pieces(obj, inner, deeper))
        return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not set(map(type, obj)) <= {str}:
            raise TypeError("JSON object keys must be str")
        items = ",\n".join(f"{inner}{_ENCODE(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj))
        return f"{{\n{items}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _NUMBERS:
            body = _ENCODE(obj)[1:-1].replace(", ", ",\n" + inner)
            return f"[\n{inner}{body}\n{indent}]"
        items = ",\n".join(inner + _json_text(item, inner) for item in obj)
        return f"[\n{items}\n{indent}]"
    return _ENCODE(obj)
