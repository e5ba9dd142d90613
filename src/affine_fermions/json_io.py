"""The JSON rules of the subcommands: the entry rule of the input documents,
and the one writer of every JSON file they produce."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["number_array", "read_json", "Rows", "write_json"]


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
    """Rows of numbers held as columns: written as the list of row lists.

    Each part, in row order, is a 1-d int or float column or a 2-d block of
    such columns, so a wide row is one array and not one column per entry.
    All have one length and are taken as int64 or float64; one that does not
    cast safely (uint64) raises TypeError.  `write_json` writes a Rows value
    exactly as json writes the list of row lists, without building them.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts):
        parts = [p[:, None] if p.ndim == 1 else p for p in map(np.asarray, parts)]
        if not parts or any(p.ndim != 2 or not p.shape[1] or len(p) != len(parts[0]) for p in parts):
            raise ValueError("Rows needs one or more 1-d columns or 2-d blocks of columns, all of one length")
        if any(p.dtype.kind not in "iuf" for p in parts):
            raise TypeError("Rows parts must hold ints or floats")
        # A float's bits then view as an int64, and an int's offset from the part's least cannot wrap.
        self.parts = tuple(
            p.astype(float if p.dtype.kind == "f" else np.int64, casting="safe", copy=False) for p in parts
        )

    def __len__(self) -> int:
        return len(self.parts[0])


# The C encoder; it spells floats, NaN and Infinity as json.dumps does with an indent.
_ENCODE = json.JSONEncoder().encode
_NUMBERS = {int, float}  # exact types: a bool is not a number here
# A Rows value is spelled into a reused table of _BLOCK_ROWS rows at a time and
# joined _PIECE_SLOTS cells and separators at a time: a piece of kernel entries
# (three cells, about 70 characters a row) is then a whole block of about 70 KB,
# below glibc's default 128 KiB mmap threshold, and a wide row comes in pieces too.
_BLOCK_ROWS = 1024
_PIECE_SLOTS = 8192
_WRITE_CHARS = 1 << 16  # write_json gathers pieces to about this many characters a write


def _spelled(part: np.ndarray) -> tuple:
    """json's text of each entry of a non-empty 2-d part, spelled once per distinct int or float magnitude.

    Returns (texts, index, offset, negative): entry [r, c] is "-" if
    negative[r, c] is 1, then texts[index[r, c] - offset].  A float is
    spelled by its magnitude, so the two signs of a value share one str.
    Magnitudes are told apart by bit pattern, since NaN does not equal
    itself, and spelled in one encoder call.
    The sign is the sign bit of any float but NaN, so -0.0, -Infinity and
    -5e-324 keep it and NaN of either sign is NaN, as json spells them.  An
    int is spelled by int.__repr__, sign and all, as json spells it, and
    `negative` is None; a part no smaller than its range is spelled over the
    range, without a sort.
    """
    if part.dtype.kind == "f":
        distinct, index = np.unique(np.abs(part).view(np.int64), return_inverse=True)
        texts = _ENCODE(distinct.view(float).tolist())[1:-1].split(", ")
        negative = (np.signbit(part) & ~np.isnan(part)).view(np.int8)
        return np.array(texts, dtype=object), index.reshape(part.shape), 0, negative
    low, high = int(part.min()), int(part.max())
    if high - low < part.size:
        texts, index, offset = range(low, high + 1), part, low
    else:
        texts, index = np.unique(part, return_inverse=True)
        texts, index, offset = texts.tolist(), index.reshape(part.shape), 0
    return np.array(list(map(int.__repr__, texts)), dtype=object), index, offset, None


def _row_pieces(rows: Rows, indent: str):
    """The text of a non-empty `rows` at `indent`, in pieces of at most _PIECE_SLOTS cells and separators.

    Each block of rows is spelled into a reused table in which each cell
    follows its separator, and a negative float's "-" ends that separator;
    every separator slot holds one of four shared strs.  The table is joined
    a piece at a time, and the closing brackets are the last piece.
    """
    inner = indent + "  "
    deeper = inner + "  "
    opening = f"[\n{inner}[\n{deeper}"
    # The separators within a row and between rows, each before a cell and before a negative cell.
    within, between = (
        np.array([text, text + "-"], dtype=object) for text in (f",\n{deeper}", f"\n{inner}],\n{inner}[\n{deeper}")
    )
    spelled = [_spelled(part) for part in rows.parts]
    first_negative = spelled[0][3]
    widths = [part.shape[1] for part in rows.parts]
    table = np.empty((min(len(rows), _BLOCK_ROWS), 2 * sum(widths)), dtype=object)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = table[: len(rows) - start]
        stop = start + len(block)
        c = 0
        for (texts, index, offset, negative), w in zip(spelled, widths):
            block[:, 2 * c : 2 * (c + w) : 2] = within[0] if negative is None else within[negative[start:stop]]
            block[:, 2 * c + 1 : 2 * (c + w) : 2] = texts[index[start:stop] - offset]
            c += w
        block[:, 0] = between[0] if first_negative is None else between[first_negative[start:stop, 0]]
        if not start:  # the first row opens the list instead of closing a row
            block[0, 0] = opening + block[0, 0].removeprefix(between[0])
        slots = block.ravel()
        for i in range(0, len(slots), _PIECE_SLOTS):
            yield "".join(slots[i : i + _PIECE_SLOTS].tolist())
    yield f"\n{inner}]\n{indent}]"


def _json_pieces(obj, indent: str = ""):
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte for str keys, as a stream of strs.

    A `Rows` value stands for its list of row lists.  json.dumps with an
    indent runs the pure-Python encoder on every element.  Here a list of
    numbers goes to the C encoder in one call and is indented by
    `str.replace`, and a `Rows` value comes in pieces, spelled a column or
    block at a time and joined from a table (`_row_pieces`).  Type checks run in
    `set(map(type, ...))`, not in a per-element loop.
    """
    kind = type(obj)
    if kind is str:
        yield _ENCODE(obj)
        return
    if kind is int or kind is float and math.isfinite(obj):
        yield repr(obj)  # json's spelling of a finite number, without the encoder's set-up
        return
    inner = indent + "  "
    if kind is Rows:
        yield from _row_pieces(obj, indent) if len(obj) else ("[]",)
        return
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        if not set(map(type, obj)) <= {str}:
            raise TypeError("JSON object keys must be str")
        opening = "{\n"
        for key in sorted(obj):
            yield f"{opening}{inner}{_ENCODE(key)}: "
            yield from _json_pieces(obj[key], inner)
            opening = ",\n"
        yield f"\n{indent}}}"
        return
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        if set(map(type, obj)) <= _NUMBERS:
            body = _ENCODE(obj)[1:-1].replace(", ", ",\n" + inner)
            yield f"[\n{inner}{body}\n{indent}]"
            return
        opening = "[\n"
        for item in obj:
            yield opening + inner
            yield from _json_pieces(item, inner)
            opening = ",\n"
        yield f"\n{indent}]"
        return
    yield _ENCODE(obj)


def write_json(doc, *files) -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2)` and a newline to each of `files`, open text files.

    A `Rows` value stands for its list of row lists.  No whole copy of the
    text is held: the pieces of `_json_pieces` are written in joins of about _WRITE_CHARS.
    """
    pending, size = [], 0
    for piece in _json_pieces(doc):
        pending.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            text, pending, size = "".join(pending), [], 0
            for file in files:
                file.write(text)
    text = "".join(pending) + "\n"
    for file in files:
        file.write(text)
