"""The JSON rules of the subcommands: the entry rule of the input documents,
and the one writer of every JSON file they produce.  json's own encoder
writes each document; the package writes only its `Rows` tables, a piece at
a time, straight into the one open file."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["number_array", "read_json", "Rows", "write_json"]


def read_json(path) -> object:
    """The JSON document in the file at `path`.

    An object that repeats a key, and a document nested past the
    interpreter's recursion limit, raise ValueError naming `path` (and the
    key); a malformed one raises json.JSONDecodeError, and an unreadable
    file OSError.  An integer of over 308 characters is read as a float,
    +-inf past the float range.
    """
    text = Path(path).read_text()

    def unique_keys(pairs):  # called once for each JSON object, with its pairs in order
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: key {key!r} appears more than once in one object")
            doc[key] = value
        return doc

    try:
        # A shorter int is below 1e308 and converts to a float; float(s) rounds as int-to-float does, but gives
        # +-inf where that raises, so its field's check refuses it by name, and int()'s digit limit is never met.
        return json.loads(text, object_pairs_hook=unique_keys, parse_int=lambda s: float(s) if len(s) > 308 else int(s))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def number_array(value, field: str) -> np.ndarray:
    """`value`, a rectangular nest of lists of JSON numbers as `read_json`
    reads them, none past the float range, as a float array.

    ints and floats are numbers; bools are not.  Rows of unequal length or
    depth and any other entry raise ValueError naming `field`.  The caller
    checks the shape.
    """
    entries = np.asarray(value, dtype=object)
    # The exact types first, without a Python loop; then the first entry that fails.
    if not set(map(type, entries.ravel())) <= {int, float}:
        for entry in entries.ravel():
            if isinstance(entry, list):  # the array stops at rows that differ
                raise ValueError(f"{field} must be a rectangular list of numbers")
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValueError(f"{field} entries must be JSON numbers, got {entry!r}")
    return entries.astype(float)


class Rows:
    """Rows of numbers held as columns: written as the list of row lists.

    Each part, in row order, is a 1-d int or float column or a 2-d block of
    such columns, so a wide row is one array and not one column per entry.
    All have one length and are taken as int64 or float64; one that does not
    cast safely (uint64) raises TypeError.  `write_json` writes a Rows value
    itself, exactly as json writes the list of row lists, without building
    them or holding their whole text.
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
# write_json's stand-in for a Rows value in json's text, and that text
_MARK = "\0Rows"
_MARK_TEXT = _ENCODE(_MARK)
# A Rows value is spelled into a reused table of _BLOCK_ROWS rows at a time and
# joined _PIECE_SLOTS cells and separators at a time: a piece of kernel entries
# (three cells, about 70 characters a row) is then a whole block of about 70 KB,
# below glibc's default 128 KiB mmap threshold, and a wide row comes in pieces too.
_BLOCK_ROWS = 1024
_PIECE_SLOTS = 8192


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


def write_json(doc, file) -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2)` and a newline to `file`, an open text file.

    A `Rows` value stands for its list of row lists.  json's encoder writes
    all the rest in one call, with each `Rows` value replaced by the str
    _MARK.  Its text is split on _MARK_TEXT, and between two gaps go the
    `_row_pieces` of the table at the leading spaces of the marker's line.
    Each gap and each table piece is written as it is made: a document
    without tables is one write, and a table's text is never held whole.
    A str in `doc` whose text holds _MARK_TEXT raises ValueError, and a
    value json cannot encode TypeError, before anything is written.
    """
    tables = []

    def hold(obj):
        if type(obj) is not Rows:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return _MARK

    gaps = json.JSONEncoder(sort_keys=True, indent=2, default=hold).encode(doc).split(_MARK_TEXT)
    # json's pure-Python encoder leaves its closures, `hold` among them, in a
    # reference cycle until the next collection: the cycle must not keep the tables.
    held, tables = tables, None
    if len(gaps) != len(held) + 1:
        raise ValueError(f"a str in the document holds {_MARK_TEXT}, the stand-in for a Rows table")
    for gap, rows in zip(gaps, held):
        file.write(gap)
        line = gap[gap.rfind("\n") + 1 :]  # the marker's line, up to the marker
        for piece in _row_pieces(rows, line[: len(line) - len(line.lstrip(" "))]) if len(rows) else ("[]",):
            file.write(piece)
    file.write(gaps[-1] + "\n")
