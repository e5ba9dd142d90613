"""The entry rule shared by the JSON input documents of the subcommands."""

from __future__ import annotations

import numpy as np

__all__ = ["number_array"]


def number_array(value, field: str) -> np.ndarray:
    """`value`, a rectangular nest of lists of JSON numbers, as a float array.

    ints and floats are numbers; bools are not.  Rows of unequal length or
    depth, any other entry and an integer beyond the float range raise
    ValueError naming `field`.  The caller checks the shape.
    """
    entries = np.asarray(value, dtype=object)
    # The exact types first, without a Python loop; then the first entry that fails.
    if not set(map(type, entries.flat)) <= {int, float}:
        for entry in entries.flat:
            if isinstance(entry, list):  # the array stops at rows that differ
                raise ValueError(f"{field} must be a rectangular list of numbers")
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValueError(f"{field} entries must be JSON numbers, got {entry!r}")
    try:
        return entries.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{field} entries must be finite") from None
