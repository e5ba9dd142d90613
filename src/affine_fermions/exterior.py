"""Signed permutations: the sign bookkeeping of antisymmetrization.

Pure functions over immutable values, safe for concurrent use.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Antisymmetrization enumerates S_p explicitly; 8! = 40320 is the ceiling.
MAX_ANTISYM_DEGREE = 8


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple/list mapping position -> image.

    Computed by counting inversions, which equals the parity of any
    decomposition into transpositions.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm!r}")
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(p: int):
    """All of S_p as ((perm, sign), ...), in lexicographic order."""
    if p > MAX_ANTISYM_DEGREE:
        raise ValueError(f"degree {p} exceeds supported maximum {MAX_ANTISYM_DEGREE}")
    return tuple(
        (perm, perm_sign(perm)) for perm in itertools.permutations(range(p))
    )
