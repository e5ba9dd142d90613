import itertools

import pytest

from affine_fermions import perm_sign, signed_permutations


def sign_by_sorting(perm):
    """Independent parity: count the swaps a bubble sort needs."""
    seq = list(perm)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def test_perm_sign_matches_transposition_count():
    for p in range(1, 6):
        for perm in itertools.permutations(range(p)):
            assert perm_sign(perm) == sign_by_sorting(perm)


def test_perm_sign_multiplicative_exhaustive():
    for p in range(1, 5):
        perms = list(itertools.permutations(range(p)))
        for s in perms:
            for t in perms:
                composed = tuple(s[t[i]] for i in range(p))
                assert perm_sign(composed) == perm_sign(s) * perm_sign(t)


def test_perm_sign_rejects_non_permutation():
    with pytest.raises(ValueError):
        perm_sign((0, 0, 1))


def test_signed_permutations_complete():
    pairs = signed_permutations(4)
    assert len(pairs) == 24
    assert sum(sign for _, sign in pairs) == 0
