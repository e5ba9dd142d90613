import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from affine_fermions import (
    affine_det,
    exchange_operator,
    s_squared_expectation,
    s_squared_matrix,
)


def two_qubit_basis(i, j):
    ket = np.zeros(4)
    ket[2 * i + j] = 1.0
    return ket


def three_qubit_basis(bits):
    ket = np.zeros(8)
    ket[int(bits, 2)] = 1.0
    return ket


def test_exchange_swaps_basis_states():
    p = exchange_operator()
    for i in range(2):
        for j in range(2):
            assert_allclose(p @ two_qubit_basis(i, j), two_qubit_basis(j, i))


def test_exchange_is_involution_and_hermitian():
    p = exchange_operator()
    assert_allclose(p @ p, np.eye(4))
    assert_allclose(p, p.conj().T)


def test_exchange_equals_swap_matrix():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1.0
    assert_allclose(exchange_operator(), swap)


def test_s_squared_matrix_hermitian():
    m = s_squared_matrix()
    assert_allclose(m, m.conj().T)
    assert not m.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0.0


def test_s_squared_all_up():
    # three diagonal terms of value 3 plus six cross terms of value 1,
    # i.e. 4 s (s+1) with s = 3/2
    assert s_squared_expectation(three_qubit_basis("000")) == pytest.approx(15.0)


def test_s_squared_doublet():
    state = (three_qubit_basis("010") - three_qubit_basis("100")) / math.sqrt(2.0)
    assert s_squared_expectation(state) == pytest.approx(3.0)


def test_s_squared_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        s_squared_expectation(np.ones(8))


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
def test_s_squared_rejects_non_finite_amplitudes(bad):
    # a NaN norm compares False with any bound, so it must not slip through as normalized
    state = three_qubit_basis("000").astype(complex)
    state[3] = bad
    with pytest.raises(ValueError, match="normalized"):
        s_squared_expectation(state)


def test_affine_det_amplitudes_over_basis_points_vanish():
    # Psi(a, b, c) with a, b, c drawn from the two basis vectors always
    # repeats a point, so the would-be amplitude vector is identically zero
    # and cannot be normalized into a state
    basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    amplitudes = np.array(
        [
            float(np.real(affine_det([a, b, c])))
            for a, b, c in itertools.product(basis, repeat=3)
        ]
    )
    assert_allclose(amplitudes, np.zeros(8))
    with pytest.raises(ValueError, match="normalized"):
        s_squared_expectation(amplitudes)
