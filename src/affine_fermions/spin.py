"""Pauli-built operators for two and three spin-1/2 particles.

The exchange operator P = (Id + sigma.sigma) / 2 swaps the two tensor
factors of C^2 (x) C^2.  The total-spin observable used here is the raw
double sum S^2 = sum_{i,j=1..3} sigma_i . sigma_j including the diagonal
terms (each contributing 3), so its value on a spin-s eigenstate is
4 s (s + 1).

Every product is `_kron`, `_cmatmul` or `_cmul`, in `_products`' order.
"""

from __future__ import annotations

import functools

import numpy as np

from ._products import _cmatmul, _cmul, _kron

__all__ = [
    "PAULI",
    "exchange_operator",
    "s_squared_matrix",
    "s_squared_expectation",
]

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def exchange_operator() -> np.ndarray:
    """(Id + sum_alpha sigma_alpha (x) sigma_alpha) / 2, the two-qubit swap."""
    out = np.eye(4, dtype=complex)
    for sigma in PAULI:
        out += _kron(sigma, sigma)
    return out / 2.0


@functools.cache
def s_squared_matrix() -> np.ndarray:
    """sum_{i,j} sigma_i . sigma_j over all ordered pairs of the three sites, i = j included.

    That is sum_alpha S_alpha^2, S_alpha summing sigma_alpha over the sites.
    Built once, read-only, on first use: at import it would add about
    0.15 MB of peak resident memory to every command, also those that never
    read S^2 (0.7 MB while `total @ total` paged in a complex BLAS kernel).
    """
    eye = np.eye(2, dtype=complex)
    out = np.zeros((8, 8), dtype=complex)
    for sigma in PAULI:
        total = (  # S_alpha
            _kron(_kron(sigma, eye), eye)
            + _kron(_kron(eye, sigma), eye)
            + _kron(_kron(eye, eye), sigma)
        )
        out += _cmatmul(total, total)
    out.flags.writeable = False
    return out


def s_squared_expectation(state) -> float:
    """<state| S^2 |state> for a normalized three-qubit state (8 amplitudes)."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (8,):
        raise ValueError(f"need 8 amplitudes for three qubits, got shape {psi.shape}")
    norm = np.sqrt(np.add.reduce(psi.real * psi.real + psi.imag * psi.imag))
    if not abs(norm - 1.0) <= 1e-12:  # `not <=`, so that a NaN norm is rejected too
        raise ValueError(f"state must be normalized, got norm {norm!r}")
    image = _cmatmul(s_squared_matrix(), psi[:, None])[:, 0]  # S^2 |state>
    return float(np.add.reduce(_cmul(np.conj(psi), image)).real)
