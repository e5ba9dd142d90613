"""Pauli-built operators for two and three spin-1/2 particles.

The exchange operator P = (Id + sigma.sigma) / 2 swaps the two tensor
factors of C^2 (x) C^2.  The total-spin observable used here is the raw
double sum S^2 = sum_{i,j=1..3} sigma_i . sigma_j including the diagonal
terms (each contributing 3), so its value on a spin-s eigenstate is
4 s (s + 1).
"""

from __future__ import annotations

import functools

import numpy as np

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
        out += np.kron(sigma, sigma)
    return out / 2.0


def _single_site(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    factors = [np.eye(2, dtype=complex)] * n_sites
    factors[site] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def s_squared_matrix(n_sites: int = 3) -> np.ndarray:
    """sum_{i,j} sigma_i . sigma_j over all ordered site pairs, i = j included."""
    dim = 2**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    singles = [
        [_single_site(sigma, site, n_sites) for sigma in PAULI]
        for site in range(n_sites)
    ]
    for i in range(n_sites):
        for j in range(n_sites):
            for alpha in range(3):
                out += singles[i][alpha] @ singles[j][alpha]
    return out


@functools.cache
def _s_squared_3() -> np.ndarray:
    """s_squared_matrix(3), built once and read-only, since every caller shares it.

    Built on first use, not at import: its complex matmuls would add about
    0.4 MB of resident memory to every command, also those that never read S^2.
    """
    out = s_squared_matrix(3)
    out.flags.writeable = False
    return out


def s_squared_expectation(state) -> float:
    """<state| S^2 |state> for a normalized three-qubit state (8 amplitudes)."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (8,):
        raise ValueError(f"need 8 amplitudes for three qubits, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state must be normalized, got norm {norm!r}")
    return float(np.real(np.conj(psi) @ _s_squared_3() @ psi))
