"""Cyclic symplectic pairing on a triple of Lagrangian subspaces.

Convention: the symplectic form on R^(2n) in (p, q) block order is
omega(u, v) = sum_i u_p[i] v_q[i] - u_q[i] v_p[i], i.e. the matrix
J = [[0, I], [-I, 0]].  The quadratic form on L1 (+) L2 (+) L3 is

    Q(x1, x2, x3) = omega(x1, x2) + omega(x2, x3) + omega(x3, x1),

and its signature is the index of the triple.  Signature values depend on
the sign convention of omega; the one above is fixed throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "standard_symplectic_matrix",
    "LagrangianTriple",
    "SignatureResult",
    "kashiwara_q",
    "kashiwara_index",
    "random_symplectic",
    "lagrangian_triple_from_json",
]

# Largest |omega(col_i, col_j)| accepted within one Lagrangian basis.
LAGRANGIAN_ATOL = 1e-10


def standard_symplectic_matrix(n: int) -> np.ndarray:
    """The 2n x 2n matrix J of the standard form in (p, q) block order."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class LagrangianTriple:
    """Three Lagrangian subspaces of R^(2n), each given by a 2n x n basis.

    Construction validates that every basis is finite, has full column rank
    and that omega vanishes on each subspace (|omega(col_i, col_j)| <=
    LAGRANGIAN_ATOL for all column pairs within one basis); the offending
    subspace, column pair and residual are reported otherwise.
    """

    def __init__(self, l1, l2, l3):
        bases = tuple(np.asarray(b, dtype=float) for b in (l1, l2, l3))
        shape = bases[0].shape
        if len(shape) != 2 or shape[0] != 2 * shape[1]:
            raise ValueError(f"bases must be 2n x n matrices, got shape {shape}")
        n = shape[1]
        j = standard_symplectic_matrix(n)
        for which, basis in enumerate(bases, start=1):
            if basis.shape != shape:
                raise ValueError("all three bases must share one shape")
            if not np.all(np.isfinite(basis)):
                raise ValueError(f"L{which} basis entries must be finite")
            rank = np.linalg.matrix_rank(basis)
            if rank < n:
                raise ValueError(
                    f"L{which} basis has rank {rank} < {n}; not a basis"
                )
            gram = basis.T @ j @ basis
            worst = np.unravel_index(np.argmax(np.abs(gram)), gram.shape)
            residual = abs(gram[worst])
            if residual > LAGRANGIAN_ATOL:
                raise ValueError(
                    f"L{which} is not Lagrangian: omega(col {worst[0]}, "
                    f"col {worst[1]}) = {gram[worst]:g} exceeds {LAGRANGIAN_ATOL:g}"
                )
        self.n = n
        self.bases = bases

    def transformed(self, s) -> "LagrangianTriple":
        """The triple with a linear map applied to all three subspaces."""
        s = np.asarray(s, dtype=float)
        return LagrangianTriple(*(s @ b for b in self.bases))


@dataclass(frozen=True)
class SignatureResult:
    """Inertia of the cyclic pairing form."""

    n_plus: int
    n_minus: int
    n_zero: int
    eigenvalues: np.ndarray

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def to_json_dict(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "n_zero": self.n_zero,
            "signature": self.signature,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        }


def _cyclic_form(b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Q for three bases: cyclic omega blocks in an upper form B, as (B + B^T) / 2."""
    n = b1.shape[1]
    j = standard_symplectic_matrix(n)
    raw = np.zeros((3 * n, 3 * n))
    raw[0:n, n : 2 * n] = b1.T @ j @ b2
    raw[n : 2 * n, 2 * n : 3 * n] = b2.T @ j @ b3
    raw[2 * n : 3 * n, 0:n] = b3.T @ j @ b1
    return (raw + raw.T) / 2.0


def kashiwara_q(triple: LagrangianTriple) -> np.ndarray:
    """Symmetric matrix of Q on L1 (+) L2 (+) L3 in the provided bases.

    Assembles the blocks omega(basis_i, basis_j) with cyclic signs into an
    upper form B and returns (B + B^T) / 2.
    """
    return _cyclic_form(*triple.bases)


def kashiwara_index(
    triple: LagrangianTriple, zero_tol: float = 1e-8
) -> SignatureResult:
    """Eigenvalue signs of the cyclic pairing form.

    The inertia is decided on QR-orthonormalized bases of the same
    subspaces.  That change of basis is a congruence, so by Sylvester's law
    it keeps the signature, and it keeps badly scaled or nearly parallel
    basis columns from pushing true eigenvalues below the zero cut.  There,
    eigenvalues with magnitude below zero_tol times the largest magnitude
    count as zero; signature = n_plus - n_minus.  The reported eigenvalues
    are those of kashiwara_q, in the provided bases.
    """
    orthonormal = np.linalg.qr(np.stack(triple.bases)).Q
    decided, eigenvalues = np.linalg.eigvalsh(
        np.stack([_cyclic_form(*orthonormal), kashiwara_q(triple)])
    )
    top = np.abs(decided).max()
    cut = zero_tol * top if top > 0 else 0.0
    n_plus = int(np.sum(decided > cut))
    n_minus = int(np.sum(decided < -cut))
    n_zero = decided.size - n_plus - n_minus
    return SignatureResult(n_plus, n_minus, n_zero, eigenvalues)


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random symplectic matrix, exp(J M) for a random symmetric M."""
    m = rng.standard_normal((2 * n, 2 * n))
    m = (m + m.T) / 2.0
    return expm(standard_symplectic_matrix(n) @ m)


def lagrangian_triple_from_json(doc) -> LagrangianTriple:
    """Build a triple from {"n": int, "L1": rows, "L2": rows, "L3": rows}.

    Each Lk is a list of 2n rows with n entries.  Accepts a parsed document
    or a JSON string.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        n = int(doc["n"])
        bases = [np.asarray(doc[key], dtype=float) for key in ("L1", "L2", "L3")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Lagrangian triple document: {exc}") from exc
    for key, basis in zip(("L1", "L2", "L3"), bases):
        if basis.shape != (2 * n, n):
            raise ValueError(
                f"{key} must have {2 * n} rows of {n} entries, got shape {basis.shape}"
            )
    return LagrangianTriple(*bases)
