"""Cyclic symplectic pairing on a triple of Lagrangian subspaces.

Convention: the symplectic form on R^(2n) in (p, q) block order is
omega(u, v) = sum_i u_p[i] v_q[i] - u_q[i] v_p[i], i.e. the matrix
J = [[0, I], [-I, 0]].  The quadratic form on L1 (+) L2 (+) L3 is

    Q(x1, x2, x3) = omega(x1, x2) + omega(x2, x3) + omega(x3, x1),

and its signature is the index of the triple.  Signature values depend on
the sign convention of omega; the one above is fixed throughout.

Bases may carry leading batch axes, (..., 2n, n): a stack of triples is
validated, mapped and indexed in one call, and a single triple is the stack
without leading axes.  Each triple in a stack gets the same bits as on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .json_io import number_array

__all__ = [
    "standard_symplectic_matrix",
    "LagrangianTriple",
    "SignatureResult",
    "kashiwara_q",
    "kashiwara_index",
    "symplectic_shear",
    "lagrangian_triple_from_json",
]

# Largest |omega(col_i, col_j)| accepted within one Lagrangian basis, with
# each column scaled by a power of two to a largest |entry| in [0.5, 1).
LAGRANGIAN_ATOL = 1e-10

# Largest |entry| accepted in a JSON basis.  Q's entries are sums of n
# products of two entries, so its eigenvalues stay finite (5e302 at n = 1000).
MAX_BASIS_ENTRY = 1e150


def standard_symplectic_matrix(n: int) -> np.ndarray:
    """The 2n x 2n matrix J of the standard form in (p, q) block order."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


class LagrangianTriple:
    """Three Lagrangian subspaces of R^(2n), each given by a 2n x n basis.

    The bases may share leading batch axes, (..., 2n, n), for a stack of
    triples.  Construction validates that every basis is finite, has full
    column rank and that omega vanishes on each subspace: |omega(col_i,
    col_j)| <= LAGRANGIAN_ATOL for all column pairs within one basis, after
    each column is divided by the power of two 2^e_i that brings its largest
    |entry| into [0.5, 1).  The division is exact, so the test is the same
    at every scale and entries near 1e300 do not overflow.  The first
    offending triple in C order is reported with its subspace, column pair
    and scaled residual, and, in a stack, with its sample index.
    """

    def __init__(self, l1, l2, l3):
        bases = tuple(np.asarray(b, dtype=float) for b in (l1, l2, l3))
        shape = bases[0].shape
        if len(shape) < 2 or shape[-2] != 2 * shape[-1] or shape[-1] < 1:
            raise ValueError(f"bases must be 2n x n matrices, got shape {shape}")
        if any(basis.shape != shape for basis in bases):
            raise ValueError("all three bases must share one shape")
        n = shape[-1]
        stacked = np.stack(bases)
        finite = np.isfinite(stacked).all(axis=(-2, -1))
        # Zeros stand in for a non-finite basis, which fails its first check.
        safe = np.where(finite[..., None, None], stacked, 0.0)
        rank = np.linalg.matrix_rank(safe)
        _, exponents = np.frexp(np.abs(safe).max(axis=-2, keepdims=True))
        unit = np.ldexp(safe, -exponents)
        gram = _transpose(unit) @ standard_symplectic_matrix(n) @ unit
        gram = gram.reshape(finite.shape + (n * n,))
        worst = np.argmax(np.abs(gram), axis=-1)
        residual = np.take_along_axis(gram, worst[..., None], axis=-1)[..., 0]
        bad = ~finite | (rank < n) | (np.abs(residual) > LAGRANGIAN_ATOL)
        if bad.any():
            # The first bad sample in C order, and its first bad subspace.
            first = np.argmax(np.moveaxis(bad, 0, -1))
            *sample, which = np.unravel_index(first, shape[:-2] + (3,))
            at = (which, *sample)
            if not finite[at]:
                message = f"L{which + 1} basis entries must be finite"
            elif rank[at] < n:
                message = f"L{which + 1} basis has rank {rank[at]} < {n}; not a basis"
            else:
                i, j = divmod(int(worst[at]), n)
                message = (
                    f"L{which + 1} is not Lagrangian: omega(col {i}, col {j}) / "
                    f"(2^e_{i} 2^e_{j}) = {residual[at]:g} exceeds {LAGRANGIAN_ATOL:g}"
                )
            if sample:
                message += f" (sample {', '.join(str(k) for k in sample)})"
            raise ValueError(message)
        self.n = n
        self.bases = bases


@dataclass(frozen=True)
class SignatureResult:
    """Inertia of the cyclic pairing form.

    The counts are Python ints for one triple and int arrays over the batch
    shape for a stack; eigenvalues has shape (..., 3n).
    """

    n_plus: int
    n_minus: int
    n_zero: int
    eigenvalues: np.ndarray

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def to_json_dict(self) -> dict:
        """Counts, signature and eigenvalues; nested lists over the batch axes of a stack."""
        return {
            "n_plus": np.asarray(self.n_plus).tolist(),
            "n_minus": np.asarray(self.n_minus).tolist(),
            "n_zero": np.asarray(self.n_zero).tolist(),
            "signature": np.asarray(self.signature).tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
        }


def _cyclic_form(b1: np.ndarray, b2: np.ndarray, b3: np.ndarray) -> np.ndarray:
    """Q for three bases: cyclic omega blocks in an upper form B, as (B + B^T) / 2."""
    n = b1.shape[-1]
    j = standard_symplectic_matrix(n)
    raw = np.zeros(b1.shape[:-2] + (3 * n, 3 * n))
    raw[..., 0:n, n : 2 * n] = _transpose(b1) @ j @ b2
    raw[..., n : 2 * n, 2 * n : 3 * n] = _transpose(b2) @ j @ b3
    raw[..., 2 * n : 3 * n, 0:n] = _transpose(b3) @ j @ b1
    return (raw + _transpose(raw)) / 2.0


def kashiwara_q(triple: LagrangianTriple) -> np.ndarray:
    """Symmetric matrix of Q on L1 (+) L2 (+) L3 in the provided bases.

    Assembles the blocks omega(basis_i, basis_j) with cyclic signs into an
    upper form B and returns (B + B^T) / 2, of shape (..., 3n, 3n).
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
    are those of kashiwara_q, in the provided bases.  A stack of triples
    takes one QR and one eigvalsh call.  zero_tol must be finite and >= 0.
    """
    if not 0.0 <= zero_tol < np.inf:
        raise ValueError(f"zero_tol must be finite and >= 0, got {zero_tol!r}")
    provided = np.stack(triple.bases)
    # per subspace: the orthonormal basis, then the provided one
    pairs = np.stack([np.linalg.qr(provided).Q, provided], axis=1)
    decided, eigenvalues = np.linalg.eigvalsh(_cyclic_form(*pairs))
    top = np.abs(decided).max(axis=-1, keepdims=True)
    cut = np.where(top > 0, zero_tol * top, 0.0)
    n_plus = np.count_nonzero(decided > cut, axis=-1)
    n_minus = np.count_nonzero(decided < -cut, axis=-1)
    n_zero = decided.shape[-1] - n_plus - n_minus
    if decided.ndim == 1:
        n_plus, n_minus, n_zero = int(n_plus), int(n_minus), int(n_zero)
    return SignatureResult(n_plus, n_minus, n_zero, eigenvalues)


def symplectic_shear(m) -> np.ndarray:
    """Symplectic matrices [[I + A C, A], [C, I]], A and C the diagonal n x n blocks of m's symmetric part.

    Each is the product of the shears [[I, A], [0, I]] and [[I, 0], [C, I]],
    which preserve omega because A and C are symmetric.  m has shape
    (..., 2n, 2n); the result has the same shape.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] // 2
    sym = (m + _transpose(m)) / 2.0
    a, c = sym[..., :n, :n], sym[..., n:, n:]
    eye = np.broadcast_to(np.eye(n), a.shape)
    return np.block([[eye + a @ c, a], [c, eye]])


def _basis(doc, key: str, n: int) -> np.ndarray:
    entries = number_array(doc[key], f"{key} basis")
    if entries.shape != (2 * n, n):
        raise ValueError(
            f"{key} must have {2 * n} rows of {n} entries, got shape {entries.shape}"
        )
    # NaN and inf are left to LagrangianTriple, which names them non-finite.
    if np.any(np.isfinite(entries) & (np.abs(entries) > MAX_BASIS_ENTRY)):
        raise ValueError(f"{key} basis entries must be at most {MAX_BASIS_ENTRY:g} in magnitude")
    return entries


def lagrangian_triple_from_json(doc) -> LagrangianTriple:
    """Build a triple from the parsed document {"n": int, "L1": rows, "L2": rows, "L3": rows}.

    n is an integer >= 1, and each Lk is a list of 2n rows with n numbers.
    """
    try:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a JSON integer >= 1, got {n!r}")
        bases = [_basis(doc, key, n) for key in ("L1", "L2", "L3")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Lagrangian triple document: {exc}") from exc
    return LagrangianTriple(*bases)
