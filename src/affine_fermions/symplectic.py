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

import math
from dataclasses import dataclass

import numpy as np

from ._products import _matmul
from .json_io import number_array

__all__ = [
    "LagrangianTriple",
    "SignatureResult",
    "kashiwara_q",
    "kashiwara_index",
    "symplectic_shear",
    "lagrangian_triple_from_json",
]

# Largest |omega(col_i, col_j)| accepted within one Lagrangian basis, taken on
# the orthonormalized columns that the index reads, each scaled by a power of
# two to a largest |entry| in [0.5, 1).
LAGRANGIAN_ATOL = 1e-10

INERTIA_RTOL = 1e-8  # kashiwara_index's zero cut, relative to max(1, largest |entry| of the form)

# Largest residual norm of a basis column that `_qr` counts as dependent on
# the columns before it, relative to the basis's largest column norm once each
# column is scaled by a power of two to a largest |entry| in [0.5, 1).
RANK_RTOL = 1e-13

# Bunch-Parlett's pivot threshold: it bounds the growth of the entries per
# elimination step by the smallest possible factor, 1 + 1/alpha, about 2.57.
_PIVOT_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0

# Largest n accepted in a JSON triple.  `_inertia` eliminates the 3n x 3n
# form in elementwise passes, not blocked BLAS: at n = 256 `kashiwara` took
# 1.6 s on a 2-CPU x86-64 machine, 1 s in `_inertia`, 8x per doubling of n.
MAX_TRIPLE_DIM = 256

# Largest |entry| accepted in a JSON basis, a bound on the input that `_basis`
# checks.  The index scales and orthonormalizes the bases, so its form does
# not grow with the entries.
MAX_BASIS_ENTRY = 1e150


def _omega(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """omega(u_i, v_j) = u_p^T v_q - u_q^T v_p for stacks of bases (..., 2n, n), as one product (J^T u)^T v.

    J^T u = [-u_q; u_p] is exact, so the bits are those of u^T J v with the matrix J, up to the sign of a
    zero.  (J^T u)^T is copied to C order, as the product u^T J was: BLAS's path follows the layout.
    """
    n = u.shape[-2] // 2
    return np.concatenate([-u[..., n:, :], u[..., :n, :]], axis=-2).swapaxes(-1, -2).copy() @ v


def _qr(a: np.ndarray):
    """(q, rank): orthonormal columns q spanning the columns of a, and their count.

    Modified Gram-Schmidt over a stack (..., m, n) of finite bases.  Each
    column is first divided by the power of two that brings its largest
    |entry| into [0.5, 1), exactly, so no sum of squares overflows or
    underflows.  Then each column, in order, is normalized and projected out
    of the columns after it, twice, since one pass leaves the rounding
    error of the first.  A column whose residual norm is at most RANK_RTOL
    times the largest scaled column norm counts as dependent, and its
    column of q is 0.  Its sums follow `_products`' order rule, with +, -,
    *, / and sqrt alone.
    """
    a = np.asarray(a, dtype=float)
    _, exponents = np.frexp(np.abs(a).max(axis=-2, keepdims=True))
    cols = np.ascontiguousarray(np.ldexp(a, -exponents).swapaxes(-1, -2))  # column j is the contiguous row j
    cut = RANK_RTOL * np.sqrt(np.add.reduce(cols * cols, axis=-1).max(axis=-1))
    rank = np.zeros(cut.shape, dtype=int)
    for k in range(cols.shape[-2]):
        column, rest = cols[..., k, :], cols[..., k + 1 :, :]
        norm = np.sqrt(np.add.reduce(column * column, axis=-1))
        kept = norm > cut
        rank += kept
        column /= np.where(kept, norm, np.inf)[..., None]
        for _ in range(2):
            rest -= np.add.reduce(rest * column[..., None, :], axis=-1)[..., None] * column[..., None, :]
    return cols.swapaxes(-1, -2), rank


def _inertia(form: np.ndarray, cut):
    """(n_plus, n_minus, n_zero, lowest, pivot, left) of exactly symmetric matrices (..., N, N), by symmetric elimination.

    Bunch-Parlett complete pivoting: while the largest |entry| of the
    remaining block exceeds `cut` (broadcast over the stack), a step takes
    the largest diagonal entry as a 1 x 1 pivot if it is at least
    _PIVOT_ALPHA times the largest |entry|, which is the same test as
    against the largest off-diagonal one, and otherwise the 2 x 2 block
    [[a, b], [b, c]] on the largest entry b, which is then off the diagonal
    and makes the determinant negative.  Each step is a congruence, so by
    Sylvester's law the counts are those of the eigenvalues: a 1 x 1 pivot
    adds its sign, a 2 x 2 pivot one plus and one minus, and the rows left
    when the elimination stops count as zero.  lowest is the least of the
    pivots (a 2 x 2 pivot's are |b| and det / |b|) and of the lower ends of
    the Gershgorin discs of the block left over, so a negative eigenvalue
    makes it negative.  pivot is the least largest |entry| that a step
    eliminated (inf if none did), left the largest |entry| left (0 if none).

    A stack runs in lockstep.  Each step zeroes each member's pivot rows
    and columns, and once every member has at most 3/4 of the block's rows
    live, each member's live rows move to the front, in order, and the
    block shrinks to the most any member has, at every width; so one N x N
    form's elimination takes about 0.43 N^3 products, against N^3 over the
    whole form at every step.  The Schur update is a sum of exactly
    symmetric outer products, and the steps use +, -, * and / alone, so
    the same code runs on Fraction entries (dtype object, cut 0) and gives
    exact counts there.
    """
    a = np.array(form)
    shape, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    stack = np.arange(len(a))
    cut = np.broadcast_to(cut, shape).reshape(-1)
    live = np.ones(a.shape[:-1], dtype=bool)
    done = np.zeros(len(a), dtype=int)  # rows eliminated
    n_minus = np.zeros_like(done)
    lowest = np.full(len(a), np.inf, dtype=a.dtype)
    pivot = lowest.copy()
    magnitude, term = np.empty_like(a), np.empty_like(a)  # reused: a new N x N array costs page faults
    while done.min() < n:
        width = a.shape[-1]
        size = np.abs(a, out=magnitude).reshape(len(a), width * width)
        top = np.argmax(size, axis=-1)
        p = np.argmax(size[:, :: width + 1], axis=-1)
        top_all, top_diagonal = size[stack, top], size[stack, p * (width + 1)]
        go = top_all > cut
        if not go.any():
            break
        np.minimum(pivot, top_all, out=pivot, where=go)
        one = go & (top_diagonal >= _PIVOT_ALPHA * top_all)
        two = go ^ one
        r, s = np.divmod(top, width)
        i, j = np.where(one, p, r), np.where(one, p, s)
        ci, cj = a[stack, i], a[stack, j]  # rows i and j, which are columns i and j
        aii, ajj, aij = ci[stack, i], cj[stack, j], ci[stack, j]
        det = np.where(two, aii * ajj - aij * aij, aii)
        # the pivot block's inverse is [[w_ii, w_ij], [w_ij, w_jj]]: [[1 / a, 0], [0, 0]] for a
        # 1 x 1 pivot a, and 0 where the elimination has stopped
        safe = np.where(go, det, 1)
        w_ii = np.where(go, np.where(one, 1, ajj) / safe, 0)
        np.multiply(ci[:, :, None], ci[:, None, :], out=term)
        term *= w_ii[:, None, None]
        a -= term
        if two.any():
            w_ij, w_jj = np.where(two, -aij / safe, 0), np.where(two, aii / safe, 0)
            np.multiply(ci[:, :, None], cj[:, None, :], out=term)
            both = term + term.swapaxes(-1, -2)
            both *= w_ij[:, None, None]
            np.multiply(cj[:, :, None], cj[:, None, :], out=term)
            term *= w_jj[:, None, None]
            both += term
            a -= both
        # det < 0 for a 2 x 2 pivot: its one minus, and its least pivot is det / |b|
        n_minus += go & (det < 0)  # every other eliminated row adds a plus
        np.minimum(lowest, det / np.where(two, np.abs(aij), 1), out=lowest, where=go)
        done += go
        done += two
        live[stack, i] ^= go
        live[stack, j] ^= two
        for rows, at in ((stack[go], i[go]), (stack[two], j[two])):  # the pivot rows and columns
            a[rows, at] = 0
            a[rows, :, at] = 0
        count = n - done.min()  # the most rows a member has live
        if 4 * count <= 3 * width:
            order = np.argsort(~live, axis=-1, kind="stable")[:, :count]
            a = a[stack[:, None, None], order[:, :, None], order[:, None, :]]
            live = np.arange(count) < n - done[:, None]
            magnitude, term = np.empty_like(a), np.empty_like(a)
    width = a.shape[-1]
    off_diagonal = np.abs(a)
    left = np.max(off_diagonal, axis=(-2, -1), initial=0)  # eliminated rows and columns hold 0
    off_diagonal[:, np.arange(width), np.arange(width)] = 0
    # the lower ends of the Gershgorin discs of the rows left
    discs = np.diagonal(a, axis1=-2, axis2=-1) - np.add.reduce(off_diagonal, axis=-1)
    lowest = np.minimum(lowest, np.min(discs, axis=-1, where=live, initial=np.inf))
    return tuple(value.reshape(shape) for value in (done - n_minus, n_minus, n - done, lowest, pivot, left))


class LagrangianTriple:
    """Three Lagrangian subspaces of R^(2n), each given by a 2n x n basis.

    The bases may share leading batch axes, (..., 2n, n), for a stack of
    triples.  Construction validates that every basis is finite, has full
    column rank (by `_qr`, whose orthonormal bases `kashiwara_index` then
    reads) and that omega vanishes on each subspace: |omega(col_i,
    col_j)| <= LAGRANGIAN_ATOL for all column pairs of `_qr`'s orthonormal
    basis, after each column is divided by the power of two 2^e_i that
    brings its largest |entry| into [0.5, 1).  Taken on the raw columns,
    nearly parallel ones would hide a symplectic plane: omega of e_p1 and
    e_p1 + 1e-11 e_q1 is 1e-11.  The first
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
        # _qr scales the columns itself, so the index reads these bases only through _qr
        # (test_acceptance's kashiwara_invariance-qr defect puts the identity in its place)
        orthonormal, rank = _qr(safe)
        _, exponents = np.frexp(np.abs(orthonormal).max(axis=-2, keepdims=True))
        unit = np.ldexp(orthonormal, -exponents)
        gram = _omega(unit, unit).reshape(finite.shape + (n * n,))
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
                    f"(2^e_{i} 2^e_{j}) = {residual[at]:g} on the orthonormalized columns "
                    f"exceeds {LAGRANGIAN_ATOL:g}"
                )
            if sample:
                message += f" (sample {', '.join(str(k) for k in sample)})"
            raise ValueError(message)
        self.n = n
        self.bases = bases
        self._orthonormal = orthonormal  # (3, ..., 2n, n): the bases after `_qr`, which the index reads


@dataclass(frozen=True)
class SignatureResult:
    """Inertia of the cyclic pairing form, and its elimination's margins over the zero cut.

    pivot_margin is the least largest |entry| that a step eliminated (inf
    when none did), zero_margin the largest |entry| left (0 when no row is),
    each over the cut: near 1, roundoff could move the counts.  Python ints
    and floats for one triple, arrays over the batch shape for a stack.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    pivot_margin: float
    zero_margin: float

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def to_json_dict(self) -> dict:
        """Counts, signature and margins, an inf pivot_margin as null; nested lists over the batch axes of a stack."""
        keys = ("n_plus", "n_minus", "n_zero", "signature", "zero_margin")
        doc = {key: np.asarray(getattr(self, key)).tolist() for key in keys}
        doc["pivot_margin"] = np.where(np.isinf(self.pivot_margin), None, self.pivot_margin).tolist()
        return doc


def _cyclic_form(bases: np.ndarray) -> np.ndarray:
    """Q for a stack (3, ..., 2n, n) of three bases: cyclic omega blocks in an upper form B, as (B + B^T) / 2."""
    n = bases.shape[-1]
    raw = np.zeros(bases.shape[1:-2] + (3, n, 3, n))  # block (k, k + 1 mod 3) is omega(b_k, b_k+1)
    raw[..., [0, 1, 2], :, [1, 2, 0], :] = _omega(bases, bases[[1, 2, 0]])
    raw = raw.reshape(bases.shape[1:-2] + (3 * n, 3 * n))
    return (raw + raw.swapaxes(-1, -2)) / 2.0


def kashiwara_q(triple: LagrangianTriple) -> np.ndarray:
    """Symmetric matrix of Q on L1 (+) L2 (+) L3 in the provided bases.

    Assembles the blocks omega(basis_i, basis_j) with cyclic signs into an
    upper form B and returns (B + B^T) / 2, of shape (..., 3n, 3n).  No
    subcommand prints it; demos/kashiwara_example.py does.
    """
    return _cyclic_form(np.stack(triple.bases))


def kashiwara_index(triple: LagrangianTriple) -> SignatureResult:
    """Inertia of the cyclic pairing form, by symmetric elimination.

    The inertia is decided on Gram-Schmidt-orthonormalized bases of the same
    subspaces, which the triple's validation formed (`_qr`).  That change of
    basis is a congruence, so by Sylvester's law it keeps the signature, and
    it keeps badly scaled or nearly parallel basis columns from pushing true
    pivots below the zero cut.  There every entry of the form is at most 1
    in magnitude, and the cut is INERTIA_RTOL times max(1, its largest
    |entry|), so a form of roundoff alone, as on three equal subspaces,
    counts as zero.  `_inertia` eliminates the form until the largest
    |entry| left is at most the cut; the rows left count as zero.  Neither
    step calls BLAS or LAPACK, and a stack of triples takes one call of each.
    """
    form = _cyclic_form(triple._orthonormal)
    cut = INERTIA_RTOL * np.maximum(1.0, np.abs(form).max(axis=(-2, -1)))
    n_plus, n_minus, n_zero, _, pivot, left = _inertia(form, cut)
    counts, margins = (n_plus, n_minus, n_zero), (pivot / cut, left / cut)
    if form.ndim == 2:
        counts, margins = map(int, counts), map(float, margins)
    return SignatureResult(*counts, *margins)


def symplectic_shear(m) -> np.ndarray:
    """Symplectic matrices [[I + A C, A], [C, I]], A and C the diagonal n x n blocks of m's symmetric part.

    Each is the product of the shears [[I, A], [0, I]] and [[I, 0], [C, I]],
    which preserve omega because A and C are symmetric.  m has shape
    (..., 2n, 2n); the result has the same shape, and A C is `_matmul`'s.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] // 2
    sym = (m + m.swapaxes(-1, -2)) / 2.0
    a, c = sym[..., :n, :n], sym[..., n:, n:]
    eye = np.broadcast_to(np.eye(n), a.shape)
    return np.block([[eye + _matmul(a, c), a], [c, eye]])


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

    n is an integer from 1 to MAX_TRIPLE_DIM, and each Lk is a list of 2n
    rows with n numbers.
    """
    try:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_TRIPLE_DIM:
            raise ValueError(f"n must be a JSON integer from 1 to {MAX_TRIPLE_DIM}, got {n!r}")
        bases = [_basis(doc, key, n) for key in ("L1", "L2", "L3")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Lagrangian triple document: {exc}") from exc
    return LagrangianTriple(*bases)
