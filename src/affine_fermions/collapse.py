"""Collapse of a pairwise-entangled fermion triple to the affine determinant.

Three distinguishable spin-1/2 states a, b, c in C^2 are embedded into
disjoint blocks of C^6, combined into the antisymmetric tensor

    Lambda = a'^b' + b'^c' + c'^a'   (36 complex entries),

reindexed into three 12-component blocks, partially traced to a vector in
C^3, and finally projected onto a scalar that equals det(b-a, c-a).  The
module also provides the covariance of the pipeline under a 2x2 morphism
applied to all three states, and the partial traces of the rank-1 state
built from two copies of the affine determinant.

All functions are pure; inputs are never mutated.  Each one also takes a
batch: leading axes in front of its per-triple shape, checked and computed
in one pass.  A single triple is the case without leading axes and gets
the same arithmetic, bit for bit.  The pipeline stages store a batch with
its leading axes last, so each numpy call runs along the whole batch; they
return views in the documented (..., 6), (..., 6, 6) and (..., 3, 6) shapes.
Lambda is built from its three live 2x2 blocks, and every structural check
computes its scale only when a residual exceeds 1e-12, since no smaller
residual can break a bound relative to max(1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .affine_forms import affine_det

__all__ = [
    "ConsistencyError",
    "EmbeddedTriple",
    "ThetaBlocks",
    "embed",
    "lambda_tensor",
    "theta",
    "tr1",
    "collapse",
    "collapse_with_morphism",
    "rho_trace_A",
    "rho_trace_AC",
    "BASIS_2D",
]

# Computational basis |0>, |1> used by the partial-trace sums.
BASIS_2D = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))

# Column read-out order of the Lambda matrix for each reindexed block; block
# k takes row 2k for X' and row 2k+1 for Y', and its slot s reads column
# (s + _THETA_SHIFTS[k]) mod 6.  Generated once from the closed form of the
# reindexation and pinned by the unit tests.
_THETA_SHIFTS = (2, 0, 4)
_THETA_COLS = tuple(tuple((s + shift) % 6 for s in range(6)) for shift in _THETA_SHIFTS)

# Slots of each X'/Y' block that are structurally zero: those that read
# Lambda's own 2x2 diagonal block, (4, 5), (2, 3) and (0, 1).
_ZERO_SLOTS = [tuple(s for s, col in enumerate(cols) if col // 2 == k) for k, cols in enumerate(_THETA_COLS)]
_ZERO_INDEX = (..., np.array([[0], [1], [2]]), np.array(_ZERO_SLOTS))

# Lambda's live 2x2 blocks (row block, column block): a'^b', b'^c' and c'^a'.
# The rest of Lambda is their negated transposes and zeros.
_LIVE_BLOCKS = ((0, 1), (1, 2), (2, 0))

# Relative bound of every structural-zero and consistency check.
_REL_TOL = 1e-12


class ConsistencyError(RuntimeError):
    """An internal invariant of the pipeline failed."""


def _require_finite(x, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")


def _bound(residual, scale, error, message: str, axes=-1) -> None:
    """Raise error(message) unless every row's residual is <= 1e-12 * its scale.

    residual holds per-entry residuals, a row's entries on `axes`.  scale is
    a callable that gives one value per row, each at least 1; a residual
    within 1e-12 meets any such bound, so it is called only when an entry
    exceeds that.  The message is formatted with the residual of the row that
    breaks its bound by the largest factor; `not <=` makes a NaN residual
    break it too.
    """
    if np.max(residual, initial=0.0) <= _REL_TOL:
        return
    residual = np.max(residual, axis=axes)
    scale = scale()
    bad = ~(residual <= _REL_TOL * scale)
    if bad.any():
        worst = np.argmax(np.where(bad, residual / scale, -np.inf))
        raise error(message.format(np.reshape(residual, -1)[worst]))


def _unbatched(z):
    """A Python complex for a single input; the array over the batch otherwise."""
    return complex(z) if np.ndim(z) == 0 else z


def _batch_last(x: np.ndarray, ndim: int) -> np.ndarray:
    """x with its last ndim axes moved to the front: the stages' storage order."""
    lead = x.ndim - ndim
    return x.transpose((*range(lead, x.ndim), *range(lead)))


def _batch_first(x: np.ndarray, ndim: int) -> np.ndarray:
    """Inverse of `_batch_last`: the first ndim axes moved to the back."""
    return x.transpose((*range(ndim, x.ndim), *range(ndim)))


def _cmul(u, v):
    """u * v formed from real and imaginary parts.

    numpy's vectorised complex multiply fuses multiply-adds and differs from
    the scalar complex product in the last bit; this form equals the scalar
    product bit for bit.
    """
    return (u.real * v.real - u.imag * v.imag) + 1j * (u.real * v.imag + u.imag * v.real)


@dataclass(frozen=True)
class EmbeddedTriple:
    """The three states pushed into disjoint 2-blocks of C^6, shape (..., 6)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class ThetaBlocks:
    """Reindexed form of Lambda: three X' blocks and three Y' blocks in C^6.

    Block k carries zeros in its structural slots (4-5 for block 1, 2-3 for
    block 2, 0-1 for block 3), which `theta` reads from Lambda's 2x2
    diagonal block k.  A batch carries leading axes in front of the (3, 6)
    block axes.
    """

    x_blocks: np.ndarray  # shape (..., 3, 6)
    y_blocks: np.ndarray  # shape (..., 3, 6)

    def __post_init__(self):
        for name, blocks in (("x", self.x_blocks), ("y", self.y_blocks)):
            if np.shape(blocks)[-2:] != (3, 6):
                raise ValueError(
                    f"{name}_blocks must have shape (..., 3, 6), got {np.shape(blocks)}"
                )
            _require_finite(blocks, f"{name}_blocks")
        if np.shape(self.x_blocks) != np.shape(self.y_blocks):
            raise ValueError("x_blocks and y_blocks must have the same shape")
        # X' and Y' zero slots side by side, (..., block, 4)
        zeros = np.abs(np.concatenate([self.x_blocks[_ZERO_INDEX], self.y_blocks[_ZERO_INDEX]], axis=-1))
        for k, slots in enumerate(_ZERO_SLOTS):
            _bound(
                zeros[..., k, :], lambda: self.scale, ValueError,
                f"block {k + 1} must vanish in slots {slots}; got residual {{:g}}",
            )

    @cached_property
    def scale(self) -> np.ndarray:
        """max(1, |X'|max, |Y'|max) per row, the scale of every bound on the blocks.

        Computed on first use: a check needs it only when a residual exceeds 1e-12.
        """
        peaks = [np.abs(blocks).max(axis=(-2, -1)) for blocks in (self.x_blocks, self.y_blocks)]
        return np.maximum(1.0, np.maximum(*peaks))


def _as_state(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != 2:
        raise ValueError(f"expected a vector in C^2, got shape {v.shape}")
    _require_finite(v, name)
    return v


def embed(a, b, c) -> EmbeddedTriple:
    """Embed a, b, c in C^2 into slots (0-1), (2-3), (4-5) of C^6.

    Each state has shape (2,), or (..., 2) for a batch; the leading axes
    broadcast against each other.
    """
    states = np.broadcast_arrays(_as_state(a, "a"), _as_state(b, "b"), _as_state(c, "c"))
    w = np.zeros((3, 6) + states[0].shape[:-1], dtype=complex)
    for block, v in enumerate(states):
        w[block, 2 * block : 2 * block + 2] = _batch_last(v, 1)
    return EmbeddedTriple(*(_batch_first(v, 1) for v in w))


def lambda_tensor(a, b, c) -> np.ndarray:
    """The antisymmetric tensor a'^b' + b'^c' + c'^a' as a 6x6 matrix.

    u^v means the antisymmetrized product (u (x) v - v (x) u) / 2.  The
    embedded states live in disjoint slots, so each wedge fills one 2x2
    block with (u (x) v) / 2, read from the live slots of `embed`'s output,
    and the transposed block with its negative; the three diagonal blocks
    stay zero.  Batched states give shape (..., 6, 6).
    """
    e = embed(a, b, c)
    live = [_batch_last(v, 1)[2 * i : 2 * i + 2] for i, v in enumerate((e.a, e.b, e.c))]
    lam = np.zeros((6, 6) + e.a.shape[:-1], dtype=complex)
    for i, j in _LIVE_BLOCKS:
        block = lam[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        np.multiply(live[i][:, None], live[j][None, :], out=block)
        np.negative(block.swapaxes(0, 1), out=lam[2 * j : 2 * j + 2, 2 * i : 2 * i + 2])
    lam.view(float)[...] *= 0.5  # halve every real and imaginary part
    return _batch_first(lam, 2)


def theta(lam: np.ndarray) -> ThetaBlocks:
    """Reindex the 36 entries of Lambda into the block form of the pipeline.

    Entry-for-entry bijection: block k, slot s reads Lambda[2k + s//6, col]
    minus its transpose partner, i.e. twice the upper value.  The columns
    of block k run from _THETA_SHIFTS[k] round to the one before, so each
    block is two slices of a row and of a column.  Only defined for
    matrices with the Lambda structure (antisymmetric, vanishing 2x2
    diagonal blocks); the blocks' zero slots are those diagonal blocks, so
    `ThetaBlocks` rejects a nonzero one.  lam has shape (6, 6), or
    (..., 6, 6) for a batch.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {lam.shape}")
    m = _batch_last(lam, 2)
    # X' reads the even rows of Lambda and Y' the odd rows.  Each part's
    # buffer first holds its rows of Lambda + Lambda^T for the antisymmetry
    # check.  Exact zeros, the sums of a Lambda built by `lambda_tensor`,
    # pass it without magnitudes; a non-finite entry makes its own sum
    # non-finite.  (Two buffers, not one: the first fits the memory that
    # `embed`'s output frees, so a large batch grows the heap less.)
    parts = [
        np.add(m[p::2], m[:, p::2].swapaxes(0, 1), out=np.empty((3, 6) + m.shape[2:], dtype=complex))
        for p in (0, 1)
    ]
    if parts[0].any() or parts[1].any():
        skew = np.abs(np.concatenate(parts))
        if not np.isfinite(np.max(skew)):
            _require_finite(lam, "lam")
        _bound(
            skew, lambda: np.maximum(1.0, np.abs(lam).max(axis=(-2, -1))), ValueError,
            "matrix is not antisymmetric (residual {:g})", axes=(0, 1),
        )
    for p, part in enumerate(parts):
        for k, shift in enumerate(_THETA_SHIFTS):
            row, partner = m[2 * k + p], m[:, 2 * k + p]
            np.subtract(row[shift:], partner[shift:], out=part[k, : 6 - shift])
            np.subtract(row[:shift], partner[:shift], out=part[k, 6 - shift :])
    x, y = (_batch_first(part, 2) for part in parts)
    return ThetaBlocks(x_blocks=x, y_blocks=y)


def tr1(tb: ThetaBlocks) -> np.ndarray:
    """Partial trace: sum the three X' blocks and keep the 3 live slots.

    The six-component sum X'_1 + X'_2 + X'_3 vanishes in its even slots; the
    returned vector holds slots (1, 3, 5), which equal the pairwise wedge
    scalars (a^b, c^a, b^c) of the original triple.  The Y' blocks sum to a
    vector living in the complementary slots (0, 2, 4) whose three live
    components must be the negative of the X result; a violation raises
    ConsistencyError.  Batched blocks give shape (..., 3).
    """
    x, y = tb.x_blocks, tb.y_blocks
    # added in block order, as a sum over the block axis adds them
    x_sum = x[..., 0, :] + x[..., 1, :] + x[..., 2, :]
    y_sum = y[..., 0, :] + y[..., 1, :] + y[..., 2, :]
    _bound(
        np.maximum(np.abs(x_sum[..., 0::2]), np.abs(y_sum[..., 1::2])), lambda: tb.scale,
        ConsistencyError, "dead slots of the block traces did not cancel (residual {:g})",
    )
    x_live = x_sum[..., 1::2]
    _bound(
        np.abs(y_sum[..., 0::2] + x_live), lambda: tb.scale, ConsistencyError,
        "Y-block trace is not the negative of the X-block trace (residual {:g})",
    )
    return x_live


def collapse(a, b, c):
    """Run the full pipeline and project to a scalar.

    The projection sums the three components of the partial trace (the
    rank-1 quotient map that kills the degenerate directions (0,1,-1) and
    (1,0,-1)); the result equals det(b-a, c-a).  Single states give a
    Python complex; batched states an array over the leading axes.
    """
    return _unbatched(tr1(theta(lambda_tensor(a, b, c))).sum(axis=-1))


def collapse_with_morphism(a, b, c, sigma):
    """Collapse after applying a 2x2 morphism to each state.

    Equals det(sigma) * collapse(a, b, c).  sigma has shape (2, 2), or
    (..., 2, 2) broadcasting against the states' leading axes.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape[-2:] != (2, 2):
        raise ValueError(f"morphism must be 2x2, got shape {sigma.shape}")
    _require_finite(sigma, "sigma")
    # matmul keeps the bits of the single (2, 2) @ (2,) product; einsum does not.
    moved = [
        (sigma @ _as_state(v, name)[..., None])[..., 0]
        for v, name in ((a, "a"), (b, "b"), (c, "c"))
    ]
    return collapse(*moved)


def _basis_sum(terms):
    """Sum over terms of det(first triple) * det(second triple), in term order.

    Every triple of every term goes through one affine_det call.
    """
    points = [p for term in terms for triple in term for p in triple]
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    pts = np.empty(lead + (len(points), 2), dtype=complex)
    for i, p in enumerate(points):
        pts[..., i, :] = p
    dets = affine_det(pts.reshape(lead + (len(terms), 2, 3, 2)))
    # _cmul, not `*`, keeps the bits of the Python complex product.
    products = _cmul(dets[..., 0], dets[..., 1])
    total = np.zeros(dets.shape[:-2], dtype=complex)
    for t in range(len(terms)):
        total = total + products[..., t]
    return _unbatched(total)


def rho_trace_A(b, c, b_prime, c_prime):
    """Partial trace over the first slot: two-term sum over the basis of C^2.

    Tr_A(b, c; b', c') = sum over basis a of det(b-a, c-a) det(b'-a, c'-a).
    Batched states give an array over their broadcast leading axes.
    """
    b, c = _as_state(b, "b"), _as_state(c, "c")
    bp, cp = _as_state(b_prime, "b_prime"), _as_state(c_prime, "c_prime")
    return _basis_sum([((a, b, c), (a, bp, cp)) for a in BASIS_2D])


def rho_trace_AC(b, b_prime):
    """Partial trace over the first and third slots: four-term basis sum.

    Tr_AC(b; b') = sum over basis a, c of det(b-a, c-a) det(b'-a, c-a).
    Vanishes whenever both arguments are computational-basis vectors; for
    general arguments it equals 2 (b1+b2-1)(b'1+b'2-1).  Batched states give
    an array over their broadcast leading axes.
    """
    b, bp = _as_state(b, "b"), _as_state(b_prime, "b_prime")
    return _basis_sum([((a, b, c), (a, bp, c)) for a in BASIS_2D for c in BASIS_2D])
