"""Collapse of a pairwise-entangled fermion triple to the affine determinant.

Three distinguishable spin-1/2 states a, b, c in C^2 are embedded into
disjoint blocks of C^6, combined into the antisymmetric tensor

    Lambda = a'^b' + b'^c' + c'^a'   (36 complex entries),

reindexed into three 12-component blocks, partially traced to a vector in
C^3, and finally projected onto a scalar that equals det(b-a, c-a).  The
module also provides the covariance of the pipeline under a 2x2 morphism
applied to all three states, and the partial traces of the rank-1 state
built from two copies of the affine determinant.

Every product and 2x2 determinant is `_cmul` or `_wedge2`, in `_products`' order.
All functions are pure; inputs are never mutated.  Each one also takes a
batch: leading axes in front of its per-triple shape.  A single triple is
the case without leading axes and gets the same arithmetic, bit for bit.
The pipeline stages store a batch with its leading axes last, so each numpy
call runs along the whole batch; they return views in the documented
(..., 6), (..., 6, 6) and (..., 3, 6) shapes.  `collapse` runs them on
blocks of 256 rows, so a batch holds its output plus one block.  Lambda is
built from its three live 2x2 blocks, and every structural check computes
its scale only when a residual exceeds 1e-12 (no smaller one can break a
bound relative to max(1, ...)).  Lambda's blocks are placed, and X' and Y'
read, through index tables built at import from `_LIVE_BLOCKS` and `_THETA_COLS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._products import _cmul, _unbatched, _wedge2

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
# theta's gather tables, (2, 3, 1) and (3, 6): X' (p = 0) and Y' (p = 1) slot (p, k, s) reads Lambda[2k + p, col]
_THETA_ROWS = 2 * np.arange(3)[:, None] + np.arange(2)[:, None, None]
_THETA_INDEX = np.array(_THETA_COLS)

# Slots of each X'/Y' block that are structurally zero: those that read
# Lambda's own 2x2 diagonal block, (4, 5), (2, 3) and (0, 1).
_ZERO_SLOTS = [tuple(s for s, col in enumerate(cols) if col // 2 == k) for k, cols in enumerate(_THETA_COLS)]
_ZERO_INDEX = (..., np.array([[0], [1], [2]]), np.array(_ZERO_SLOTS))

# Lambda's live 2x2 blocks (row block, column block): a'^b', b'^c' and c'^a'.
# The rest of Lambda is their negated transposes and zeros.
_LIVE_BLOCKS = ((0, 1), (1, 2), (2, 0))
# _lambda's scatter tables, (3, 2, 1) and (3, 1, 2): entry (r, c) of block (i, j) sits at Lambda[2i + r, 2j + c]
_LIVE_ROWS = 2 * np.array(_LIVE_BLOCKS)[:, :1, None] + np.arange(2)[:, None]
_LIVE_COLS = 2 * np.array(_LIVE_BLOCKS)[:, None, 1:] + np.arange(2)

# Relative bound of every structural-zero and consistency check.
_REL_TOL = 1e-12

_BLOCK_ROWS = 256  # rows per block of `collapse`; Lambda and Theta take 1152 B a row


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
    break it too.  The rows are the call's: `collapse` checks block by block,
    so it names the worst row of the first block that fails.
    """
    if np.max(residual, initial=0.0) <= _REL_TOL:
        return
    residual = np.max(residual, axis=axes)
    scale = scale()
    bad = ~(residual <= _REL_TOL * scale)
    if bad.any():
        worst = np.argmax(np.where(bad, residual / scale, -np.inf))
        raise error(message.format(np.reshape(residual, -1)[worst]))


def _batch_last(x: np.ndarray, ndim: int) -> np.ndarray:
    """x with its last ndim axes moved to the front: the stages' storage order."""
    lead = x.ndim - ndim
    return x.transpose((*range(lead, x.ndim), *range(lead)))


def _batch_first(x: np.ndarray, ndim: int) -> np.ndarray:
    """Inverse of `_batch_last`: the first ndim axes moved to the back."""
    return x.transpose((*range(ndim, x.ndim), *range(ndim)))


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
                zeros[..., k, :], lambda: self._scale, ValueError,
                f"block {k + 1} must vanish in slots {slots}; got residual {{:g}}",
            )

    @cached_property
    def _scale(self) -> np.ndarray:
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
    return _embed(_as_state(a, "a"), _as_state(b, "b"), _as_state(c, "c"))


def _embed(a, b, c) -> EmbeddedTriple:
    """`embed` of states that `_as_state` has already checked."""
    states = np.broadcast_arrays(a, b, c)
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
    stay zero.  The three blocks' outer products are one stacked `_cmul`,
    placed with their negatives by two scatters.  Batched states give shape (..., 6, 6).
    """
    return _lambda(embed(a, b, c))


def _lambda(e: EmbeddedTriple) -> np.ndarray:
    """`lambda_tensor` of an embedded triple."""
    live = np.stack([_batch_last(v, 1)[2 * i : 2 * i + 2] for i, v in enumerate((e.a, e.b, e.c))])
    # block k is live[k] (x) live[j] with j its column block: rows 0, 1, 2 in order
    products = _cmul(live[:, :, None], live[[j for _, j in _LIVE_BLOCKS], None, :])
    products.view(float)[...] *= 0.5  # halve every real and imaginary part
    lam = np.zeros((6, 6) + e.a.shape[:-1], dtype=complex)
    lam[_LIVE_ROWS, _LIVE_COLS] = products
    lam[_LIVE_COLS, _LIVE_ROWS] = np.negative(products, out=products)
    return _batch_first(lam, 2)


def theta(lam: np.ndarray) -> ThetaBlocks:
    """Reindex the 36 entries of Lambda into the block form of the pipeline.

    Entry-for-entry bijection: slot s of X' block k reads Lambda[2k, col]
    and of Y' block k Lambda[2k + 1, col], col = _THETA_COLS[k][s], minus
    its transpose partner, i.e. twice the upper value.  The entries are one
    gather through `_THETA_ROWS` and `_THETA_INDEX`, and their partners are
    read with the tables swapped.  Only defined for matrices with the Lambda
    structure (antisymmetric, vanishing 2x2 diagonal blocks); the blocks'
    zero slots are those diagonal blocks, so `ThetaBlocks` rejects a
    nonzero one.  lam has shape (6, 6), or (..., 6, 6) for a batch.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {lam.shape}")
    m = _batch_last(lam, 2)
    # Exact zeros, the sums of a Lambda built by `lambda_tensor`, pass the
    # antisymmetry check without magnitudes; a non-finite entry makes its
    # own sum non-finite.
    if (m + m.swapaxes(0, 1)).any():
        skew = np.abs(m + m.swapaxes(0, 1))
        if not np.isfinite(np.max(skew)):
            _require_finite(lam, "lam")
        _bound(
            skew, lambda: np.maximum(1.0, np.abs(lam).max(axis=(-2, -1))), ValueError,
            "matrix is not antisymmetric (residual {:g})", axes=(0, 1),
        )
    parts = m[_THETA_ROWS, _THETA_INDEX]  # (2, 3, 6, ...): X' then Y'
    for part, rows in zip(parts, _THETA_ROWS):  # by halves: one full-size gather would set a block's peak memory
        part -= m[_THETA_INDEX, rows]
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
        np.maximum(np.abs(x_sum[..., 0::2]), np.abs(y_sum[..., 1::2])), lambda: tb._scale,
        ConsistencyError, "dead slots of the block traces did not cancel (residual {:g})",
    )
    x_live = x_sum[..., 1::2]
    _bound(
        np.abs(y_sum[..., 0::2] + x_live), lambda: tb._scale, ConsistencyError,
        "Y-block trace is not the negative of the X-block trace (residual {:g})",
    )
    return x_live


def collapse(a, b, c):
    """Run the full pipeline and project to a scalar.

    The projection sums the three components of the partial trace (the
    rank-1 quotient map that kills the degenerate directions (0,1,-1) and
    (1,0,-1)); the result equals det(b-a, c-a).  Single states give a
    Python complex; batched states an array over the leading axes, run
    through the stages `_BLOCK_ROWS` rows of the flattened axes at a time.
    """
    return _collapse_blocks(a, b, c, None)


def collapse_with_morphism(a, b, c, sigma):
    """Collapse after applying a 2x2 morphism to each state.

    Equals det(sigma) * collapse(a, b, c).  sigma has shape (2, 2), or
    (..., 2, 2) broadcasting against the states' leading axes.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape[-2:] != (2, 2):
        raise ValueError(f"morphism must be 2x2, got shape {sigma.shape}")
    _require_finite(sigma, "sigma")
    return _collapse_blocks(a, b, c, sigma)


def _collapse_blocks(a, b, c, sigma):
    """collapse(sigma a, sigma b, sigma c), or collapse(a, b, c) if sigma is None, by row blocks."""
    states = [_as_state(v, name) for v, name in ((a, "a"), (b, "b"), (c, "c"))]
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in states), () if sigma is None else sigma.shape[:-2])
    # Gathered per block: flattening a view broadcast on some axes would copy it whole.
    shape = lead or (1,)
    views = [np.broadcast_to(v, shape + v.shape[-1:]) for v in states]
    views += [] if sigma is None else [np.broadcast_to(sigma, shape + (2, 2))]
    out = np.empty(np.prod(shape, dtype=int), dtype=complex)
    for start in range(0, len(out), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        a, b, c, *m = (v[np.unravel_index(np.arange(*rows.indices(len(out))), shape)] for v in views)
        if m:
            # (sigma v)_i = sigma_i0 v_0 + sigma_i1 v_1, for i = 0, 1 at once
            a, b, c = (_cmul(m[0][..., 0], v[:, None, 0]) + _cmul(m[0][..., 1], v[:, None, 1]) for v in (a, b, c))
        # the states were checked once, above; theta and ThetaBlocks still check every block
        out[rows] = tr1(theta(_lambda(_embed(a, b, c)))).sum(axis=-1)
    return _unbatched(out.reshape(lead))


def _basis_sum(terms):
    """Sum over terms of det(first triple) * det(second triple), in term order."""
    dets = ([_wedge2(b - a, c - a) for a, b, c in term] for term in terms)
    return _unbatched(sum(_cmul(first, second) for first, second in dets))


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
