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
the same arithmetic, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# k takes row 2k for X' and row 2k+1 for Y'.  Generated once from the closed
# form of the reindexation and pinned by the unit tests.
_THETA_COLS = np.array([
    (2, 3, 4, 5, 0, 1),
    (0, 1, 2, 3, 4, 5),
    (4, 5, 0, 1, 2, 3),
])
_THETA_ROWS = np.array([[0], [2], [4]])

# Slots of each X'/Y' block that are structurally zero: those that read
# Lambda's own 2x2 diagonal block, (4, 5), (2, 3) and (0, 1).
_ZERO_SLOTS = [tuple(s for s, col in enumerate(cols) if col // 2 == k) for k, cols in enumerate(_THETA_COLS.tolist())]

# Relative bound of every structural-zero and consistency check.
_REL_TOL = 1e-12


class ConsistencyError(RuntimeError):
    """An internal invariant of the pipeline failed."""


def _require_finite(x, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")


def _bound(residual, scale, error, message: str) -> None:
    """Raise error(message) unless residual <= 1e-12 * scale in every row.

    residual and scale hold one value per row of the batch.  The message is
    formatted with the residual of the row that breaks its bound by the
    largest factor; `not <=` makes a NaN residual break it too.
    """
    bad = ~(residual <= _REL_TOL * scale)
    if bad.any():
        worst = np.argmax(np.where(bad, residual / scale, -np.inf))
        raise error(message.format(np.reshape(residual, -1)[worst]))


def _unbatched(z):
    """A Python complex for a single input; the array over the batch otherwise."""
    return complex(z) if np.ndim(z) == 0 else z


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
    block axes; `scale` holds max(1, |X'|max, |Y'|max) per row.
    """

    x_blocks: np.ndarray  # shape (..., 3, 6)
    y_blocks: np.ndarray  # shape (..., 3, 6)
    scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, blocks in (("x", self.x_blocks), ("y", self.y_blocks)):
            if np.shape(blocks)[-2:] != (3, 6):
                raise ValueError(
                    f"{name}_blocks must have shape (..., 3, 6), got {np.shape(blocks)}"
                )
            _require_finite(blocks, f"{name}_blocks")
        if np.shape(self.x_blocks) != np.shape(self.y_blocks):
            raise ValueError("x_blocks and y_blocks must have the same shape")
        peaks = [np.abs(blocks).max(axis=(-2, -1)) for blocks in (self.x_blocks, self.y_blocks)]
        object.__setattr__(self, "scale", np.maximum(1.0, np.maximum(*peaks)))
        for k, slots in enumerate(_ZERO_SLOTS):
            zeros = np.concatenate([self.x_blocks[..., k, slots], self.y_blocks[..., k, slots]], axis=-1)
            _bound(
                np.abs(zeros).max(axis=-1), self.scale, ValueError,
                f"block {k + 1} must vanish in slots {slots}; got residual {{:g}}",
            )


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
    out = []
    for block, v in enumerate(states):
        w = np.zeros(v.shape[:-1] + (6,), dtype=complex)
        w[..., 2 * block : 2 * block + 2] = v
        out.append(w)
    return EmbeddedTriple(*out)


def lambda_tensor(a, b, c) -> np.ndarray:
    """The antisymmetric tensor a'^b' + b'^c' + c'^a' as a 6x6 matrix.

    u^v means the antisymmetrized product (u (x) v - v (x) u) / 2.  Batched
    states give shape (..., 6, 6).
    """
    e = embed(a, b, c)
    raw = (
        e.a[..., :, None] * e.b[..., None, :]
        + e.b[..., :, None] * e.c[..., None, :]
        + e.c[..., :, None] * e.a[..., None, :]
    )
    return (raw - np.swapaxes(raw, -1, -2)) / 2.0


def theta(lam: np.ndarray) -> ThetaBlocks:
    """Reindex the 36 entries of Lambda into the block form of the pipeline.

    Entry-for-entry bijection: block k, slot s reads Lambda[2k + s//6, col]
    minus its transpose partner, i.e. twice the upper value.  Only defined
    for matrices with the Lambda structure (antisymmetric, vanishing 2x2
    diagonal blocks); the blocks' zero slots are those diagonal blocks, so
    `ThetaBlocks` rejects a nonzero one.  lam has shape (6, 6), or
    (..., 6, 6) for a batch.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {lam.shape}")
    _require_finite(lam, "lam")
    scale = np.maximum(1.0, np.abs(lam).max(axis=(-2, -1)))
    skew = np.abs(lam + np.swapaxes(lam, -1, -2)).max(axis=(-2, -1))
    _bound(skew, scale, ValueError, "matrix is not antisymmetric (residual {:g})")
    x = lam[..., _THETA_ROWS, _THETA_COLS] - lam[..., _THETA_COLS, _THETA_ROWS]
    y = lam[..., _THETA_ROWS + 1, _THETA_COLS] - lam[..., _THETA_COLS, _THETA_ROWS + 1]
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
    x_sum = tb.x_blocks.sum(axis=-2)
    y_sum = tb.y_blocks.sum(axis=-2)
    dead = np.maximum(np.abs(x_sum[..., 0::2]).max(axis=-1), np.abs(y_sum[..., 1::2]).max(axis=-1))
    _bound(
        dead, tb.scale, ConsistencyError,
        "dead slots of the block traces did not cancel (residual {:g})",
    )
    x_live = x_sum[..., 1::2]
    y_live = y_sum[..., 0::2]
    mismatch = np.abs(y_live + x_live).max(axis=-1)
    _bound(
        mismatch, tb.scale, ConsistencyError,
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
    points = np.broadcast_arrays(*(p for term in terms for triple in term for p in triple))
    pts = np.stack(points, axis=-2).reshape(points[0].shape[:-1] + (len(terms), 2, 3, 2))
    dets = affine_det(pts)
    total = np.zeros(dets.shape[:-2], dtype=complex)
    for t in range(len(terms)):
        # _cmul, not `*`, keeps the bits of the Python complex product.
        total = total + _cmul(dets[..., t, 0], dets[..., t, 1])
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
