"""Collapse of a pairwise-entangled fermion triple to the affine determinant.

Three distinguishable spin-1/2 states a, b, c in C^2 are embedded into
disjoint blocks of C^6, combined into the antisymmetric tensor

    Lambda = a'^b' + b'^c' + c'^a'   (36 complex entries),

reindexed into three 12-component blocks, partially traced to a vector in
C^3, and finally projected onto a scalar that equals det(b-a, c-a).  The
module also provides the covariance of the pipeline under a 2x2 morphism
applied to all three states, and the partial traces of the rank-1 state
built from two copies of the affine determinant.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# k takes rows (2k, 2k+1).  Generated once from the closed form of the
# reindexation and pinned by the unit tests.
_THETA_COLS = (
    (2, 3, 4, 5, 0, 1),
    (0, 1, 2, 3, 4, 5),
    (4, 5, 0, 1, 2, 3),
)

# Slots of each X'/Y' block that are structurally zero.
_ZERO_SLOTS = ((4, 5), (2, 3), (0, 1))


class ConsistencyError(RuntimeError):
    """An internal invariant of the pipeline failed."""


@dataclass(frozen=True)
class EmbeddedTriple:
    """The three states pushed into disjoint 2-blocks of C^6."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class ThetaBlocks:
    """Reindexed form of Lambda: three X' blocks and three Y' blocks in C^6.

    Block k carries zeros in its structural slots (4-5 for block 1, 2-3 for
    block 2, 0-1 for block 3).
    """

    x_blocks: np.ndarray  # shape (3, 6)
    y_blocks: np.ndarray  # shape (3, 6)

    def __post_init__(self):
        for name, blocks in (("x", self.x_blocks), ("y", self.y_blocks)):
            if np.asarray(blocks).shape != (3, 6):
                raise ValueError(f"{name}_blocks must have shape (3, 6)")
        scale = max(
            1.0, float(np.abs(self.x_blocks).max()), float(np.abs(self.y_blocks).max())
        )
        for blocks in (self.x_blocks, self.y_blocks):
            for k, slots in enumerate(_ZERO_SLOTS):
                bad = np.abs(blocks[k, list(slots)]).max()
                if bad > 1e-12 * scale:
                    raise ValueError(
                        f"block {k + 1} must vanish in slots {slots}; got residual {bad:g}"
                    )


def _as_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected a vector in C^2, got shape {v.shape}")
    return v


def embed(a, b, c) -> EmbeddedTriple:
    """Embed a, b, c in C^2 into slots (0-1), (2-3), (4-5) of C^6."""
    a, b, c = _as_state(a), _as_state(b), _as_state(c)
    out = []
    for block, v in enumerate((a, b, c)):
        w = np.zeros(6, dtype=complex)
        w[2 * block : 2 * block + 2] = v
        out.append(w)
    return EmbeddedTriple(*out)


def lambda_tensor(a, b, c) -> np.ndarray:
    """The antisymmetric tensor a'^b' + b'^c' + c'^a' as a 6x6 matrix.

    u^v means the antisymmetrized product (u (x) v - v (x) u) / 2.
    """
    e = embed(a, b, c)
    raw = (
        np.outer(e.a, e.b)
        + np.outer(e.b, e.c)
        + np.outer(e.c, e.a)
    )
    return (raw - raw.T) / 2.0


def theta(lam: np.ndarray) -> ThetaBlocks:
    """Reindex the 36 entries of Lambda into the block form of the pipeline.

    Entry-for-entry bijection: block k, slot s reads Lambda[2k + s//6, col]
    minus its transpose partner, i.e. twice the upper value.  Only defined
    for matrices with the Lambda structure (antisymmetric, vanishing 2x2
    diagonal blocks).
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {lam.shape}")
    scale = max(1.0, float(np.abs(lam).max()))
    skew = np.abs(lam + lam.T).max()
    if skew > 1e-12 * scale:
        raise ValueError(f"matrix is not antisymmetric (residual {skew:g})")
    for k in range(3):
        diag = np.abs(lam[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]).max()
        if diag > 1e-12 * scale:
            raise ValueError(
                f"diagonal block {k} is nonzero (residual {diag:g}); "
                "not the tensor of an embedded triple"
            )
    x = np.empty((3, 6), dtype=complex)
    y = np.empty((3, 6), dtype=complex)
    for k, cols in enumerate(_THETA_COLS):
        x[k] = lam[2 * k, cols] - lam[cols, 2 * k]
        y[k] = lam[2 * k + 1, cols] - lam[cols, 2 * k + 1]
    return ThetaBlocks(x_blocks=x, y_blocks=y)


def tr1(tb: ThetaBlocks) -> np.ndarray:
    """Partial trace: sum the three X' blocks and keep the 3 live slots.

    The six-component sum X'_1 + X'_2 + X'_3 vanishes in its even slots; the
    returned vector holds slots (1, 3, 5), which equal the pairwise wedge
    scalars (a^b, c^a, b^c) of the original triple.  The Y' blocks sum to a
    vector living in the complementary slots (0, 2, 4) whose three live
    components must be the negative of the X result; a violation raises
    ConsistencyError.
    """
    x_sum = tb.x_blocks.sum(axis=0)
    y_sum = tb.y_blocks.sum(axis=0)
    scale = max(1.0, float(np.abs(tb.x_blocks).max()), float(np.abs(tb.y_blocks).max()))
    dead = max(np.abs(x_sum[[0, 2, 4]]).max(), np.abs(y_sum[[1, 3, 5]]).max())
    if dead > 1e-12 * scale:
        raise ConsistencyError(
            f"dead slots of the block traces did not cancel (residual {dead:g})"
        )
    x_live = x_sum[[1, 3, 5]]
    y_live = y_sum[[0, 2, 4]]
    mismatch = np.abs(y_live + x_live).max()
    if mismatch > 1e-12 * scale:
        raise ConsistencyError(
            f"Y-block trace is not the negative of the X-block trace "
            f"(residual {mismatch:g})"
        )
    return x_live.copy()


def collapse(a, b, c) -> complex:
    """Run the full pipeline and project to a scalar.

    The projection sums the three components of the partial trace (the
    rank-1 quotient map that kills the degenerate directions (0,1,-1) and
    (1,0,-1)); the result equals det(b-a, c-a).
    """
    return complex(tr1(theta(lambda_tensor(a, b, c))).sum())


def collapse_with_morphism(a, b, c, sigma) -> complex:
    """Collapse after applying a 2x2 morphism to each state.

    Equals det(sigma) * collapse(a, b, c).
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (2, 2):
        raise ValueError(f"morphism must be 2x2, got shape {sigma.shape}")
    return collapse(sigma @ _as_state(a), sigma @ _as_state(b), sigma @ _as_state(c))


def rho_trace_A(b, c, b_prime, c_prime) -> complex:
    """Partial trace over the first slot: two-term sum over the basis of C^2.

    Tr_A(b, c; b', c') = sum over basis a of det(b-a, c-a) det(b'-a, c'-a).
    """
    b, c = _as_state(b), _as_state(c)
    bp, cp = _as_state(b_prime), _as_state(c_prime)
    total = 0.0 + 0.0j
    for a in BASIS_2D:
        total += affine_det([a, b, c]) * affine_det([a, bp, cp])
    return complex(total)


def rho_trace_AC(b, b_prime) -> complex:
    """Partial trace over the first and third slots: four-term basis sum.

    Tr_AC(b; b') = sum over basis a, c of det(b-a, c-a) det(b'-a, c-a).
    Vanishes whenever both arguments are computational-basis vectors; for
    general arguments it equals 2 (b1+b2-1)(b'1+b'2-1).
    """
    b, bp = _as_state(b), _as_state(b_prime)
    total = 0.0 + 0.0j
    for a in BASIS_2D:
        for c in BASIS_2D:
            total += affine_det([a, b, c]) * affine_det([a, bp, c])
    return complex(total)
