"""Every product helper of the package, each summed in one fixed order.

The rule: a helper forms its products with `*` on real arrays, elementwise,
a complex one from real and imaginary parts (`_cmul`), and adds them in an
order that its code fixes, term by term or pairwise along one contiguous
row.  It calls no BLAS or LAPACK function, and numpy's complex multiply,
which fuses multiply-adds or not by SIMD target, only as `_cmul`'s 1j times
a real array, where fusing moves no bit.  No batch axis reorders a sum.
The reason: the pinned reports, kernels and digests need bits that
depend neither on the BLAS kernel nor on numpy's SIMD target, and
`collapse`'s row blocks and `verify`'s batches need each batch member to
get the bits of its own call.  Inputs that no step rounds, such as Gaussian
integers, give exact results.

Two wedges u_1 v_2 - u_2 v_1 stay side by side, `_wedge2` of complex arrays
and `_wedge` of real ones: on real input `_wedge2` is complex, and its real
part can differ from `_wedge`'s in the sign of a zero, which the exported
kernels spell.
"""

from __future__ import annotations

import numpy as np


def _unbatched(z):
    """A Python complex for a single input; the array over the batch otherwise."""
    return complex(z) if np.ndim(z) == 0 else z


def _cmul(u, v):
    """u * v, complex: the scalar complex product bit for bit, up to the sign of a zero real or imaginary part."""
    return (u.real * v.real - u.imag * v.imag) + 1j * (u.real * v.imag + u.imag * v.real)


def _wedge2(u, v):
    """u_1 v_2 - u_2 v_1 over the last axis of complex arrays; det(b-a, c-a) is _wedge2(b - a, c - a)."""
    return _cmul(u[..., 0], v[..., 1]) - _cmul(u[..., 1], v[..., 0])


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_1 v_2 - u_2 v_1 over the last axis of two broadcasting real arrays."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _kron(a, b):
    """The Kronecker product of two complex matrices, one `_cmul` product per entry."""
    (m, n), (p, q) = a.shape, b.shape
    return _cmul(a[:, None, :, None], b[None, :, None, :]).reshape(m * p, n * q)


def _cmatmul(a, b):
    """The complex matrix product a b over the last two axes, each entry a row of `_cmul` products summed pairwise."""
    return np.add.reduce(_cmul(a[..., :, None, :], b.swapaxes(-1, -2)[..., None, :, :]), axis=-1)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real a b over the last two axes: outer products of a's columns and b's rows, added in order; for small blocks."""
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., k, None, :]
    return out


def _weighted_sums(weights: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_k w_k x_k along each row x of `columns` (..., n, K), with weights (..., K): (..., n).

    `columns`, a C-contiguous array of the caller's, is overwritten with the products.
    """
    return np.add.reduce(np.multiply(columns, weights[..., None, :], out=columns), axis=-1)


def _symmetric_form(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows M rows^T for rows (..., n, 3) and a symmetric M (..., 3, 3): (..., n, n), exactly symmetric.

    M = C + C^T, where C is M's upper triangle with its diagonal halved, so
    rows M rows^T = H + H^T with H = (rows C) rows^T.  Entries [p, q] and
    [q, p] add the same two floats, H[p, q] and H[q, p], so the result is
    symmetric bit for bit.  rows C is summed term by term over a <= b, and H
    over the three columns.  H is linear in each row, so negating row p of
    `rows` negates row and column p of the result exactly.
    """
    r = [rows[..., a] for a in range(3)]
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = ([m[..., a, b, None] for b in range(3)] for a in range(3))
    # the columns of rows C, each summed over a <= b in order of a
    u = [0.5 * m00 * r[0], m01 * r[0] + 0.5 * m11 * r[1], m02 * r[0] + m12 * r[1] + 0.5 * m22 * r[2]]
    half = np.multiply(u[0][..., :, None], r[0][..., None, :])
    term = np.empty_like(half)
    for b in (1, 2):
        half += np.multiply(u[b][..., :, None], r[b][..., None, :], out=term)
    return np.add(half, np.swapaxes(half, -1, -2), out=term)
