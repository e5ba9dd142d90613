"""Affine Slater determinants over a finite weighted node set.

A measured space is a finite set of nodes x_k with positive weights w_k
summing to 1; a wave function assigns d = 2 real components to each node.
The wave function of three particles is the affine determinant

    Psi(x_0, x_1, x_2) = det(phi(x_1) - phi(x_0), phi(x_2) - phi(x_0)),

and integrals are exact weighted sums over nodes.  Psi(a, x1, x2) is
affine in each node, so it factors through three coordinates:

    Psi(a, x1, x2) = F(x1, x2) . (1, a),
    F(x1, x2) = [x1 ^ x2, (x1 - x2)_2, -(x1 - x2)_1],

with u ^ v = u_1 v_2 - u_2 v_1.  Every weighted sum then reduces to the 3x3
moment matrix M = sum_a w_a (1, a)(1, a)^T and the pair moment
N = sum_{x1, x2} w w F^T F = 2 adj(M): gamma2 = F M F^T, the order-1 kernel
is f N f^T with f = (1, phi) and <Psi^2> = <M, N>.  <Psi> = sum_{x1, x2}
w w F(x1, x2) . M[0], which vanishes by antisymmetry, is
`Gamma2Factors.mean_psi`'s sum over node pairs.  The K x K x K tensor of
Psi values is never built.

`gamma2_factors(phi, space)` is the one front door: it validates phi,
centres it and forms M.  Its result carries the weights too, and every
moment, kernel and whitening is a method of it, which the `(phi, space)`
wrappers `two_point`, `gamma1` and `gamma2` read too; `m_identity_sides`
takes it with one table per node set.  A space and phi with leading axes
are a stack of node sets of one size, each getting the bits of its own call.

Kernel assembly uses fixed summation order, so results are reproducible
bit-for-bit for a given input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .json_io import number_array

__all__ = [
    "MeasuredSpace",
    "two_point",
    "gamma1",
    "gamma2",
    "Gamma2Factors",
    "gamma2_factors",
    "m_identity_sides",
    "MAX_DENSE_KERNEL_NODES",
    "MAX_PHI",
    "node_set_from_json",
]

# The dense gamma2 (and its export) is a K^2 x K^2 matrix; beyond this many
# nodes use the factors, whose entries cost O(1) each.
MAX_DENSE_KERNEL_NODES = 32

# How far the weights may sum from 1.
WEIGHT_SUM_ATOL = 1e-10

# Largest det G / (tr G)^2 = l_min l_max / (l_min + l_max)^2 of the centred Gram
# matrix at which `Gamma2Factors.whitened` rejects the components as dependent;
# here it is l_min / l_max to 12 digits.  Rounding leaves dependent sets near 1e-16.
WHITEN_RTOL = 1e-12

# Largest |phi| entry accepted from JSON input.  The moments and both
# kernels are homogeneous of degree 4 in phi, with sums below 10^3 max|phi|^4,
# which stays inside the float range up to here.
MAX_PHI = 1e75


class MeasuredSpace:
    """Finite weighted node set (x_k, w_k) with w_k > 0 and sum w_k = 1.

    Nodes are the indices 0..K-1.  Weights (..., K) with leading axes are a
    stack of node sets of one size K; the first rule that fails raises,
    naming the first bad set's sum.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim == 0 or w.shape[-1] < 2:
            raise ValueError("need at least two weighted nodes")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        totals = w.sum(axis=-1)
        bad = np.abs(totals - 1.0) > WEIGHT_SUM_ATOL
        if bad.any():
            raise ValueError(f"weights must sum to 1, got {float(totals[bad].flat[0])!r}")
        self.weights = w

    @classmethod
    def uniform(cls, k: int) -> "MeasuredSpace":
        # k < 2 gives fewer than two weights, which __init__ rejects
        return cls(np.full(max(k, 0), 1.0 / max(k, 1)))

    def __len__(self) -> int:
        return self.weights.shape[-1]  # K nodes per set


def node_set_from_json(doc) -> tuple:
    """(MeasuredSpace, phi) from {"weights": [w_k], "phi": [[phi_1, phi_2], ...]}.

    weights is a list of JSON numbers and phi holds one row of two JSON
    numbers per weight, each finite and at most MAX_PHI in magnitude; a
    bool is not a number.  Anything else raises ValueError naming the field.
    """
    try:
        weights, phi = doc["weights"], doc["phi"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"input must carry 'weights' and 'phi': {exc}") from exc
    weights = number_array(weights, "weights")
    if weights.ndim != 1:
        raise ValueError(f"weights must be a list of numbers, got shape {weights.shape}")
    space = MeasuredSpace(weights)
    phi = number_array(phi, "phi")
    if phi.shape != (len(space), 2):
        raise ValueError(f"phi must have {len(space)} rows of 2 entries, got shape {phi.shape}")
    if not np.all(np.abs(phi) <= MAX_PHI):
        raise ValueError(f"phi entries must be finite and at most {MAX_PHI:g} in magnitude")
    return space, phi


def _psi_tensor(values: np.ndarray) -> np.ndarray:
    """Psi over all node triples as a K x K x K array; the tests' reference."""
    d1 = values[None, :, 0] - values[:, None, 0]  # phi_1(q) - phi_1(p)
    d2 = values[None, :, 1] - values[:, None, 1]
    return np.einsum("ij,ik->ijk", d1, d2) - np.einsum("ik,ij->ijk", d1, d2)


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u ^ v = u_1 v_2 - u_2 v_1 over the last axis of two broadcasting arrays."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _pair_rows(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """F(x1, x2) = [x1 ^ x2, (x1 - x2)_2, -(x1 - x2)_1] along a new last axis.

    `first` and `second` broadcast against each other and carry the two
    components on their last axis.  Equal nodes give an exactly zero row.
    """
    diff = first - second
    return np.stack([_wedge(first, second), diff[..., 1], -diff[..., 0]], axis=-1)


def _lift(values: np.ndarray) -> np.ndarray:
    """Affine coordinates (1, phi) of every node, (..., K, 3)."""
    return np.concatenate([np.ones(values.shape[:-1] + (1,)), values], axis=-1)


class Gamma2Factors(NamedTuple):
    """The centred components of a node set, their moment matrix M and the weights.

    M = sum_a w_a (1, a)(1, a)^T over the centred nodes a, so M[1:, 1:] is
    the centred Gram matrix G.  Every moment and kernel of the module is
    read from these O(K) numbers: <Psi^2> = <M, N>, det G, gamma1 =
    f N f^T / 2 - det G and gamma2 = F M F^T.  `entry` costs O(1); `dense`
    and `pair_expansion` build K^2 x K^2 matrices, up to
    MAX_DENSE_KERNEL_NODES nodes.

    A stack from `gamma2_factors`, values (..., K, 2), moments (..., 3, 3)
    and weights (..., K), is answered per node set by every method but
    `entry`, which takes one node set.
    """

    values: np.ndarray  # (..., K, 2) centred components
    moments: np.ndarray  # (..., 3, 3) M
    weights: np.ndarray  # (..., K) w

    @property
    def gram(self) -> np.ndarray:
        """The centred Gram matrix <phi~_i phi~_j>, M[1:, 1:]."""
        return self.moments[..., 1:, 1:]

    def pair_moments(self) -> np.ndarray:
        """N = sum_{x1, x2} w w F(x1, x2)^T F(x1, x2) = 2 adj(M).

        Each entry of N is a sum of products of one first or second moment
        of x1 and one of x2, which are the entries of M; collected, they are
        twice the cofactors of M.  Built from the upper triangle of M, so N
        is exactly symmetric.
        """
        m = self.moments
        a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
        d, e, f = m[..., 1, 1], m[..., 1, 2], m[..., 2, 2]
        n01, n02, n12 = c * e - b * f, b * e - c * d, b * c - a * e
        cofactors = [d * f - e * e, n01, n02, n01, a * f - c * c, n12, n02, n12, a * d - b * b]
        return 2.0 * np.stack(cofactors, axis=-1).reshape(m.shape)

    def two_point(self) -> np.ndarray:
        """Triple-weighted mean of Psi^2, <M, N>.

        Equals 6 det G; in particular 6 when the components are centred and
        orthonormal.
        """
        return np.sum(self.moments * self.pair_moments(), axis=(-2, -1))

    def mean_psi(self) -> np.ndarray:
        """<Psi>: sum_{x1, x2} w w F(x1, x2) . M[0] over the K^2 node pairs, 0 up to rounding."""
        w = self.weights
        rows = _pair_rows(self.values[..., :, None, :], self.values[..., None, :, :])
        inner = (w[..., None, None, :] @ rows)[..., 0, :]  # sum_j w_j F(x_i, x_j), (..., K, 3)
        return (w[..., None, :] @ inner @ self.moments[..., 0, :, None])[..., 0, 0]

    def gamma1(self) -> np.ndarray:
        """Normalized order-1 density kernel, Gamma/2 - det G.

        Gamma(x', x) = sum over (x_0, x_2) of w w Psi(x_0, x, x_2)
        Psi(x_0, x', x_2).  Psi(x_0, x, x_2) = F(x_2, x_0) . (1, x), so
        Gamma = f N f^T with f = (1, phi): a symmetric K x K matrix of rank
        at most 3, built in O(K^2).  For centred orthonormal components
        gamma1 equals the orbital sum sum_j phi~_j(x') phi~_j(x).
        """
        lifted, n = _lift(self.values), self.pair_moments()
        # det G is the cofactor N[0, 0] / 2
        return lifted @ n @ np.swapaxes(lifted, -1, -2) / 2.0 - n[..., :1, :1] / 2.0

    def entry(self, x1p, x2p, x1, x2) -> float:
        """gamma2 at ((x'_1, x'_2), (x_1, x_2)) for node indices: ints, not bools, in 0..K-1."""
        if self.values.ndim != 2:
            raise ValueError(f"entry reads one node set, got values of shape {self.values.shape}")
        k = len(self.values)
        for node in (x1p, x2p, x1, x2):
            if isinstance(node, bool) or not (isinstance(node, (int, np.integer)) and 0 <= node < k):
                raise ValueError(f"node {node!r} is not an index in 0..{k - 1}")
        primed, unprimed = _pair_rows(self.values[[x1p, x1]], self.values[[x2p, x2]])
        return float(primed @ self.moments @ unprimed)

    def whitened(self) -> np.ndarray:
        """The centred components times G^-1/2, so their Gram matrix is I, per node set.

        G^-1/2 = adj(G + sI) / (s t) with s = sqrt(det G), t = sqrt(tr G + 2s),
        formed as 2^-e (4^-e G)^-1/2, exactly, with e chosen so that tr G is
        near 1.  A set with det G / (tr G)^2 at most WHITEN_RTOL has dependent
        components; it is rejected, and the message names that ratio (the
        first such set's, for a stack).
        """
        g = self.gram
        half = np.frexp(g[..., 0, 0] + g[..., 1, 1])[1] // 2
        p, q, r = (np.ldexp(g[..., i, j], -2 * half) for i, j in ((0, 0), (0, 1), (1, 1)))
        det, trace = p * r - q * q, p + r
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = det / (trace * trace)
        bad = ~(ratio > WHITEN_RTOL)
        if bad.any():
            raise ValueError(
                "components are linearly dependent; cannot whiten (smallest/largest "
                f"Gram eigenvalue {float(ratio[bad].flat[0]):.3g}, at most {WHITEN_RTOL:g})"
            )
        s = np.sqrt(det)
        adj = np.stack([r + s, -q, -q, p + s], axis=-1).reshape(g.shape)
        inv_sqrt = adj / (s * np.sqrt(trace + 2.0 * s))[..., None, None]
        return self.values @ np.ldexp(inv_sqrt, -half[..., None, None])

    def _dense_nodes(self) -> int:
        """K, checked against the cap on the K^2 x K^2 matrices."""
        k = self.values.shape[-2]
        if k > MAX_DENSE_KERNEL_NODES:
            raise ValueError(
                f"{k} nodes would materialize a {k * k} x {k * k} gamma2; the "
                f"dense kernel and its export are capped at "
                f"{MAX_DENSE_KERNEL_NODES} nodes; use gamma2_factors(...).entry "
                f"beyond that"
            )
        return k

    def dense(self) -> np.ndarray:
        """gamma2 as the K^2 x K^2 matrix with row-major pair indexing.

        Entry ((x'_1, x'_2), (x_1, x_2)) = sum_a w_a Psi(a, x_1, x_2)
        Psi(a, x'_1, x'_2) = F(x'_1, x'_2) M F(x_1, x_2)^T.  Symmetric as a
        big matrix, antisymmetric under swapping within either pair, and
        positive semidefinite of rank at most 3.
        """
        k = self._dense_nodes()
        rows = _pair_rows(self.values[..., :, None, :], self.values[..., None, :, :])
        rows = rows.reshape(self.values.shape[:-2] + (k * k, 3))
        return rows @ self.moments @ np.swapaxes(rows, -1, -2)

    def pair_expansion(self) -> np.ndarray:
        """Closed-form gamma2 for centred orthonormal components, per node set.

        Entry ((x'_1, x'_2), (x_1, x_2)) =
            sum_j (phi~_j(x_1) - phi~_j(x_2)) (phi~_j(x'_1) - phi~_j(x'_2))
            + W(x_1, x_2) W(x'_1, x'_2)

        with W(p, q) = phi~(p) ^ phi~(q).  Equals `dense` when the centred
        Gram matrix is the identity, as after `whitened`.
        """
        k = self._dense_nodes()
        first, second = self.values[..., :, None, :], self.values[..., None, :, :]
        diff = first - second  # (..., K, K, 2)
        wedge = _wedge(first, second)
        affine_part = np.einsum("...ijm,...klm->...ijkl", diff, diff)
        slater_part = np.einsum("...ij,...kl->...ijkl", wedge, wedge)
        return (affine_part + slater_part).reshape(self.values.shape[:-2] + (k * k, k * k))


def gamma2_factors(phi, space: MeasuredSpace) -> Gamma2Factors:
    """Validate phi, centre it and form M, in O(K) work and memory.

    The only place that does any of the three: every other function of the
    module reads its result.  For a stack of spaces, phi (..., K, 2) has the
    weights' leading axes; each set gets the BLAS calls, on the same K, that
    it gets alone, so every set keeps its single-call bits.
    """
    weights = space.weights
    values = np.asarray(phi, dtype=float)
    if values.shape != weights.shape + (2,):
        raise ValueError(
            f"wave function must have shape {weights.shape + (2,)}, d = 2 real "
            f"components per node, got shape {values.shape}"
        )
    if not np.isfinite(values).all():
        raise ValueError("wave function values must be finite")
    values = values - weights[..., None, :] @ values
    lifted = _lift(values)
    return Gamma2Factors(values, np.swapaxes(lifted, -1, -2) @ (weights[..., None] * lifted), weights)


def two_point(phi, space: MeasuredSpace) -> np.ndarray:
    """Triple-weighted mean of Psi^2, 6 det G, in O(K) work (`Gamma2Factors.two_point`)."""
    return gamma2_factors(phi, space).two_point()


def m_identity_sides(factors: Gamma2Factors, m_table):
    """Both sides of the symmetric-weight overlap identity, per node set of `factors`.

    For a table M symmetric in its three node arguments, centred values and
    wedge scalars ab = W(x_0, x_1) etc., lhs = 3 sum w^3 ab M (ab + bc + ca)
    equals rhs = sum w^3 (ab + bc + ca) M (ab + bc + ca).  m_table holds one
    K x K x K table per node set, (..., K, K, K) with the node sets' leading
    axes, or a ValueError names the shapes.  Every entry of a table is
    compared with its five permuted entries, to 1e-12 relative to the entry;
    an asymmetric or non-finite table is rejected, naming it.
    """
    values, w = factors.values, factors.weights
    m = np.asarray(m_table, dtype=float)
    lead, k = values.shape[:-2], values.shape[-2]
    if m.shape != lead + (k, k, k):
        raise ValueError(f"need one K x K x K table per node set, shape {lead + (k, k, k)}, got shape {m.shape}")
    bound = 1e-12 * np.maximum(1.0, np.abs(m))
    bad = np.zeros(m.shape, dtype=bool)
    # One transpose at a time holds a few copies of M, not fifteen.  Written
    # as `not <=` so that NaN, and inf against inf, count as asymmetric.
    n = len(lead)
    with np.errstate(invalid="ignore"):
        for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            bad |= ~(np.abs(np.transpose(m, (*range(n), *(n + a for a in axes))) - m) <= bound)
    if bad.any():
        *table, i, j, l = np.argwhere(bad)[0]
        which = f" table {', '.join(map(str, table))}" if table else ""
        raise ValueError(f"M{which} is not symmetric at nodes ({i}, {j}, {l})")

    wedge = _wedge(values[..., :, None, :], values[..., None, :, :])
    psi3 = (
        wedge[..., :, :, None]
        + wedge[..., None, :, :]
        + np.swapaxes(wedge, -1, -2)[..., :, None, :]
    )  # W(x0,x1) + W(x1,x2) + W(x2,x0)
    lhs = 3.0 * np.einsum("...i,...j,...k,...ij,...ijk,...ijk->...", w, w, w, wedge, m, psi3)
    rhs = np.einsum("...i,...j,...k,...ijk,...ijk,...ijk->...", w, w, w, psi3, m, psi3)
    return lhs, rhs


def gamma1(phi, space: MeasuredSpace) -> np.ndarray:
    """Normalized order-1 density kernel (`Gamma2Factors.gamma1`)."""
    return gamma2_factors(phi, space).gamma1()


def gamma2(phi, space: MeasuredSpace) -> np.ndarray:
    """Order-2 density kernel as a K^2 x K^2 matrix (`Gamma2Factors.dense`)."""
    return gamma2_factors(phi, space).dense()

