"""Affine Slater determinants over a finite weighted node set.

A measured space is a finite set of nodes x_k with positive weights w_k
summing to 1; a wave function assigns d real components to each node.  The
wave function of d+1 particles is the affine determinant of the component
vectors,

    Psi(x_0, ..., x_d) = det(phi(x_1) - phi(x_0), ..., phi(x_d) - phi(x_0)),

and integrals are exact weighted sums over nodes.  The moment and kernel
routines are restricted to d = 2.  There Psi(a, x1, x2) = det(x1 - a, x2 - a)
is affine in each node, so it factors through three coordinates:

    Psi(a, x1, x2) = F(x1, x2) . (1, a),
    F(x1, x2) = [x1 ^ x2, (x1 - x2)_2, -(x1 - x2)_1],

with u ^ v = u_1 v_2 - u_2 v_1.  Every weighted sum then reduces to the 3x3
moment matrix M = sum_a w_a (1, a)(1, a)^T and the pair moment
N = sum_{x1, x2} w w F^T F = 2 adj(M): gamma2 = F M F^T, the order-1 kernel
is f N f^T with f = (1, phi), <Psi^2> = <M, N> and <Psi> = F(mean, mean) .
(1, mean).  The K x K x K tensor of Psi values is never built.

Kernel assembly uses fixed summation order, so results are reproducible
bit-for-bit for a given input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .affine_forms import affine_det
from .json_input import number_array

__all__ = [
    "MeasuredSpace",
    "CenteredWaveFunction",
    "center",
    "centered_gram",
    "reduce_centered",
    "psi",
    "one_point",
    "two_point",
    "symmetric_m_identity",
    "order1_kernel",
    "gamma1",
    "gamma2",
    "Gamma2Factors",
    "gamma2_factors",
    "gamma2_pair_expansion",
    "MAX_DENSE_KERNEL_NODES",
    "MAX_PHI",
    "node_set_from_json",
]

# The dense gamma2 (and its export) is a K^2 x K^2 matrix; beyond this many
# nodes use the factors, whose entries cost O(1) each.
MAX_DENSE_KERNEL_NODES = 32

# How far the weights may sum from 1.
WEIGHT_SUM_ATOL = 1e-10

# Largest |phi| entry accepted from JSON input.  The moments and both
# kernels are homogeneous of degree 4 in phi, with sums below 10^3 max|phi|^4,
# which stays inside the float range up to here.
MAX_PHI = 1e75


class MeasuredSpace:
    """Finite weighted node set (x_k, w_k) with w_k > 0 and sum w_k = 1."""

    def __init__(self, weights, labels=None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("need at least two weighted nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        self.weights = w
        self.labels = tuple(range(w.size)) if labels is None else tuple(labels)
        if len(self.labels) != w.size:
            raise ValueError("labels and weights differ in length")
        self._index = {label: k for k, label in enumerate(self.labels)}
        if len(self._index) != w.size:
            raise ValueError("node labels must be distinct")

    @classmethod
    def uniform(cls, k: int) -> "MeasuredSpace":
        return cls(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return self.weights.size

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown node label {label!r}") from None


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


class CenteredWaveFunction(NamedTuple):
    """Wave function values with weighted means removed, plus those means."""

    values: np.ndarray  # (K, d)
    means: np.ndarray  # (d,)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def _as_wavefunction(phi, space: MeasuredSpace) -> np.ndarray:
    values = np.asarray(phi, dtype=float)
    if values.ndim != 2 or values.shape[0] != len(space):
        raise ValueError(
            f"wave function must be a {len(space)} x d real matrix, "
            f"got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("wave function values must be finite")
    return values


def center(phi, space: MeasuredSpace) -> CenteredWaveFunction:
    """Subtract the weighted mean from each component."""
    values = _as_wavefunction(phi, space)
    means = space.weights @ values
    return CenteredWaveFunction(values - means, means)


def centered_gram(phi, space: MeasuredSpace) -> np.ndarray:
    """Gram matrix <phi~_i phi~_j> of the centered components."""
    tilde = center(phi, space).values
    return tilde.T @ (space.weights[:, None] * tilde)


def reduce_centered(phi, space: MeasuredSpace) -> np.ndarray:
    """Center the components and whiten them to an identity Gram matrix."""
    tilde = center(phi, space).values
    gram = tilde.T @ (space.weights[:, None] * tilde)
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() <= 0:
        raise ValueError("components are linearly dependent; cannot reduce")
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
    return tilde @ inv_sqrt


def psi(phi, space: MeasuredSpace, nodes) -> float:
    """Affine Slater determinant at d+1 node labels."""
    values = _as_wavefunction(phi, space)
    d = values.shape[1]
    nodes = tuple(nodes)
    if len(nodes) != d + 1:
        raise ValueError(f"need {d + 1} node labels, got {len(nodes)}")
    idx = [space.index(label) for label in nodes]
    return float(np.real(affine_det(values[idx])))


def _psi_tensor(values: np.ndarray) -> np.ndarray:
    """Psi over all node triples as a K x K x K array; the tests' reference."""
    d1 = values[None, :, 0] - values[:, None, 0]  # phi_1(q) - phi_1(p)
    d2 = values[None, :, 1] - values[:, None, 1]
    return np.einsum("ij,ik->ijk", d1, d2) - np.einsum("ik,ij->ijk", d1, d2)


def _wedge_matrix(values: np.ndarray) -> np.ndarray:
    """Pairwise wedge scalars W[p, q] = phi_1(p) phi_2(q) - phi_2(p) phi_1(q)."""
    return np.outer(values[:, 0], values[:, 1]) - np.outer(values[:, 1], values[:, 0])


def _pair_rows(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """F(x1, x2) = [x1 ^ x2, (x1 - x2)_2, -(x1 - x2)_1] along a new last axis.

    `first` and `second` broadcast against each other and carry the two
    components on their last axis.  Equal nodes give an exactly zero row.
    """
    wedge = first[..., 0] * second[..., 1] - first[..., 1] * second[..., 0]
    diff = first - second
    return np.stack([wedge, diff[..., 1], -diff[..., 0]], axis=-1)


def _lift(values: np.ndarray) -> np.ndarray:
    """Affine coordinates (1, phi) of every node, K x 3."""
    return np.column_stack([np.ones(len(values)), values])


def _moments(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M = sum_a w_a (1, a)(1, a)^T, the 3x3 moment matrix of the nodes."""
    lifted = _lift(values)
    return lifted.T @ (weights[:, None] * lifted)


def _pair_moments(m: np.ndarray) -> np.ndarray:
    """N = sum_{x1, x2} w w F(x1, x2)^T F(x1, x2) = 2 adj(M).

    Each entry of N is a sum of products of one first or second moment of x1
    and one of x2, which are the entries of M; collected, they are twice the
    cofactors of M.  Built from the upper triangle of M, so N is exactly
    symmetric.
    """
    (a, b, c), (_, d, e), (_, _, f) = m.tolist()
    return 2.0 * np.array(
        [
            [d * f - e * e, c * e - b * f, b * e - c * d],
            [c * e - b * f, a * f - c * c, b * c - a * e],
            [b * e - c * d, b * c - a * e, a * d - b * b],
        ]
    )


def _centered_two_components(phi, space: MeasuredSpace) -> np.ndarray:
    values = center(phi, space).values
    if values.shape[1] != 2:
        raise ValueError("this operation is implemented for d = 2 components")
    return values


def one_point(phi, space: MeasuredSpace) -> float:
    """Triple-weighted mean of Psi; vanishes by antisymmetry.

    <Psi> = sum_{x1, x2} w w F(x1, x2) . sum_a w_a (1, a).  F is affine in
    each node, so its mean is F at the mean node, whose wedge and difference
    both vanish.
    """
    m = _moments(_centered_two_components(phi, space), space.weights)
    mean = m[0, 1:]
    return float(_pair_rows(mean, mean) @ m[0])


def two_point(phi, space: MeasuredSpace) -> float:
    """Triple-weighted mean of Psi^2, <M, N> in O(K) work.

    Equals 6 det(centered Gram); in particular 6 when the components are
    centered and orthonormal.
    """
    m = _moments(_centered_two_components(phi, space), space.weights)
    return float(np.sum(m * _pair_moments(m)))


def symmetric_m_identity(phi, space: MeasuredSpace, m_table):
    """Both sides of the symmetric-weight overlap identity.

    For a function M symmetric in its three node arguments, with centered
    components and wedge scalars ab = W(x_0, x_1) etc.,

        lhs = 3 sum w^3 ab M (ab + bc + ca)
        rhs =   sum w^3 (ab + bc + ca) M (ab + bc + ca)

    are equal.  Returns (lhs, rhs).  Every entry of M is compared with its
    five permuted entries, to 1e-12 relative to the entry; an asymmetric or
    non-finite table is rejected.
    """
    values = _centered_two_components(phi, space)
    k = len(space)
    m = np.asarray(m_table, dtype=float)
    if m.shape != (k, k, k):
        raise ValueError(f"M must be a {k}x{k}x{k} table, got shape {m.shape}")

    bound = 1e-12 * np.maximum(1.0, np.abs(m))
    bad = np.zeros(m.shape, dtype=bool)
    # One transpose at a time holds a few copies of M, not fifteen.  Written
    # as `not <=` so that NaN, and inf against inf, count as asymmetric.
    with np.errstate(invalid="ignore"):
        for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            bad |= ~(np.abs(np.transpose(m, axes) - m) <= bound)
    if bad.any():
        i, j, l = np.argwhere(bad)[0]
        raise ValueError(f"M is not symmetric at nodes ({i}, {j}, {l})")

    w = space.weights
    wedge = _wedge_matrix(values)
    psi3 = (
        wedge[:, :, None]
        + wedge[None, :, :]
        + np.transpose(wedge)[:, None, :]
    )  # W(x0,x1) + W(x1,x2) + W(x2,x0)
    lhs = 3.0 * np.einsum("i,j,k,ij,ijk,ijk->", w, w, w, wedge, m, psi3)
    rhs = np.einsum("i,j,k,ijk,ijk,ijk->", w, w, w, psi3, m, psi3)
    return float(lhs), float(rhs)


def order1_kernel(phi, space: MeasuredSpace) -> np.ndarray:
    """Unnormalized order-1 kernel by double integration.

    Gamma(x', x) = sum over (x_0, x_2) of w w Psi(x_0, x, x_2) Psi(x_0, x', x_2),
    computed with centered components.  Psi(x_0, x, x_2) = F(x_2, x_0) .
    (1, x), so Gamma = f N f^T with f = (1, phi): a symmetric K x K matrix
    of rank at most 3, built in O(K^2).
    """
    values = _centered_two_components(phi, space)
    lifted = _lift(values)
    return lifted @ _pair_moments(_moments(values, space.weights)) @ lifted.T


def gamma1(phi, space: MeasuredSpace) -> np.ndarray:
    """Normalized order-1 density kernel, Gamma/2 - det(centered Gram).

    For centered orthonormal components this equals the orbital sum
    sum_j phi~_j(x') phi~_j(x).
    """
    gram_det = float(np.linalg.det(centered_gram(phi, space)))
    return order1_kernel(phi, space) / 2.0 - gram_det


class Gamma2Factors(NamedTuple):
    """The order-2 kernel as its rank-3 factors, gamma2 = F M F^T.

    Holds O(K) numbers: the centered components and M.  `entry` costs O(1);
    `dense` builds the K^2 x K^2 matrix, up to MAX_DENSE_KERNEL_NODES nodes.
    """

    space: MeasuredSpace
    values: np.ndarray  # (K, 2) centered components
    moments: np.ndarray  # (3, 3) M

    def entry(self, x1p, x2p, x1, x2) -> float:
        """gamma2 at ((x'_1, x'_2), (x_1, x_2)) for node labels."""
        idx = [self.space.index(label) for label in (x1p, x2p, x1, x2)]
        nodes = self.values[idx]
        primed, unprimed = _pair_rows(nodes[[0, 2]], nodes[[1, 3]])
        return float(primed @ self.moments @ unprimed)

    def dense(self) -> np.ndarray:
        """The K^2 x K^2 matrix with row-major pair indexing."""
        k = len(self.space)
        if k > MAX_DENSE_KERNEL_NODES:
            raise ValueError(
                f"{k} nodes would materialize a {k * k} x {k * k} gamma2; the "
                f"dense kernel and its export are capped at "
                f"{MAX_DENSE_KERNEL_NODES} nodes; use gamma2_factors(...).entry "
                f"beyond that"
            )
        rows = _pair_rows(self.values[:, None, :], self.values[None, :, :])
        rows = rows.reshape(k * k, 3)
        return rows @ self.moments @ rows.T


def gamma2_factors(phi, space: MeasuredSpace) -> Gamma2Factors:
    """Rank-3 factors of the order-2 kernel in O(K) work and memory."""
    values = _centered_two_components(phi, space)
    return Gamma2Factors(space, values, _moments(values, space.weights))


def gamma2(phi, space: MeasuredSpace) -> np.ndarray:
    """Order-2 density kernel as a K^2 x K^2 matrix, integrating over x_0 only.

    Entry ((x'_1, x'_2), (x_1, x_2)) = sum_a w_a Psi(a, x_1, x_2)
    Psi(a, x'_1, x'_2) = F(x'_1, x'_2) M F(x_1, x_2)^T with row-major pair
    indexing.  Symmetric as a big matrix, antisymmetric under swapping
    within either pair, and positive semidefinite of rank at most 3.
    """
    return gamma2_factors(phi, space).dense()


def gamma2_pair_expansion(phi, space: MeasuredSpace) -> np.ndarray:
    """Closed-form order-2 kernel for centered orthonormal components.

    Entry ((x'_1, x'_2), (x_1, x_2)) =
        sum_j (phi~_j(x_1) - phi~_j(x_2)) (phi~_j(x'_1) - phi~_j(x'_2))
        + W(x_1, x_2) W(x'_1, x'_2)

    where W is the pairwise wedge scalar.  Valid when the centered Gram
    matrix is the identity.  Dense, so capped at MAX_DENSE_KERNEL_NODES nodes.
    """
    values = _centered_two_components(phi, space)
    k = len(space)
    if k > MAX_DENSE_KERNEL_NODES:
        raise ValueError(
            f"{k} nodes would materialize a {k * k} x {k * k} pair expansion; "
            f"it is capped at {MAX_DENSE_KERNEL_NODES} nodes like the dense gamma2"
        )
    diff = values[:, None, :] - values[None, :, :]  # (K, K, 2)
    affine_part = np.einsum("ijm,klm->ijkl", diff, diff)
    wedge = _wedge_matrix(values)
    slater_part = np.einsum("ij,kl->ijkl", wedge, wedge)
    return (affine_part + slater_part).reshape(k * k, k * k)
