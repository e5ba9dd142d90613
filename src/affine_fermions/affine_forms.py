"""Affine determinants and antisymmetric multi-affine forms in any dimension.

The affine determinant of d+1 points in C^d is det(x_1 - x_0, ..., x_d - x_0);
it is antisymmetric under all (d+1)! argument permutations and translation
invariant.  The module also carries the machinery for exploring which other
antisymmetric forms exist: a coefficient representation of multi-affine forms,
antisymmetrization of generators over the full symmetric group, and the exact
basis of antisymmetric forms per homogeneity sector as index tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exterior import signed_permutations
from .json_io import Rows

__all__ = [
    "affine_det",
    "MultiAffineForm",
    "affine_det_form",
    "determinant_generator",
    "antisymmetrize_generator",
    "NullspaceResult",
    "conjecture_nullspace",
]

MAX_GENERATOR_ARITY = 6
# Integers in a nullspace answer, dimension x m: what is built and written.
# Also the most coefficients a dense (d+1)^m form table may have.
MAX_NULLSPACE_INTEGERS = 10**6


def affine_det(points):
    """Determinant of (x_1 - x_0, ..., x_d - x_0) for d+1 points in C^d.

    points has shape (d+1, d) and gives a Python complex, or (..., d+1, d)
    for a batch and gives an array over the leading axes.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim < 2:
        raise ValueError("points must be a sequence of equal-length vectors")
    m, d = pts.shape[-2:]
    if m != d + 1:
        raise ValueError(f"need d+1 = {d + 1} points in dimension {d}, got {m}")
    # One batched np.linalg.det equals the per-matrix calls bit for bit.
    dets = np.linalg.det((pts[..., 1:, :] - pts[..., :1, :]).swapaxes(-1, -2))
    return complex(dets) if dets.ndim == 0 else dets


@dataclass(frozen=True)
class MultiAffineForm:
    """A form of m vector arguments in C^d, affine in each argument.

    Coefficients live in an array of shape (d+1,)*m: index 0 on axis k
    selects the constant in argument k, index j in 1..d selects coordinate
    j-1.  The form value is the full contraction of the coefficient table
    with the per-argument feature vectors (1, p_k[0], ..., p_k[d-1]).
    """

    dim: int
    arity: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 0 or self.arity < 0:
            raise ValueError(f"dim and arity must be non-negative, got dim={self.dim}, arity={self.arity}")
        expected = (self.dim + 1,) * self.arity
        c = np.asarray(self.coeffs)
        if c.shape != expected:
            raise ValueError(f"coefficient table must have shape {expected}")
        object.__setattr__(self, "coeffs", c.astype(complex))

    def __call__(self, points) -> complex:
        pts = np.asarray(points, dtype=complex)
        if pts.shape != (self.arity, self.dim):
            raise ValueError(
                f"need {self.arity} points of dimension {self.dim}, "
                f"got shape {pts.shape}"
            )
        value = self.coeffs
        for k in range(self.arity):
            feature = np.concatenate(([1.0], pts[k]))
            value = np.tensordot(value, feature, axes=([0], [0]))
        return complex(value)


def _zero_table(d: int, m: int) -> np.ndarray:
    """A complex (d+1)^m table of zeros, refused above MAX_NULLSPACE_INTEGERS before it is allocated."""
    cap = MAX_NULLSPACE_INTEGERS
    # (d+1)^m >= 2^m, so m at or past the cap's bit length is refused before the power.
    if m >= cap.bit_length() or (d + 1) ** m > cap:
        raise ValueError(f"a dense table of {d + 1}^{m} coefficients exceeds the cap of {cap}")
    return np.zeros((d + 1,) * m, dtype=complex)


def determinant_generator(d: int, arity: int) -> MultiAffineForm:
    """det of the first d arguments, as a multi-affine form of `arity` args.

    The remaining arity - d arguments are spectators (the form is constant
    in them).
    """
    if d < 0:
        raise ValueError(f"dimension d must be non-negative, got {d}")
    if arity < d:
        raise ValueError("arity must be at least the dimension")
    coeffs = _zero_table(d, arity)
    for perm, sign in signed_permutations(d):
        idx = tuple(perm[k] + 1 for k in range(d)) + (0,) * (arity - d)
        coeffs[idx] = sign
    return MultiAffineForm(d, arity, coeffs)


def affine_det_form(d: int) -> MultiAffineForm:
    """Coefficient table of the affine determinant on d+1 points in C^d.

    It is the sign pattern of the one index tuple (0, 1, ..., d): the
    multilinear expansion of det(x_1 - x_0, ..., x_d - x_0) puts sign(sigma)
    on each ordering sigma of that tuple.  All coefficients are exactly +-1.
    """
    if d < 0:
        raise ValueError(f"dimension d must be non-negative, got {d}")
    return NullspaceResult(d, d + 1, d, np.arange(d + 1)[None], 1.0).form(0)


def antisymmetrize_generator(generator: MultiAffineForm) -> MultiAffineForm:
    """Sum of sign(sigma) * (generator with arguments permuted) over S_m.

    No 1/m! normalization; linear in the generator.  Arity above
    MAX_GENERATOR_ARITY is rejected.
    """
    m = generator.arity
    if m > MAX_GENERATOR_ARITY:
        raise ValueError(f"arity {m} exceeds supported maximum {MAX_GENERATOR_ARITY}")
    out = np.zeros_like(generator.coeffs)
    for perm, sign in signed_permutations(m):
        out += sign * np.transpose(generator.coeffs, perm)
    return MultiAffineForm(generator.dim, m, out)


@dataclass(frozen=True)
class NullspaceResult:
    """Antisymmetric forms of one homogeneity sector, as index tuples.

    Form i is value * sign(sigma) on each ordering sigma of tuples[i] and 0
    elsewhere.  tuples is an int array (dimension, arity) of strictly
    increasing rows in lexicographic order.
    """

    dim: int
    arity: int
    homogeneity: int
    tuples: np.ndarray = field(repr=False)
    value: float

    @property
    def dimension(self) -> int:
        return len(self.tuples)

    def form(self, i: int) -> MultiAffineForm:
        """Form i as a dense MultiAffineForm of (dim+1)^arity coefficients."""
        coeffs = _zero_table(self.dim, self.arity)
        perms, signs = map(np.array, zip(*signed_permutations(self.arity)))
        coeffs[tuple(self.tuples[i][perms].T)] = signs * self.value
        return MultiAffineForm(self.dim, self.arity, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "arity": self.arity,
            "homogeneity": self.homogeneity,
            "dimension": self.dimension,
            "basis": Rows(self.tuples),
            "value": self.value,
        }


def conjecture_nullspace(d: int, m: int, homogeneity: int) -> NullspaceResult:
    """Exact orthonormal basis of the antisymmetric forms of m arguments on
    C^d whose monomials have `homogeneity` non-constant factors.

    An antisymmetric table is fixed by its values on strictly increasing
    index tuples, so the constant index 0 appears at most once: degree m has
    one form per m-subset of 1..d, degree m-1 one per (0,) + (m-1)-subset,
    other degrees none.  Each form is +-1/sqrt(m!) on the orderings of its
    tuple, + on the increasing one.  An answer of more than
    MAX_NULLSPACE_INTEGERS tuple entries (dimension x m) is rejected unbuilt.
    """
    if d < 1:
        raise ValueError(f"dim must be at least 1, got {d}")
    if m < 2:
        raise ValueError(f"arity must be at least 2, got {m}")
    if not 0 <= homogeneity <= m:
        raise ValueError(f"degree must be between 0 and the arity {m}, got {homogeneity}")
    # 1/sqrt(m!), rounded once while m! is a float (170! is the last) and from lgamma past it.
    try:
        value = 1 / math.sqrt(math.factorial(m)) if m <= 170 else math.exp(-math.lgamma(m + 1) / 2)
    except OverflowError:  # lgamma(m + 1) is past the largest double from m of about 2.5e305
        raise ValueError(f"arity {m} is too large: log(m!) overflows a double") from None
    if m > np.iinfo(np.intp).max // np.dtype(int).itemsize:  # numpy's limit on a row of m ints
        raise ValueError(f"arity {m} is too large: an index array cannot hold {m} columns")
    if homogeneity < m - 1 or homogeneity > d:
        return NullspaceResult(d, m, homogeneity, np.zeros((0, m), dtype=int), value)
    # C(d, k) >= 2^k, so m 2^k integers over the cap are refused before math.comb runs.
    k = min(homogeneity, d - homogeneity)
    cap = MAX_NULLSPACE_INTEGERS
    if k >= cap.bit_length() or m << k > cap or m * math.comb(d, k) > cap:
        raise ValueError(f"C({d}, {homogeneity}) tuples of {m} indices exceed the cap of {cap} integers")
    subsets = combinations(range(1, d + 1), homogeneity)
    dimension = math.comb(d, k)
    # the increasing tuple puts the constant index 0 first, if at all
    tuples = np.zeros((dimension, m), dtype=int)
    tuples[:, m - homogeneity :] = np.fromiter(subsets, (int, homogeneity), dimension)
    return NullspaceResult(d, m, homogeneity, tuples, value)
