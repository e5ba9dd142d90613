"""Seeded check suites over all library invariants, with JSON reports.

Every check suite draws its random inputs from its own generator, seeded
from the run's seed and the suite's name, and reads each tolerance, a
constant of DEFAULT_TOLERANCES, where it decides with it, so a seed always
produces byte-identical serialized reports, and no suite's samples depend
on what another suite draws.  Wall time is kept out of the serialized form.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import affine_forms, slater, spin, symplectic
from ._products import _cmatmul, _cmul, _matmul, _unbatched, _wedge2
from .collapse import (
    BASIS_2D,
    collapse,
    collapse_with_morphism,
    lambda_tensor,
    rho_trace_A,
    rho_trace_AC,
    theta,
    tr1,
)
from .exterior import signed_permutations

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "CheckRecord",
    "Report",
    "run_verify",
    # the predicates the subcommands share
    "collapse_gap",
    "morphism_gap",
    "rho_basis_values",
    "moment_gaps",
    "span_residual",
]

DEFAULT_SEED = 1729

DEFAULT_TOLERANCES = {
    "collapse_pipeline": 1e-10,
    "tr1_directions": 1e-12,
    "morphism_covariance": 1e-9,
    "rho_basis": 1e-12,
    "rho_closed_form": 1e-12,
    "affine_antisymmetry": 1e-10,
    "translation_invariance": 1e-10,
    "coordinate_expansion": 1e-10,
    "generator_coefficients": 1e-12,
    "span_residual": 1e-8,
    "one_point": 1e-10,
    "two_point": 1e-9,
    "m_identity": 1e-9,
    "gamma1_orbital": 1e-9,
    "gamma2_expansion": 1e-9,
    "kernel_symmetry": 1e-12,
    "psd_floor": 1e-9,
    "spin_values": 1e-12,
}


@dataclass(frozen=True)
class CheckRecord:
    """One record: it passes exactly when `measured <= tolerance`, so a NaN fails."""

    name: str
    measured: float
    tolerance: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class Report:
    """One command's records, serialized as `command`, `seed`, `checks` and `summary`.

    `add_within` is the one way to file a record.
    """

    command: str
    seed: int
    checks: list = field(default_factory=list)

    def add_within(self, name, measured, tolerance, detail) -> CheckRecord:
        """A record of the largest of `measured`'s gaps, passing when it is <= tolerance.

        `measured` is one gap, an array of per-sample gaps, or a list of such
        arrays of different shapes.  The maximum propagates NaN, so a NaN in
        any part fails.
        """
        if isinstance(measured, list):
            measured = [np.max(part) for part in measured]
        record = CheckRecord(name, float(np.max(measured)), float(tolerance), detail)
        self.checks.append(record)
        return record

    @property
    def ok(self) -> bool:
        return all(record.passed for record in self.checks)

    def to_json_dict(self) -> dict:
        failed = sum(1 for record in self.checks if not record.passed)
        return {
            "command": self.command,
            "seed": self.seed,
            "checks": [record.to_json_dict() for record in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": len(self.checks) - failed,
                "failed": failed,
            },
        }


def _abs(z):
    # np.abs of a complex array can differ from abs(complex) in the last bit; np.hypot does not.
    return np.hypot(z.real, z.imag)


def _rel(a, b):
    """|a - b| scaled by the larger magnitude, floored at 1, entry by entry."""
    return _abs(a - b) / np.maximum(np.maximum(1.0, _abs(a)), _abs(b))


def _complex_normal(rng, shape):
    """Complex normals of `shape`: all real parts are drawn, then all imaginary parts."""
    parts = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=complex)
    out.real = parts[0]
    out.imag = parts[1]
    return out


# One function per invariant that a subcommand also checks.  `verify` calls
# it on its drawn batch and the subcommand on the user's single input, and
# both compare the result with the same DEFAULT_TOLERANCES key.


def collapse_gap(a, b, c):
    """(`_rel` gap, collapsed scalar, `_wedge2(b - a, c - a)`) for one triple or a batch."""
    scalar = collapse(a, b, c)
    direct = _unbatched(_wedge2(b - a, c - a))
    return _rel(scalar, direct), scalar, direct


def morphism_gap(a, b, c, sigma):
    """`_rel` gap of collapse(sigma a, sigma b, sigma c) to det(sigma) collapse(a, b, c)."""
    expected = _cmul(_wedge2(sigma[..., 0, :], sigma[..., 1, :]), collapse(a, b, c))
    return _rel(collapse_with_morphism(a, b, c, sigma), expected)


def rho_basis_values():
    """|rho_trace_AC| on the four computational-basis pairs."""
    b, bp = np.array(list(itertools.product(BASIS_2D, repeat=2))).transpose(1, 0, 2)
    return _abs(rho_trace_AC(b, bp))


def moment_gaps(factors):
    """(gap of <Psi^2> to 6 det G, <Psi^2>, det G) of `slater.gamma2_factors`' result, as arrays.

    <Psi^2> is the sum <M, N> and det G, of the centred Gram matrix G, the
    cofactor N[0, 0] / 2, so the gap |<Psi^2> - 6 det G| is measured against
    the size of that sum, sum |M o N|: a sum that is exactly 0 gives 0 and
    passes, however large phi is.  A stack of node sets gives shape (B,).
    """
    two, n = factors.two_point(), factors.pair_moments()
    gram_det = n[..., 0, 0] / 2.0
    gap = np.abs(two - 6.0 * gram_det)
    size = np.abs(factors.moments * n).sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(gap != 0.0, gap / size, 0.0)
    return cross, two, gram_det


def span_residual(result) -> float:
    """Distance of the unit affine-determinant coefficients on C^dim from the span of a NullspaceResult.

    Those coefficients are the sign pattern of the one tuple (0, 1, ..., dim), and the basis forms
    have disjoint supports, so the distance is |1 - c| for the c rows equal to that tuple.  The basis
    is orthonormal only if `value` is 1/sqrt(m!) for arity m: a value more than 1e-12 (relative) off
    that, taken from lgamma, makes the residual the value's relative error, if that is larger.
    From m = 301, 1/sqrt(m!) is below the smallest normal double (subnormal, and 0.0 from m = 314),
    so no `value` holds it to 1e-12 and the residual is at least 1.
    """
    distance = float(abs(1 - np.all(result.tuples == np.arange(result.dim + 1), axis=1).sum()))
    unit = math.exp(-math.lgamma(result.arity + 1) / 2)
    if unit < sys.float_info.min:
        return max(distance, 1.0)
    if math.isclose(result.value, unit, rel_tol=1e-12):
        return distance
    return max(distance, abs(result.value - unit) / unit)


def _check_collapse(report: Report, rng) -> None:
    report.add_within(
        "collapse_pipeline_equals_affine_det",
        collapse_gap(*_complex_normal(rng, (3, 1000, 2)))[0],
        DEFAULT_TOLERANCES["collapse_pipeline"],
        "embed -> wedge tensor -> reindex -> partial trace -> sum matches "
        "det(b-a, c-a) on 1000 random complex triples",
    )


def _check_tr1_directions(report: Report, rng) -> None:
    # 100 random states, then a = (1, 0), b = (0, 1), c = (0, -1), whose wedge factors are all 1
    exact = [[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, -1.0]]]
    a, b, c = np.concatenate([_complex_normal(rng, (3, 100, 2)), exact], axis=1)
    # axis 1 runs over the patterns (a,a,c), (a,b,b), (a,b,a); args holds their
    # first, second and third states
    args = [np.stack(triple, axis=1) for triple in ((a, a, a), (a, b, b), (c, b, a))]
    ab = _wedge2(a, b)
    factor = np.stack([_wedge2(c, a), ab, ab], axis=1)[..., None]
    direction = np.array([[0.0, 1.0, -1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    got = tr1(theta(lambda_tensor(*args)))
    residual = np.abs(got - factor * direction).max(axis=-1) / np.maximum(1.0, _abs(factor[..., 0]))
    report.add_within(
        "tr1_degenerate_directions", residual, DEFAULT_TOLERANCES["tr1_directions"],
        "repeated-argument triples give the wedge-scalar factor times "
        "(0,1,-1), (1,-1,0), (1,0,-1) for patterns (a,a,c), (a,b,b), (a,b,a)",
    )
    u, w, v = got[-1]
    report.add_within(
        "tr1_w_equals_v_minus_u", _abs(w - (v - u)), 0.0,
        "the directions tr1 gives for a = (1,0), b = (0,1), c = (0,-1), "
        "where every wedge factor is 1, satisfy w = v - u exactly",
    )


def _check_morphism(report: Report, rng) -> None:
    a, b, c = _complex_normal(rng, (3, 500, 2))
    sigma = _complex_normal(rng, (500, 2, 2))
    report.add_within(
        "morphism_covariance", morphism_gap(a, b, c, sigma), DEFAULT_TOLERANCES["morphism_covariance"],
        "applying a 2x2 map to all three states multiplies the collapsed "
        "scalar by its determinant (500 random cases)",
    )


def _check_rho_traces(report: Report, rng) -> None:
    report.add_within(
        "rho_trace_ac_basis_zero", rho_basis_values(), DEFAULT_TOLERANCES["rho_basis"],
        "the doubly-traced kernel vanishes on all four computational-basis pairs",
    )

    b, bp = _complex_normal(rng, (2, 100, 2))
    summed = rho_trace_AC(b, bp)
    closed = _cmul(2.0 * (b[:, 0] + b[:, 1] - 1.0), bp[:, 0] + bp[:, 1] - 1.0)
    report.add_within(
        "rho_trace_ac_closed_form", _rel(summed, closed), DEFAULT_TOLERANCES["rho_closed_form"],
        "the four-term basis sum equals 2 (b1+b2-1)(b'1+b'2-1), which is "
        "nonzero for generic continuous arguments",
    )

    b, c, bp, cp = _complex_normal(rng, (4, 100, 2))
    nonzero = int(np.count_nonzero(_abs(rho_trace_A(b, c, bp, cp)) > 1e-12))
    b, c, bp, cp = np.array(list(itertools.product(BASIS_2D, repeat=4))).transpose(1, 0, 2)
    basis_matrix_max = float(_abs(rho_trace_A(b, c, bp, cp)).max())
    report.add_within(
        "rho_trace_a_generic_nonzero", [99 - nonzero, basis_matrix_max], 0.0,
        "singly-traced kernel is nonzero as a kernel on continuous arguments "
        f"({nonzero} of 100, at least 99 needed); on basis arguments the 16-entry matrix is "
        f"identically zero (max |entry| = {basis_matrix_max:g}) because two "
        "of the three points always coincide",
    )


def _check_affine_det(report: Report, rng) -> None:
    gaps = []
    for d in (2, 3, 4):
        pts = _complex_normal(rng, (d + 1, d))
        perms, signs = zip(*signed_permutations(d + 1))
        dets = affine_forms.affine_det(pts[list(perms)])
        signs = np.array(signs)
        # perms[0] is the identity, so dets[0] is the unpermuted determinant
        gaps.append(_rel(dets, signs * dets[0]))
    report.add_within(
        "affine_det_antisymmetry", gaps, DEFAULT_TOLERANCES["affine_antisymmetry"],
        "exhaustive sign covariance under all (d+1)! argument permutations, d = 2, 3, 4",
    )

    gaps = []
    for d in (2, 3, 4):
        pts = _complex_normal(rng, (20, d + 1, d))
        shift = _complex_normal(rng, (20, 1, d))
        shifted, unshifted = affine_forms.affine_det(np.stack([pts + shift, pts]))
        gaps.append(_rel(shifted, unshifted))
    report.add_within(
        "affine_det_translation_invariance", gaps, DEFAULT_TOLERANCES["translation_invariance"],
        "adding a fixed vector to every point leaves the affine determinant unchanged",
    )

    a, b, c = _complex_normal(rng, (3, 100, 2))
    expanded = _wedge2(b - a, c - a)
    report.add_within(
        "affine_det_coordinate_expansion",
        _rel(affine_forms.affine_det(np.stack([a, b, c], axis=1)), expanded),
        DEFAULT_TOLERANCES["coordinate_expansion"],
        "d = 2 closed form (xB-xA)(yC-yA) - (xC-xA)(yB-yA)",
    )


def _check_generator(report: Report, rng) -> None:
    anti = affine_forms.antisymmetrize_generator(affine_forms.determinant_generator(3, 4))
    target = affine_forms.affine_det_form(3)
    report.add_within(
        "generator_antisymmetrization",
        np.abs(anti.coeffs + 6.0 * target.coeffs),
        DEFAULT_TOLERANCES["generator_coefficients"],
        "antisymmetrizing det of the first three of four arguments over S_4 "
        "gives -6 times the affine determinant, coefficient by coefficient",
    )


def _check_nullspace(report: Report, rng) -> None:
    results = {degree: affine_forms.conjecture_nullspace(2, 3, degree) for degree in (2, 1, 0)}
    mismatches = sum(results[degree].dimension != want for degree, want in {2: 1, 1: 0, 0: 0}.items())
    report.add_within(
        "nullspace_dimensions_d2_m3", mismatches, 0.0,
        "antisymmetric multi-affine forms in 3 arguments on C^2: dimension 1 "
        "in the degree-2 sector, 0 in degrees 1 and 0 (count of mismatches)",
    )
    report.add_within(
        "nullspace_contains_affine_det", span_residual(results[2]), DEFAULT_TOLERANCES["span_residual"],
        "projection residual of the affine determinant coefficients onto the "
        "degree-2 nullspace basis",
    )


def _check_kashiwara(report: Report, rng) -> None:
    axes = ([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]])
    coordinates = (np.vstack([np.eye(2), np.zeros((2, 2))]), np.vstack([np.zeros((2, 2)), np.eye(2)]),
                   np.vstack([np.eye(2), np.eye(2)]))
    fixed = {1: [axes, (axes[1], axes[0], axes[2])], 2: [coordinates]}
    drift = 0
    for n, triples in fixed.items():
        bases = np.array(triples, dtype=float)  # (triple, subspace, 2n, n)
        s = symplectic.symplectic_shear(rng.standard_normal((20, 2 * n, 2 * n)))
        changes = np.triu(rng.standard_normal((20, 3, n, n))) + 2.0 * np.eye(n)
        # columns scaled by 2^-10..2^10, exactly: without its Gram-Schmidt step the index misjudges
        # which pivots are 0
        changes = np.ldexp(changes, rng.integers(-10, 11, (20, 3, 1, n)))
        # one stack: the fixed triples, then 20 moved copies of the first, each compared with it
        moved = _matmul(_matmul(s[:, None], bases[0]), changes)
        stack = symplectic.LagrangianTriple(*np.concatenate([bases, moved]).swapaxes(0, 1))
        sig = symplectic.kashiwara_index(stack).signature
        drift += int(np.count_nonzero(sig[len(triples) :] != sig[0]))
        if n == 1:
            example, flipped = sig[:2]
    report.add_within(
        "kashiwara_example_signature", abs(example + 1), 0.0,
        "(x-axis, y-axis, diagonal) in R^2 has signature -1 under the "
        f"(p, q)-block form convention (got {example})",
    )
    report.add_within(
        "kashiwara_odd_permutation_flip", abs(flipped - 1), 0.0,
        f"swapping the first two subspaces negates the signature to 1 (got {flipped})",
    )
    report.add_within(
        "kashiwara_invariance", drift, 0.0,
        "signature unchanged by 20 random symplectic transformations with "
        "random basis changes, n = 1 and 2 (count of violations)",
    )


def _node_sets(rng, count, max_nodes):
    """A stack of count sets of K nodes, K drawn from 4..max_nodes once for all: its space and phi."""
    k = rng.integers(4, max_nodes + 1)
    weights = rng.random((count, k)) + 0.1
    phi = rng.standard_normal((count, k, 2))
    return slater.MeasuredSpace(weights / weights.sum(axis=1, keepdims=True)), phi


def _check_moments(report: Report, rng) -> None:
    space, phi = _node_sets(rng, 50, 12)
    factors = slater.gamma2_factors(phi, space)
    # cubed by products: numpy's AVX-512 power loop rounds scale ** 3 differently
    scale = np.maximum(1.0, np.abs(phi).max(axis=(-2, -1)))
    report.add_within(
        "one_point_vanishes", np.abs(factors.mean_psi()) / (scale * scale * scale),
        DEFAULT_TOLERANCES["one_point"],
        "triple-weighted mean of the antisymmetric wave function is zero "
        f"(50 random spaces of {len(space)} nodes, scaled by the cubed component bound)",
    )
    report.add_within(
        "two_point_gram_identity", moment_gaps(factors)[0], DEFAULT_TOLERANCES["two_point"],
        f"mean of Psi^2 equals 6 det(centered Gram) on 50 random spaces of {len(space)} nodes",
    )

    first = slater.MeasuredSpace(space.weights[0])
    reduced = slater.gamma2_factors(phi[0], first).whitened()
    unit = abs(slater.gamma2_factors(reduced, first).two_point() / 6.0 - 1.0)
    report.add_within(
        "two_point_orthonormal_unit", unit, DEFAULT_TOLERANCES["two_point"],
        "centered orthonormal components give mean of Psi^2 equal to 6",
    )

    space, phi = _node_sets(rng, 20, 8)
    factors, k = slater.gamma2_factors(phi, space), len(space)
    raw = rng.standard_normal((20, k, k, k))
    m_tables = sum(np.transpose(raw, (0, *perm)) for perm in itertools.permutations((1, 2, 3)))
    report.add_within(
        "symmetric_m_identity", _rel(*slater.m_identity_sides(factors, m_tables)),
        DEFAULT_TOLERANCES["m_identity"],
        f"3 <ab M Psi> equals <Psi M Psi> for 20 random symmetric weight tables on {k} nodes",
    )


def _check_kernels(report: Report, rng) -> None:
    space = slater.MeasuredSpace.uniform(6)
    phi = slater.gamma2_factors(rng.standard_normal((6, 2)), space).whitened()
    k = len(space)

    factors = slater.gamma2_factors(phi, space)
    g2 = factors.dense()
    expansion = factors.pair_expansion()
    scale = max(1.0, float(np.abs(expansion).max()))
    report.add_within(
        "gamma2_expansion_match", np.abs(g2 - expansion) / scale, DEFAULT_TOLERANCES["gamma2_expansion"],
        "order-2 kernel equals its closed-form expansion (difference products "
        "plus wedge product term) entrywise for centered orthonormal input, K = 6",
    )

    big_scale = max(1.0, float(np.abs(g2).max()))
    four = g2.reshape(k, k, k, k)
    g1 = factors.gamma1()
    parts = [
        g2 - g2.T,
        four + np.transpose(four, (1, 0, 2, 3)),
        four + np.transpose(four, (0, 1, 3, 2)),
        g1 - g1.T,
    ]
    report.add_within(
        "kernel_symmetries", [np.abs(part) / big_scale for part in parts],
        DEFAULT_TOLERANCES["kernel_symmetry"],
        "order-2 kernel is symmetric as a matrix and antisymmetric within "
        "each node pair; order-1 kernel is symmetric",
    )

    # the kernel has rank 3: three pivots, then a block of roundoff.  The elimination runs until
    # every entry left is at most psd_floor / K^2, so the discs of the block left lie within
    # +-psd_floor and no eigenvalue below -psd_floor can hide there.
    floor = DEFAULT_TOLERANCES["psd_floor"]
    lowest = float(symplectic._inertia(g2, floor / len(g2))[3])
    report.add_within(
        "gamma2_psd", -lowest, floor,
        "order-2 kernel pivots, of its symmetric elimination down to entries of psd_floor / K^2, "
        "and the Gershgorin discs of the block left are nonnegative up to roundoff (positive "
        f"semidefinite; definiteness can fail on degenerate nodes); the least is {lowest!r}",
    )

    orbital = phi[:, None, 0] * phi[None, :, 0] + phi[:, None, 1] * phi[None, :, 1]
    report.add_within(
        "gamma1_orbital_sum",
        np.abs(g1 - orbital) / max(1.0, float(np.abs(orbital).max())),
        DEFAULT_TOLERANCES["gamma1_orbital"],
        "normalized order-1 kernel equals the orbital sum over both "
        "components for centered orthonormal input",
    )


def _check_spin(report: Report, rng) -> None:
    p = spin.exchange_operator()
    # column 2i + j of the swap is the basis state |ji>
    swap = np.eye(4)[[0, 2, 1, 3]]
    report.add_within(
        "exchange_operator_swap", [np.abs(p - swap), np.abs(_cmatmul(p, p) - np.eye(4))], 0.0,
        "P|ij> = |ji> on all four basis states and P^2 = Id, exactly",
    )

    e000 = np.zeros(8)
    e000[0] = 1.0
    doublet = np.zeros(8)
    doublet[2] = 1.0 / math.sqrt(2.0)  # |010>
    doublet[4] = -1.0 / math.sqrt(2.0)  # |100>
    deviations = [
        abs(spin.s_squared_expectation(e000) - 15.0),
        abs(spin.s_squared_expectation(doublet) - 3.0),
    ]
    report.add_within(
        "s_squared_expectations", deviations, DEFAULT_TOLERANCES["spin_values"],
        "double Pauli sum gives 15 on |000> (s = 3/2) and 3 on the doublet "
        "(|010> - |100>)/sqrt(2) (s = 1/2); both equal 4 s (s+1)",
    )


_CHECKS = (
    _check_collapse,
    _check_tr1_directions,
    _check_morphism,
    _check_rho_traces,
    _check_affine_det,
    _check_generator,
    _check_nullspace,
    _check_kashiwara,
    _check_moments,
    _check_kernels,
    _check_spin,
)


def _suite_rng(seed: int, check):
    """Suite `check`'s own generator under `seed`, keyed by its name's CRC-32, not its place in _CHECKS.

    The name is the unwrapped suite's, so a wrapper that sets `__wrapped__`
    (functools.wraps, bench/tracing.py) draws what the suite draws.
    """
    return np.random.default_rng([seed, zlib.crc32(inspect.unwrap(check).__name__.encode())])


def run_verify(seed: int = DEFAULT_SEED) -> Report:
    """Run every check suite at DEFAULT_TOLERANCES, each on its own seeded generator; deterministic."""
    report = Report(command="verify", seed=seed)
    for check in _CHECKS:
        check(report, _suite_rng(seed, check))
    return report
