"""Seeded check suites over all library invariants, with JSON reports.

Every check draws its random inputs from one generator seeded by the run
configuration, so a (seed, tolerances) pair always produces byte-identical
serialized reports.  Volatile data such as wall time is deliberately kept
out of the serialized form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import affine_forms, slater, spin, symplectic
from .collapse import (
    BASIS_2D,
    _cmul,
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
    "kashiwara_zero": 1e-8,
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
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

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
    command: str
    seed: int
    tolerances: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, name, passed, measured, tolerance, detail) -> CheckRecord:
        record = CheckRecord(name, bool(passed), float(measured), float(tolerance), detail)
        self.checks.append(record)
        return record

    def add_within(self, name, measured, tolerance, detail) -> CheckRecord:
        """A record of the largest of `measured`'s gaps, passing when it is <= tolerance.

        `measured` is one gap, an array of per-sample gaps, or a list of such
        arrays of different shapes.  The maximum propagates NaN, so a NaN in
        any part fails.
        """
        if isinstance(measured, list):
            measured = [np.max(part) for part in measured]
        worst = float(np.max(measured))
        return self.add(name, worst <= tolerance, worst, tolerance, detail)

    @property
    def ok(self) -> bool:
        return all(record.passed for record in self.checks)

    def to_json_dict(self) -> dict:
        failed = sum(1 for record in self.checks if not record.passed)
        return {
            "command": self.command,
            "seed": self.seed,
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
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
    """(`_rel` gap, collapsed scalar, det(b-a, c-a)) for one triple or a batch."""
    scalar = collapse(a, b, c)
    direct = affine_forms.affine_det(np.stack([a, b, c], axis=-2))
    return _rel(scalar, direct), scalar, direct


def morphism_gap(a, b, c, sigma):
    """`_rel` gap of collapse(sigma a, sigma b, sigma c) to det(sigma) collapse(a, b, c)."""
    # _cmul keeps the bits of the scalar product det(sigma) * collapse.
    expected = _cmul(np.linalg.det(sigma), collapse(a, b, c))
    return _rel(collapse_with_morphism(a, b, c, sigma), expected)


def rho_basis_values():
    """|rho_trace_AC| on the four computational-basis pairs."""
    b, bp = np.array(list(itertools.product(BASIS_2D, repeat=2))).transpose(1, 0, 2)
    return _abs(rho_trace_AC(b, bp))


def moment_gaps(phi, factors):
    """(|<Psi>| / scale^3, gap of <Psi^2> to 6 det G, <Psi^2>, det G), as arrays.

    `factors` is `slater.gamma2_factors(phi, space)`, G its centred Gram
    matrix and scale is max(1, largest |phi| entry).  <Psi^2> is the sum
    <M, N>, so its gap |<Psi^2> - 6 det G| is measured against the size of
    that sum, sum |M o N|: a sum that is exactly 0 gives 0 and passes,
    however large phi is.  For a stack of node sets, phi is (B, K, 2),
    zero-padded like the factors' values, and each value has shape (B,).
    """
    scale = np.maximum(1.0, np.abs(phi).max(axis=(-2, -1)))
    one = np.abs(factors.one_point()) / scale**3
    two = factors.two_point()
    gram_det = np.linalg.det(factors.gram)
    gap = np.abs(two - 6.0 * gram_det)
    size = np.abs(factors.moments * factors.pair_moments()).sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(gap != 0.0, gap / size, 0.0)
    return one, cross, two, gram_det


def span_residual(result) -> float:
    """Distance of the unit affine-determinant coefficients on C^dim from the span of a NullspaceResult.

    Those coefficients are the sign pattern of the one tuple (0, 1, ..., dim), and the basis forms
    have disjoint supports, so the distance is |1 - c| for the c rows equal to that tuple.
    """
    return float(abs(1 - np.all(result.tuples == np.arange(result.dim + 1), axis=1).sum()))


def _check_collapse(report: Report, rng, tol) -> None:
    report.add_within(
        "collapse_pipeline_equals_affine_det",
        collapse_gap(*_complex_normal(rng, (3, 1000, 2)))[0],
        tol["collapse_pipeline"],
        "embed -> wedge tensor -> reindex -> partial trace -> sum matches "
        "det(b-a, c-a) on 1000 random complex triples",
    )


def _wedge2(u, v):
    # _cmul keeps the bits of the scalar complex products.
    return _cmul(u[..., 0], v[..., 1]) - _cmul(u[..., 1], v[..., 0])


def _check_tr1_directions(report: Report, rng, tol) -> None:
    u = np.array([0.0, 1.0, -1.0])
    v = np.array([1.0, 0.0, -1.0])
    w = np.array([1.0, -1.0, 0.0])
    a, b, c = _complex_normal(rng, (3, 100, 2))
    # axis 1 runs over the patterns (a,a,c), (a,b,b), (a,b,a); args holds their
    # first, second and third states
    args = [np.stack(triple, axis=1) for triple in ((a, a, a), (a, b, b), (c, b, a))]
    ab = _wedge2(a, b)
    factor = np.stack([_wedge2(c, a), ab, ab], axis=1)[..., None]
    direction = np.array([u, w, v])
    got = tr1(theta(lambda_tensor(*args)))
    residual = np.abs(got - factor * direction).max(axis=-1)
    report.add_within(
        "tr1_degenerate_directions", residual / np.maximum(1.0, _abs(factor[..., 0])), tol["tr1_directions"],
        "repeated-argument triples give the wedge-scalar factor times "
        "(0,1,-1), (1,-1,0), (1,0,-1) for patterns (a,a,c), (a,b,b), (a,b,a)",
    )
    report.add_within(
        "tr1_w_equals_v_minus_u", np.abs(w - (v - u)), 0.0,
        "the three degenerate directions satisfy (1,-1,0) = (1,0,-1) - (0,1,-1) exactly",
    )


def _check_morphism(report: Report, rng, tol) -> None:
    a, b, c = _complex_normal(rng, (3, 500, 2))
    sigma = _complex_normal(rng, (500, 2, 2))
    report.add_within(
        "morphism_covariance", morphism_gap(a, b, c, sigma), tol["morphism_covariance"],
        "applying a 2x2 map to all three states multiplies the collapsed "
        "scalar by its determinant (500 random cases)",
    )


def _check_rho_traces(report: Report, rng, tol) -> None:
    report.add_within(
        "rho_trace_ac_basis_zero", rho_basis_values(), tol["rho_basis"],
        "the doubly-traced kernel vanishes on all four computational-basis pairs",
    )

    b, bp = _complex_normal(rng, (2, 100, 2))
    summed = rho_trace_AC(b, bp)
    # _cmul keeps the bits of the scalar complex product.
    closed = _cmul(2.0 * (b[:, 0] + b[:, 1] - 1.0), bp[:, 0] + bp[:, 1] - 1.0)
    report.add_within(
        "rho_trace_ac_closed_form", _rel(summed, closed), tol["rho_closed_form"],
        "the four-term basis sum equals 2 (b1+b2-1)(b'1+b'2-1), which is "
        "nonzero for generic continuous arguments",
    )

    b, c, bp, cp = _complex_normal(rng, (4, 100, 2))
    nonzero = int(np.count_nonzero(_abs(rho_trace_A(b, c, bp, cp)) > 1e-12))
    b, c, bp, cp = np.array(list(itertools.product(BASIS_2D, repeat=4))).transpose(1, 0, 2)
    basis_matrix_max = float(_abs(rho_trace_A(b, c, bp, cp)).max())
    report.add(
        "rho_trace_a_generic_nonzero",
        nonzero >= 99,
        float(nonzero),
        99.0,
        "singly-traced kernel is nonzero as a kernel on continuous arguments "
        f"(count out of 100); on basis arguments the 16-entry matrix is "
        f"identically zero (max |entry| = {basis_matrix_max:g}) because two "
        "of the three points always coincide",
    )


def _check_affine_det(report: Report, rng, tol) -> None:
    gaps = []
    for d in (2, 3, 4):
        pts = _complex_normal(rng, (d + 1, d))
        perms, signs = zip(*signed_permutations(d + 1))
        dets = affine_forms.affine_det(pts[list(perms)])
        signs = np.array(signs)
        # perms[0] is the identity, so dets[0] is the unpermuted determinant
        gaps.append(_rel(dets, signs * dets[0]))
    report.add_within(
        "affine_det_antisymmetry", gaps, tol["affine_antisymmetry"],
        "exhaustive sign covariance under all (d+1)! argument permutations, d = 2, 3, 4",
    )

    gaps = []
    for d in (2, 3, 4):
        pts = _complex_normal(rng, (20, d + 1, d))
        shift = _complex_normal(rng, (20, 1, d))
        shifted, unshifted = affine_forms.affine_det(np.stack([pts + shift, pts]))
        gaps.append(_rel(shifted, unshifted))
    report.add_within(
        "affine_det_translation_invariance", gaps, tol["translation_invariance"],
        "adding a fixed vector to every point leaves the affine determinant unchanged",
    )

    a, b, c = _complex_normal(rng, (3, 100, 2))
    expanded = _wedge2(b - a, c - a)
    report.add_within(
        "affine_det_coordinate_expansion",
        _rel(affine_forms.affine_det(np.stack([a, b, c], axis=1)), expanded),
        tol["coordinate_expansion"],
        "d = 2 closed form (xB-xA)(yC-yA) - (xC-xA)(yB-yA)",
    )


def _check_generator(report: Report, rng, tol) -> None:
    anti = affine_forms.antisymmetrize_generator(affine_forms.determinant_generator(3, 4))
    target = affine_forms.affine_det_form(3)
    report.add_within(
        "generator_antisymmetrization",
        np.abs(anti.coeffs + 6.0 * target.coeffs),
        tol["generator_coefficients"],
        "antisymmetrizing det of the first three of four arguments over S_4 "
        "gives -6 times the affine determinant, coefficient by coefficient",
    )


def _check_nullspace(report: Report, rng, tol) -> None:
    results = {degree: affine_forms.conjecture_nullspace(2, 3, degree) for degree in (2, 1, 0)}
    mismatches = sum(results[degree].dimension != want for degree, want in {2: 1, 1: 0, 0: 0}.items())
    report.add_within(
        "nullspace_dimensions_d2_m3", mismatches, 0.0,
        "antisymmetric multi-affine forms in 3 arguments on C^2: dimension 1 "
        "in the degree-2 sector, 0 in degrees 1 and 0 (count of mismatches)",
    )
    report.add_within(
        "nullspace_contains_affine_det", span_residual(results[2]), tol["span_residual"],
        "projection residual of the affine determinant coefficients onto the "
        "degree-2 nullspace basis",
    )


def _check_kashiwara(report: Report, rng, tol) -> None:
    axes = ([[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]])
    coordinates = (np.vstack([np.eye(2), np.zeros((2, 2))]), np.vstack([np.zeros((2, 2)), np.eye(2)]),
                   np.vstack([np.eye(2), np.eye(2)]))
    fixed = {1: [axes, (axes[1], axes[0], axes[2])], 2: [coordinates]}
    drift = 0
    for n, triples in fixed.items():
        bases = np.array(triples, dtype=float)  # (triple, subspace, 2n, n)
        s = symplectic.symplectic_shear(rng.standard_normal((20, 2 * n, 2 * n)))
        changes = np.triu(rng.standard_normal((20, 3, n, n))) + 2.0 * np.eye(n)
        # columns scaled by 1e-3..1e3: without its QR step the index misjudges which eigenvalues are 0
        changes *= 10.0 ** rng.uniform(-3, 3, (20, 3, 1, n))
        # one stack: the fixed triples, then 20 moved copies of the first, each compared with it
        moved = s[:, None] @ bases[0] @ changes
        stack = symplectic.LagrangianTriple(*np.concatenate([bases, moved]).swapaxes(0, 1))
        sig = symplectic.kashiwara_index(stack, zero_tol=tol["kashiwara_zero"]).signature
        drift += int(np.count_nonzero(sig[len(triples) :] != sig[0]))
        if n == 1:
            example, flipped = sig[:2]
    report.add(
        "kashiwara_example_signature",
        example == -1,
        float(example),
        -1.0,
        "(x-axis, y-axis, diagonal) in R^2 has signature -1 under the "
        "(p, q)-block form convention",
    )
    report.add(
        "kashiwara_odd_permutation_flip",
        flipped == 1,
        float(flipped),
        1.0,
        "swapping the first two subspaces negates the signature",
    )
    report.add_within(
        "kashiwara_invariance", drift, 0.0,
        "signature unchanged by 20 random symplectic transformations with "
        "random basis changes, n = 1 and 2 (count of violations)",
    )


def _node_sets(rng, count, max_nodes):
    """Sizes, weights and phi of count sets of 4..max_nodes nodes, zero-padded to max_nodes."""
    sizes = rng.integers(4, max_nodes + 1, count)
    present = np.arange(max_nodes) < sizes[:, None]
    weights = np.where(present, rng.random((count, max_nodes)) + 0.1, 0.0)
    phi = np.where(present[..., None], rng.standard_normal((count, max_nodes, 2)), 0.0)
    return sizes, weights / weights.sum(axis=1, keepdims=True), phi


def _padded_factors(sizes, weights, phi) -> slater.Gamma2Factors:
    """`Gamma2Factors` of `_node_sets`' sets, values zero past each set's size.

    One `gamma2_factors` call per node count keeps each set's single-call
    bits; one matmul over the padded stack would not.
    """
    values, moments = np.zeros_like(phi), np.empty((len(sizes), 3, 3))
    for k in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == k)
        space = slater.MeasuredSpace(weights[rows, :k])
        values[rows, :k], moments[rows] = slater.gamma2_factors(phi[rows, :k], space)
    return slater.Gamma2Factors(values, moments)


def _check_moments(report: Report, rng, tol) -> None:
    sizes, weights, phi = _node_sets(rng, 50, 12)
    one, two, _, _ = moment_gaps(phi, _padded_factors(sizes, weights, phi))
    report.add_within(
        "one_point_vanishes", one, tol["one_point"],
        "triple-weighted mean of the antisymmetric wave function is zero "
        "(50 random spaces, scaled by the cubed component bound)",
    )
    report.add_within(
        "two_point_gram_identity", two, tol["two_point"],
        "mean of Psi^2 equals 6 det(centered Gram) on 50 random spaces",
    )

    space = slater.MeasuredSpace(weights[0, : sizes[0]])
    reduced = slater.gamma2_factors(phi[0, : sizes[0]], space).whitened()
    unit = abs(slater.gamma2_factors(reduced, space).two_point() / 6.0 - 1.0)
    report.add_within(
        "two_point_orthonormal_unit", unit, tol["two_point"],
        "centered orthonormal components give mean of Psi^2 equal to 6",
    )

    sizes, weights, phi = _node_sets(rng, 20, 8)
    values = _padded_factors(sizes, weights, phi).values
    # symmetric tables, unmasked: past each set's nodes the weights are 0, and every entry is weighted
    raw = rng.standard_normal((20, 8, 8, 8))
    m_tables = sum(np.transpose(raw, (0, *perm)) for perm in itertools.permutations((1, 2, 3)))
    report.add_within(
        "symmetric_m_identity", _rel(*slater.m_identity_sides(values, weights, m_tables)), tol["m_identity"],
        "3 <ab M Psi> equals <Psi M Psi> for 20 random symmetric weight tables",
    )


def _check_kernels(report: Report, rng, tol) -> None:
    space = slater.MeasuredSpace.uniform(6)
    phi = slater.gamma2_factors(rng.standard_normal((6, 2)), space).whitened()
    k = len(space)

    factors = slater.gamma2_factors(phi, space)
    g2 = factors.dense()
    expansion = factors.pair_expansion()
    scale = max(1.0, float(np.abs(expansion).max()))
    report.add_within(
        "gamma2_expansion_match", np.abs(g2 - expansion) / scale, tol["gamma2_expansion"],
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
        "kernel_symmetries", [np.abs(part) / big_scale for part in parts], tol["kernel_symmetry"],
        "order-2 kernel is symmetric as a matrix and antisymmetric within "
        "each node pair; order-1 kernel is symmetric",
    )

    min_eig = float(np.linalg.eigvalsh(g2).min())
    report.add(
        "gamma2_psd",
        min_eig >= -tol["psd_floor"],
        min_eig,
        -tol["psd_floor"],
        "order-2 kernel eigenvalues are nonnegative up to roundoff "
        "(positive semidefinite; definiteness can fail on degenerate nodes)",
    )

    orbital = phi @ phi.T
    report.add_within(
        "gamma1_orbital_sum",
        np.abs(g1 - orbital) / max(1.0, float(np.abs(orbital).max())),
        tol["gamma1_orbital"],
        "normalized order-1 kernel equals the orbital sum over both "
        "components for centered orthonormal input",
    )


def _check_spin(report: Report, rng, tol) -> None:
    p = spin.exchange_operator()
    # column 2i + j of the swap is the basis state |ji>
    swap = np.eye(4)[[0, 2, 1, 3]]
    report.add_within(
        "exchange_operator_swap", [np.abs(p - swap), np.abs(p @ p - np.eye(4))], 0.0,
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
        "s_squared_expectations", deviations, tol["spin_values"],
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


def run_verify(seed: int = DEFAULT_SEED, tolerances: dict | None = None) -> Report:
    """Run every check suite with one seeded generator; deterministic."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(tolerances)
    report = Report(command="verify", seed=seed, tolerances=tol)
    rng = np.random.default_rng(seed)
    for check in _CHECKS:
        check(report, rng, tol)
    return report
