"""Affine determinants, fermion-triple collapse, and affine Slater kernels."""

from .exterior import perm_sign, signed_permutations
from .affine_forms import (
    MultiAffineForm,
    NullspaceResult,
    affine_det,
    affine_det_form,
    antisymmetrize_generator,
    conjecture_nullspace,
    determinant_generator,
)
from .collapse import (
    BASIS_2D,
    ConsistencyError,
    EmbeddedTriple,
    ThetaBlocks,
    collapse,
    collapse_with_morphism,
    embed,
    lambda_tensor,
    rho_trace_A,
    rho_trace_AC,
    theta,
    tr1,
)
from .symplectic import (
    LagrangianTriple,
    SignatureResult,
    kashiwara_index,
    kashiwara_q,
    lagrangian_triple_from_json,
    symplectic_shear,
)
from .slater import (
    Gamma2Factors,
    MeasuredSpace,
    gamma2_factors,
    m_identity_sides,
)
from .spin import PAULI, exchange_operator, s_squared_expectation, s_squared_matrix
from .verification import DEFAULT_SEED, DEFAULT_TOLERANCES, CheckRecord, Report, run_verify

__version__ = "0.1.0"
