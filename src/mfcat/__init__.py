"""Exact computations with matrix factorizations of hypersurface singularities."""

from .ainfinity import (
    AInfStructure,
    build_contraction,
    clifford_check,
    transfer_minimal_model,
)
from .complexes import cohomology_mod_k, cohomology_over_R, hom_cohomology, hom_complex, is_quasi_iso
from .errors import (
    ContextMismatchError,
    InputParseError,
    MfcatError,
    PreconditionError,
    StabilizationError,
    VerificationError,
)
from .factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    cone,
    direct_sum,
    dual,
    external_tensor,
    shift,
    trivial_mf,
    verify_mf,
)
from .fields import QQ, PrimeField, RationalField
from .hochschild import (
    JacobianReport,
    calabi_yau_parity_check,
    diagonal_hh_crosscheck,
    hochschild_cohomology,
    hochschild_homology,
    jacobian_report,
)
from .series import RingCtx, Series, difference_quotient, monomial_basis
from .stabilize import (
    KoszulData,
    decompose_potential,
    make_koszul_mf,
    stabilize_residue_field,
    stabilized_diagonal,
)
from .superops import SuperOp, graded_commutator
from .transform import transform_mod_k_dims

__version__ = "0.1.0"
