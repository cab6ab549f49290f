"""Exact higher Gaussian maps and second fundamental form data on
hyperelliptic curves.

Everything is computed in exact rational arithmetic: kernels and ranks of
the higher Gaussian maps of the canonical bundle (two independent routes),
local jet expansions at a Weierstrass point, and licensed evaluations of
the second fundamental form pairing on higher Schiffer variations.
"""

from .curve import (
    Curve,
    canonical_derivatives,
    curve_from_json,
    default_curve,
    new_curve,
    random_curve,
)
from .errors import (
    BeyondThreshold,
    DuplicateBranchPoint,
    Falsified,
    FirstBranchPointNotZero,
    GaussmapError,
    IdentityFailed,
    IndexOutOfRange,
    InvalidIndex,
    NoWitnessFound,
    NotInKernel,
    NotInPreviousKernel,
    ThresholdNotExtended,
    TooFewBranchPoints,
)
from .gaussian import (
    FactorizationCheck,
    KernelChain,
    KernelLevel,
    OddMapResult,
    RankRow,
    RankTable,
    b_support_check,
    factorization_check,
    falling,
    is_in_kernel,
    kernel_dimension_formula,
    kernel_via_equations,
    kernel_via_polynomial_oracle,
    max_level,
    odd_kernel_and_rank,
    oracle_residuals,
    rank_formula,
    rank_table,
    wronskian_rank_oracle,
)
from .linalg import kernel_basis, rref
from .quadrics import (
    QuadricI2,
    basis_quadric,
    combine,
    quadric_from_a,
    quadric_from_vector,
    quadric_space_dimension,
    sym_pairs,
    wedge_pairs,
)
from .rationals import Rational, rat_from_string, rat_to_string

__version__ = "0.1.0"

from .reports import (  # noqa: E402  (needs __version__ above)
    CheckItem,
    RunConfig,
    VerificationReport,
    canonical_json_bytes,
    rank_table_csv,
)
from .rho import (  # noqa: E402
    AsymptoticCertificate,
    Certifier,
    CupRank,
    DiagonalResult,
    Functional,
    HyperplaneResult,
    IsotropyResult,
    Mu2CrossCheck,
    Pairing,
    RhoValue,
    SchifferIndex,
    ThresholdInfo,
    asymptotic_classify,
    cup_rank,
    derivative_sum,
    diagonal_functional,
    direction_length,
    isotropy_suite,
    mu2_cross_check,
    rho_pair,
    rho_reduction_vector,
    witness_functional,
    witness_hyperplane,
)
from .suites import THEOREM_IDS, curve_panel, scan_report, verify_theorem  # noqa: E402
