"""Invariants and precompactness certificates for compact Heisenberg manifolds.

Submodules: ``linalg`` (exact/float small matrices), ``lattice`` (first
minima, enumeration, Minkowski reduction), ``heisenberg`` (group, metric
invariants, curvature), ``compactness`` (certificates, inequality
verifiers), ``cli`` (the ``heis`` command).
"""

from .compactness import (
    InequalityReport,
    MetricFamily,
    PrecompactnessCertificate,
    SweepResult,
    bhatia_sweep,
    counterexample_family,
    counterexample_spectrum,
    heisenberg_certificate,
    heisenberg_type_certificate,
    key_inequality_sweep,
    mahler_certificate,
    random_symplectic_integer,
    representative_separation_check,
    verify_bhatia_k1,
    verify_key_inequality,
)
from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    HeisError,
    NotHeisenbergType,
    NotInGr,
    NotOrthonormal,
    NotPositiveDefinite,
    NotSimilitude,
    NotSymmetric,
    OddDimension,
    PairingFailure,
    SameCoset,
    Singular,
    UnsupportedPlane,
)
from .heisenberg import (
    AutomorphismDescriptor,
    HeisenbergElement,
    KaplanSpectrum,
    LieAlgebraVector,
    NormalizedMetric,
    automorphism_matrix,
    bracket,
    curvature_upper_bound,
    d_spectrum,
    delta_matrix,
    exp_map,
    gamma_r_membership,
    group_inv,
    group_mul,
    is_heisenberg_type,
    kaplan_matrix,
    log_map,
    pullback_metric,
    same_symplectic_orbit,
    sectional_curvature,
    symplectic_j,
    symplectic_similitude_check,
)
from .lattice import (
    DivisibilityTuple,
    MinkowskiReport,
    MinkowskiViolation,
    ShortVectorResult,
    UnimodularMatrix,
    enumerate_below,
    first_minimum,
    first_minimum_r,
    minkowski_membership,
    minkowski_reduce,
    psi_r,
)
from .linalg import (
    FLOAT,
    RATIONAL,
    DenseMatrix,
    SingularSpectrum,
    SpdMatrix,
    Spectrum,
    congruence,
    determinant,
    eigenvalues_symmetric,
    identity,
    ldl_decompose,
    matrix_from_json,
    matrix_inverse,
    matrix_to_json,
    max_norm,
    quadratic_form,
    singular_values,
)

__version__ = "0.1.0"
