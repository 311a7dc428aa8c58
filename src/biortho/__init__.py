"""Biorthonormal eigensystem diagnostics for non-Hermitian matrices.

Given a square complex matrix, the package clusters its spectrum,
builds right and left kernel and root-subspace data, checks the
conditions under which a biorthonormal eigenvector system exists, and
constructs that system when it does.  Inner products are conjugate
linear in the first argument throughout.
"""

from .biorthogonal import (
    BiorthonormalSystem,
    BiorthoPair,
    SkewLinkVerdict,
    biorthonormalize,
    expand,
    resolution_of_identity,
    skew_link_check,
)
from .conditions import (
    FAIL,
    PASS,
    STRUCTURAL_NOTES,
    VACUOUS,
    ConditionVerdict,
    DiagnosisReport,
    NormalityReport,
    check_conditions,
    residual_identity_check,
    sigma_set,
)
from .errors import (
    BiorthoError,
    ClusteringError,
    EigenIterationError,
    EigenvectorSpanError,
    IncompleteSystemError,
    MatrixParseError,
    NotDiagonalizableError,
    RootSpaceMismatchError,
    SkewLinkFailureError,
    StudyError,
)
from .gallery import (
    FAMILIES,
    FamilySpec,
    SizeMetrics,
    TruncationStudy,
    generate,
    truncation_study,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    as_matrix,
    condition_number,
    nullspace,
    phase_normalize,
    range_space,
    subspace_angle,
)
from .mmio import read_matrix, write_matrix
from .report import SCHEMA_VERSION, ReportDocument, matrix_digest
from .rootspace import RootSpace, SpanReport, root_space, span_report
from .spectral import (
    EigenvalueCluster,
    PointSpectrum,
    point_spectrum,
)

__version__ = "0.1.0"
