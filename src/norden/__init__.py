"""Verification engine for the differential geometry of quasi-Kahler
manifolds with Norden metric: builds the natural connection with totally
skew-symmetric torsion, computes the associated curvature tensors and scalar
curvatures, and certifies the identity catalog numerically on left-invariant
Lie-group models."""

from .curvature import (
    bianchi_residual,
    metric_pairing,
    pi_forms,
    ricci_and_scalars,
    riemann,
    symmetry_panel,
    tensor_H,
    tensor_P,
)
from .geometry import (
    ClassLabel,
    Classification,
    ScalarPanel,
    classify,
    compute_nabla_J,
)
from .manifests import (
    ManifestError,
    ManifestFormatError,
    ManifestNotFoundError,
    ManifestShapeError,
    ManifoldManifest,
    bundled_manifest_path,
    load_manifest,
    save_manifest,
)
from .manifolds import (
    InvalidManifoldError,
    LieFrameManifold,
    ValidationOutcome,
    canonical_norden_pair,
    covariant_derivative,
    levi_civita,
    validate_manifold,
)
from .search import SearchConfig, SearchStats, SearchTarget, search_w3_examples
from .suite import (
    CHECK_CATALOG,
    SUITE_VERSION,
    CheckResult,
    VerificationReport,
    build_context,
    run_suite,
)
from .tensors import (
    DEFAULT_TOLERANCE,
    contract,
    cyclic_sum3,
    residual,
    scalar_residual,
)

__version__ = "0.1.0"
