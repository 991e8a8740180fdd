"""Verification engine for real hypersurfaces in non-flat complex space forms.

Pointwise tangent-space models carry an almost contact metric structure and
a shape operator; from those the package builds Gauss-equation curvature,
the structure Jacobi operator, commutation condition checks, a catalog of
model hypersurfaces validated against a Riccati integration oracle, and the
scalar jet analysis of tilted (non-Hopf) configurations.  The `hyperlab`
command line emits deterministic JSON or markdown reports over all of it.
"""

__version__ = "0.1.0"

from .tensor_core import (
    DEFAULT_TOL,
    AlmostContactStructure,
    DegenerateSeedError,
    StructuralError,
    TangentSpace,
    build_phi_basis,
    canonical_structure,
    nabla_xi,
    random_structure,
    structure_from_frame,
    validate_acs,
)
from .curvature_engine import (
    CurvatureContext,
    MissingNablaAError,
    NablaAProvider,
    codazzi_residual,
    commutator,
    gauss_curvature,
    jacobi_closed_form,
    jacobi_from_curvature,
    jacobi_operator,
    nabla_l,
)
from .sampling import (
    random_context,
    random_gram,
    random_hopf_context,
    random_hopf_shape,
    random_symmetric_shape,
)
from .hopf_conditions import (
    KER_ETA,
    SPAN_XI,
    VERDICT_HYPOTHESIS_FAILS,
    VERDICT_INDETERMINATE,
    VERDICT_TYPE_A,
    Classification,
    ConditionReport,
    HopfDecomposition,
    NotHopfError,
    TheoremVerdict,
    alpha_vanishes,
    check_l_A_commute,
    check_nabla_xi_l,
    check_phi_l_commute,
    classify,
    decompose_A_xi,
    theorem_pipeline,
)
from .model_catalog import (
    FAMILY_TABLE,
    CatalogError,
    FamilyEntry,
    FocalPointError,
    ModelInstance,
    ModelSpec,
    OracleMismatchError,
    SpectralEntry,
    SpectralTable,
    catalog_rows,
    instantiate,
    principal_curvatures,
    riccati_shape_evolution,
    type_a_nabla_a,
)
from .lemma_lab import (
    NO_WITNESS,
    WITNESSED,
    ContradictionCertificate,
    JetError,
    LocalJet,
    alpha_zero_commutator_norm,
    consistent_jet,
    contradiction_certificate,
    implied_w1_norm_sq,
    jet_from_mapping,
    jet_residuals,
    rotation_coefficients,
    w1_norm_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
