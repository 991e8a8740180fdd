"""Verification engine for real hypersurfaces in non-flat complex space forms.

Pointwise tangent-space models carry an almost contact metric structure and
a shape operator; from those the package builds Gauss-equation curvature,
the structure Jacobi operator, commutation condition checks, a catalog of
model hypersurfaces validated against a Riccati integration oracle, and the
scalar jet analysis of tilted (non-Hopf) configurations.  The `hyperlab`
command line emits deterministic JSON or markdown reports over all of it.

Names are exported lazily (PEP 562): each loads its module on first use, so
importing the package, the catalog or the jet analysis does not load numpy.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "checks": ("DEFAULT_TOL", "VERDICT_HYPOTHESIS_FAILS", "VERDICT_INDETERMINATE",
               "VERDICT_TYPE_A", "ConditionReport", "alpha_vanishes"),
    "tensor_core": ("AlmostContactStructure", "DegenerateSeedError", "StructuralError",
                    "build_phi_basis", "canonical_structure", "random_structure",
                    "structure_from_frame", "validate_acs"),
    "curvature_engine": ("CurvatureContext", "MissingNablaAError", "NablaAProvider",
                         "codazzi_residual", "commutator", "gauss_curvature",
                         "jacobi_closed_form", "jacobi_from_curvature", "jacobi_operator",
                         "nabla_l"),
    "sampling": ("random_context", "random_gram", "random_hopf_context", "random_hopf_shape",
                 "random_symmetric_shape"),
    "hopf_conditions": ("KER_ETA", "SPAN_XI", "Classification", "HopfDecomposition",
                        "NotHopfError", "TheoremVerdict", "check_l_A_commute",
                        "check_nabla_xi_l", "check_phi_l_commute", "classify",
                        "decompose_A_xi", "theorem_pipeline"),
    "model_catalog": ("FAMILY_TABLE", "CatalogError", "FamilyEntry", "FocalPointError",
                      "ModelInstance", "ModelSpec", "OracleMismatchError", "SpectralEntry",
                      "SpectralTable", "catalog_rows", "instantiate", "principal_curvatures",
                      "riccati_shape_evolution", "type_a_nabla_a"),
    "lemma_lab": ("NO_WITNESS", "WITNESSED", "ContradictionCertificate", "JetError",
                  "LocalJet", "alpha_zero_commutator_norm", "consistent_jet",
                  "contradiction_certificate", "jet_from_mapping", "jet_residuals",
                  "w1_norm_identity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the engine's modules are exported by name as well; checks only holds shared names
_SUBMODULES = tuple(module for module in _EXPORTS if module != "checks")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
