"""Import layering: the array-free commands start without numpy, and the
package exports every public name lazily."""
import subprocess
import sys

import pytest

import hyperlab

PUBLIC = [
    "AlmostContactStructure", "CatalogError", "Classification", "ConditionReport",
    "ContradictionCertificate", "CurvatureContext", "DEFAULT_TOL", "DegenerateSeedError",
    "FAMILY_TABLE", "FamilyEntry", "FocalPointError", "HopfDecomposition", "JetError",
    "KER_ETA", "LocalJet", "MissingNablaAError", "ModelInstance", "ModelSpec", "NO_WITNESS",
    "NablaAProvider", "NotHopfError", "OracleMismatchError", "SPAN_XI", "SpectralEntry",
    "SpectralTable", "StructuralError", "TheoremVerdict",
    "VERDICT_HYPOTHESIS_FAILS", "VERDICT_INDETERMINATE", "VERDICT_TYPE_A", "WITNESSED",
    "alpha_vanishes", "alpha_zero_commutator_norm", "build_phi_basis", "canonical_structure",
    "catalog_rows", "check_l_A_commute", "check_nabla_xi_l", "check_phi_l_commute", "classify",
    "codazzi_residual", "commutator", "consistent_jet", "contradiction_certificate",
    "curvature_engine", "decompose_A_xi", "gauss_curvature", "hopf_conditions", "instantiate",
    "jacobi_closed_form", "jacobi_from_curvature", "jacobi_operator", "jet_from_mapping",
    "jet_residuals", "lemma_lab", "model_catalog", "nabla_l", "nabla_xi",
    "principal_curvatures", "random_context", "random_gram", "random_hopf_context",
    "random_hopf_shape", "random_structure", "random_symmetric_shape",
    "riccati_shape_evolution", "sampling", "structure_from_frame", "tensor_core",
    "theorem_pipeline", "type_a_nabla_a", "validate_acs", "w1_norm_identity",
]


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["jet", "--alpha", "1", "--beta", "0.5", "--c", "4"],
    ["oracle", "riccati", "--kappa", "1", "--r", "0.9"],
])
def test_array_free_commands_never_import_numpy(child_env, argv):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hyperlab", *argv,
                           "--deterministic"],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "hyperlab.entry" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_package_exports_every_public_name():
    assert hyperlab.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(hyperlab, name) is not None
    namespace = {}
    exec("from hyperlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert hyperlab.ModelSpec is hyperlab.model_catalog.ModelSpec
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(hyperlab, "no_such_name")


def test_ker_eta_basis_needs_no_condition_layer(child_env):
    # the Hopf split that seeds the basis lives in curvature_engine itself
    probe = ("import sys, numpy as np\n"
             "from hyperlab.curvature_engine import CurvatureContext\n"
             "from hyperlab.tensor_core import canonical_structure\n"
             "a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])\n"
             "a[0, 4] = a[4, 0] = 0.5\n"
             "basis = CurvatureContext(canonical_structure(3), a, 4.0).ker_eta_basis\n"
             "print(basis.shape, 'hyperlab.hopf_conditions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(5,", "4)", "False"]
