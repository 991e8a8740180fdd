"""Tilted-configuration scalar calculus: jets, residual rows, branch certificates."""
import math

import numpy as np
import pytest

from hyperlab import (
    NO_WITNESS,
    WITNESSED,
    CurvatureContext,
    JetError,
    LocalJet,
    canonical_structure,
    jacobi_operator,
    alpha_zero_commutator_norm,
    consistent_jet,
    contradiction_certificate,
    implied_w1_norm_sq,
    jet_from_mapping,
    jet_residuals,
    rotation_coefficients,
    shape_connection_rows,
)
from hyperlab.lemma_lab import JET_SCALAR_MAX


def test_jet_preconditions():
    with pytest.raises(JetError):
        LocalJet(alpha=0.0, beta=1.0, c=4.0)
    with pytest.raises(JetError):
        LocalJet(alpha=1.0, beta=0.0, c=4.0)
    with pytest.raises(JetError):
        LocalJet(alpha=1.0, beta=-1.0, c=4.0)
    with pytest.raises(JetError):
        LocalJet(alpha=1.0, beta=1.0, c=0.0)


def test_jet_defaults_fill_closed_forms():
    jet = LocalJet(alpha=1.0, beta=2.0, c=4.0)
    k1, k2 = rotation_coefficients(1.0, 2.0, 4.0)
    assert jet.kappa1 == k1 == -4.0
    assert jet.kappa2 == k2
    assert jet.d_alpha == {"xi": 0.0, "U": 0.0, "phiU": 0.0}
    assert jet.d_beta == {"xi": 0.0, "U": 0.0, "phiU": 0.0}


def test_rotation_coefficients_spot():
    k1, k2 = rotation_coefficients(0.5, 1.0, 4.0)
    assert k1 == -2.0
    # -4b + (c/4ab)(c/4a - b^2/a) at a=.5, b=1, c=4: -4 + 2*(2 - 2) = -4
    assert k2 == -4.0
    with pytest.raises(JetError):
        rotation_coefficients(0.0, 1.0, 4.0)


def test_shape_connection_rows():
    table = shape_connection_rows(0.5, 1.0, 4.0)
    assert table.shape == {"A-U-U": 0.0, "A-U-xi": 1.0, "A-phiU-phiU": -2.0}
    assert len(table.connection) == 9
    assert table.connection[("xi", "xi")] == {"phiU": 1.0}
    assert table.connection[("xi", "U")] == {"W1": 1.0}
    assert table.connection[("phiU", "U")] == {"W3": 1.0, "xi": -2.0}
    block = table.to_jsonable()
    assert "nabla[xi]U" in block["connection"]
    with pytest.raises(JetError):
        shape_connection_rows(0.0, 1.0, 4.0)


def test_alpha_zero_commutator_is_beta_squared():
    for beta in (0.0, 0.25, 1.0, 1.5, 3.0):
        for c in (-8.0, -4.0, -1.0, 1.0, 4.0, 8.0):
            assert alpha_zero_commutator_norm(c, beta) == beta * beta


def test_consistent_jet_passes_every_row():
    jet = consistent_jet(0.8, 1.3, -4.0)
    rows = jet_residuals(jet, tol=1e-12)
    assert all(r.passed for r in rows)
    names = [r.name for r in rows]
    assert names == sorted(names)
    assert "k3-dichotomy" in names
    # CH scalars at moderate size imply a negative |W1|^2: row must be absent
    assert jet.w1_norm_sq is None
    assert "w1-norm-identity" not in names


def test_consistent_jet_with_witnessable_scalars_carries_w1():
    jet = consistent_jet(2.0, 0.5, 4.0)
    assert jet.w1_norm_sq is not None
    rows = {r.name: r for r in jet_residuals(jet, tol=1e-12)}
    assert rows["w1-norm-identity"].passed
    assert {"dalpha-phiW2-k3", "dalpha-W3-k3", "dbeta-phiW1-k3",
            "ddbeta-phiU-xi", "ddalpha-phiU-U"} <= set(rows)


def test_consistent_jet_nonzero_kappa3_survives_only_dichotomy():
    jet = consistent_jet(0.7, 0.9, 4.0, kappa3=0.3)
    rows = {r.name: r for r in jet_residuals(jet, tol=1e-12)}
    failing = {name for name, r in rows.items() if not r.passed}
    assert failing == {"k3-dichotomy"}
    want = abs((0.9 / 0.7) * (4.0 - 4.0 * 0.7 ** 2 - 2.0 * 0.9 ** 2) * 0.3)
    assert abs(rows["k3-dichotomy"].residual - want) <= 1e-12


def test_kappa3_rigidity(rng):
    # nonzero kappa3 is consistent only where the dichotomy factor vanishes
    for _ in range(50):
        beta = float(rng.uniform(0.3, 1.5))
        c = float(rng.uniform(2.0 * beta ** 2 + 0.5, 12.0))
        kappa3 = float(rng.uniform(0.2, 2.0))
        on_locus = math.sqrt((c - 2.0 * beta ** 2) / 4.0)
        rows = jet_residuals(consistent_jet(on_locus, beta, c, kappa3=kappa3),
                             tol=1e-12)
        assert all(r.passed for r in rows)
        off_locus = on_locus + 0.25
        rows = {r.name: r for r in
                jet_residuals(consistent_jet(off_locus, beta, c, kappa3=kappa3),
                              tol=1e-12)}
        assert not rows["k3-dichotomy"].passed
        factor = contradiction_certificate(c, off_locus, beta).factor
        want = abs((beta / off_locus) * factor * kappa3)
        assert abs(rows["k3-dichotomy"].residual - want) <= 1e-12


def test_tilted_shape_context_kills_u():
    # cross-module: realizing the pinned shape values on an actual tangent
    # space makes the Jacobi operator annihilate U (so g(lU, U) = 0)
    for alpha, beta, c in ((1.0, 0.5, 4.0), (-0.8, 1.2, -4.0), (2.0, 0.3, 6.0)):
        table = shape_connection_rows(alpha, beta, c)
        a = np.zeros((5, 5))
        a[0, 0] = table.shape["A-U-U"]
        a[0, 4] = a[4, 0] = table.shape["A-U-xi"]
        a[2, 2] = table.shape["A-phiU-phiU"]
        a[4, 4] = alpha
        ctx = CurvatureContext(canonical_structure(3), a, c)
        ell = jacobi_operator(ctx)  # both computation paths agree
        u = np.zeros(5)
        u[0] = 1.0
        assert np.linalg.norm(ell @ u) <= 1e-12
        assert abs(ctx.g(ell @ u, u)) <= 1e-12
        assert np.linalg.norm(ell @ (ctx.acs.phi @ u)) <= 1e-12


def test_tampered_jet_fails_named_rows():
    jet = consistent_jet(1.0, 1.0, 4.0)
    broken = LocalJet(alpha=1.0, beta=1.0, c=4.0,
                      d_alpha=dict(jet.d_alpha, U=jet.d_alpha["U"] + 0.3),
                      d_beta=dict(jet.d_beta))
    rows = {r.name: r for r in jet_residuals(broken, tol=1e-12)}
    assert rows["dalpha-U-equals-dbeta-xi"].residual == 0.3
    assert not rows["dalpha-U-equals-dbeta-xi"].passed
    assert not rows["dalpha-U-k3"].passed
    assert rows["dbeta-xi-k3"].passed


def test_derivative_row_residual_is_the_discrepancy():
    # with kappa3 = 1 a wrong xi-derivative of alpha misses by exactly its offset
    jet = consistent_jet(1.0, 1.0, 4.0, kappa3=1.0)
    off = LocalJet(alpha=1.0, beta=1.0, c=4.0, kappa3=1.0,
                   d_alpha=dict(jet.d_alpha, xi=jet.d_alpha["xi"] + 0.25),
                   d_beta=dict(jet.d_beta))
    rows = {r.name: r for r in jet_residuals(off, tol=1e-12)}
    assert rows["dalpha-xi-k3"].residual == 0.25


def test_implied_w1_norm_spot():
    # (12(5a^2+b^2)c + 64a^4 - 3c^2 - 48a^2 b^2) / (16a^2) at a=1, b=1, c=4
    assert implied_w1_norm_sq(4.0, 1.0, 1.0) == (288.0 + 64.0 - 48.0 - 48.0) / 16.0
    with pytest.raises(JetError):
        implied_w1_norm_sq(4.0, 0.0, 1.0)


def test_certificate_spot_values():
    cert = contradiction_certificate(4.0, 1.0, 1.0)
    assert cert.discriminant == 45312.0  # 3600 c^2 - 3072 c b^2
    assert cert.verdict == WITNESSED
    assert cert.degenerate_branch_rejected
    assert cert.factor == 4.0 - 4.0 - 2.0
    assert cert.sum_sq == 3.0
    assert cert.w1_identity_residual is None


def test_certificate_factor_branch_root():
    cert = contradiction_certificate(4.0, math.sqrt(0.5), 1.0)
    assert abs(cert.factor) <= 1e-12
    assert cert.degenerate_branch_rejected  # 2a^2 + b^2 = 2 > 0 regardless


def test_certificate_verdict_split_positive_curvature():
    # f stays positive only when b^2 > 75c/64; crossover at b ~ 2.165 for c = 4
    assert contradiction_certificate(4.0, 1.0, 2.0).verdict == WITNESSED
    assert contradiction_certificate(4.0, 1.0, 2.5).verdict == NO_WITNESS
    assert contradiction_certificate(-4.0, 1.0, 2.5).verdict == WITNESSED
    assert contradiction_certificate(-4.0, 0.3, 0.1).verdict == WITNESSED


def test_certificate_carries_identity_residual():
    w1 = implied_w1_norm_sq(4.0, 2.0, 0.5)
    cert = contradiction_certificate(4.0, 2.0, 0.5, w1_norm_sq=w1)
    assert cert.w1_identity_residual == 0.0
    cert = contradiction_certificate(4.0, 2.0, 0.5, w1_norm_sq=w1 + 1.0)
    assert abs(cert.w1_identity_residual - 16.0 * 4.0) <= 1e-9


def test_certificate_preconditions():
    with pytest.raises(JetError):
        contradiction_certificate(0.0, 1.0, 1.0)
    with pytest.raises(JetError):
        contradiction_certificate(4.0, 0.0, 1.0)


def test_jet_scalars_are_capped_where_they_enter():
    # at the cap every power in the formulas is finite; past it each entry point refuses
    jet = consistent_jet(JET_SCALAR_MAX, JET_SCALAR_MAX, JET_SCALAR_MAX)
    assert all(math.isfinite(row.residual) for row in jet_residuals(jet))
    cert = contradiction_certificate(JET_SCALAR_MAX, JET_SCALAR_MAX, JET_SCALAR_MAX)
    assert math.isfinite(cert.discriminant) and math.isfinite(cert.w1_norm_sq_implied)
    big = 2.0 * JET_SCALAR_MAX
    for alpha, beta, c in ((big, 1.0, 4.0), (1.0, big, 4.0), (1.0, 1.0, -big)):
        for entry in (lambda: consistent_jet(alpha, beta, c),
                      lambda: LocalJet(alpha=alpha, beta=beta, c=c),
                      lambda: contradiction_certificate(c, alpha, beta),
                      lambda: shape_connection_rows(alpha, beta, c),
                      lambda: implied_w1_norm_sq(c, alpha, beta)):
            with pytest.raises(JetError, match="exceeds"):
                entry()


def test_non_finite_derived_jet_value_names_its_key():
    # beta**3 / c overflows although alpha, beta and c are all within the cap
    with pytest.raises(JetError, match="jet value dalpha_phiW2 = nan is not finite"):
        consistent_jet(1.0, 1e40, 1e-300)
    with pytest.raises(JetError, match="jet value kappa2 = "):
        LocalJet(alpha=1e-150, beta=1e20, c=1.0)


def test_jet_from_mapping_roundtrip():
    jet = jet_from_mapping({"alpha": 1.0, "beta": 2.0, "c": 4.0,
                            "dalpha_U": 0.5, "dbeta_xi": 0.5, "lambda": 0.1})
    assert jet.d_alpha["U"] == 0.5
    assert jet.d_beta["xi"] == 0.5
    assert jet.lam == 0.1
    assert jet.w1_norm_sq is None


def test_jet_from_mapping_rejects_unknown_and_missing():
    with pytest.raises(JetError):
        jet_from_mapping({"alpha": 1.0, "beta": 1.0, "c": 4.0, "zeta": 1.0})
    with pytest.raises(JetError):
        jet_from_mapping({"alpha": 1.0, "beta": 1.0})


def test_jet_jsonable_shape():
    jet = consistent_jet(2.0, 0.5, 4.0)
    block = jet.to_jsonable()
    assert block["kappa1"] == -8.0
    assert set(block["d_alpha"]) == {"U", "W3", "phiU", "phiW2", "xi"}
    assert "w1_norm_sq" in block
