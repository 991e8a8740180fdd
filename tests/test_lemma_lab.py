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
    jet_from_mapping,
    jet_residuals,
)
from hyperlab.lemma_lab import _MAPPING_KEYS, JET_SCALAR_MAX, _tilted_forms


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
    forms = _tilted_forms(1.0, 2.0, 4.0)
    assert jet.kappa1 == forms["kappa1"] == -4.0
    assert jet.kappa2 == forms["kappa2"]
    # gamma = beta^2/alpha - c/(4 alpha), lambda = -c/(4 alpha)
    assert jet.gamma == 3.0
    assert jet.lam == -1.0
    assert jet.d_alpha == {"xi": 0.0, "U": 0.0, "phiU": 0.0}
    assert jet.d_beta == {"xi": 0.0, "U": 0.0, "phiU": 0.0}


def test_jet_copies_the_dicts_it_is_given():
    d_alpha, d_beta = {"U": 0.5}, {}
    first = LocalJet(alpha=1, beta=2, c=4, d_alpha=d_alpha, d_beta=d_beta)
    second = LocalJet(alpha=1, beta=2, c=4, d_alpha=d_alpha, d_beta=d_beta)
    assert d_alpha == {"U": 0.5} and d_beta == {}
    assert first.d_alpha == {"xi": 0.0, "U": 0.5, "phiU": 0.0}
    assert first.d_alpha is not second.d_alpha and first.d_alpha is not d_alpha
    assert first.d_beta is not second.d_beta and first.d_beta is not d_beta


def test_tilted_forms_rotation_coefficients_spot():
    forms = _tilted_forms(0.5, 1.0, 4.0)
    assert forms["kappa1"] == -2.0
    # -4b - (c/4ab)(b^2/a - c/4a) at a=.5, b=1, c=4: -4 - 2*(2 - 2) = -4
    assert forms["kappa2"] == -4.0
    # the forms divide by alpha; the entry points that read them refuse alpha = 0
    with pytest.raises(JetError):
        consistent_jet(0.0, 1.0, 4.0)


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
        jet = LocalJet(alpha=alpha, beta=beta, c=c)
        a = np.zeros((5, 5))
        a[0, 0] = jet.gamma
        a[0, 4] = a[4, 0] = beta
        a[2, 2] = jet.lam
        a[4, 4] = alpha
        ctx = CurvatureContext(canonical_structure(3), a, c)
        ell = jacobi_operator(ctx)  # both computation paths agree
        u = np.zeros(5)
        u[0] = 1.0
        assert np.linalg.norm(ell @ u) <= 1e-12
        assert abs(ctx.acs.g(ell @ u, u)) <= 1e-12
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


def test_gamma_and_lambda_are_checked_against_their_closed_forms():
    # alpha = 2, beta = 0.5, c = 4: gamma = 0.125 - 0.5 = -0.375, lambda = -0.5
    jet = consistent_jet(2.0, 0.5, 4.0)
    assert (jet.gamma, jet.lam) == (-0.375, -0.5)
    off = LocalJet(alpha=2.0, beta=0.5, c=4.0, gamma=123.0, lam=0.0,
                   d_alpha=dict(jet.d_alpha), d_beta=dict(jet.d_beta))
    rows = {r.name: r for r in jet_residuals(off, tol=1e-12)}
    assert rows["gamma-closed-form"].residual == 123.375
    assert rows["lambda-closed-form"].residual == 0.5
    assert {name for name, r in rows.items() if not r.passed} == {
        "gamma-closed-form", "lambda-closed-form"}


def test_kappa1_is_read_by_the_phiU_rows():
    # the phiU forms hold for any k1, so a kappa1 off its closed form shows there
    jet = consistent_jet(1.0, 1.0, 4.0)
    off = LocalJet(alpha=1.0, beta=1.0, c=4.0, kappa1=-3.0,
                   d_alpha=dict(jet.d_alpha), d_beta=dict(jet.d_beta))
    rows = {r.name: r for r in jet_residuals(off, tol=1e-12)}
    assert {name for name, r in rows.items() if not r.passed} == {
        "dalpha-phiU-closed-form", "dbeta-phiU-closed-form"}


def _reference_jet(alpha, beta, c, kappa3):
    """The closed forms as consistent_jet and the shape table wrote them before
    lemma_lab gave them one home, kept as an independent reference."""
    k1 = -4.0 * alpha
    k2 = -4.0 * beta + (c / (4.0 * alpha * beta)) * (c / (4.0 * alpha) - beta ** 2 / alpha)
    q = c / (4.0 * alpha)
    return {
        "gamma": beta ** 2 / alpha - q, "lambda": -q, "kappa1": k1, "kappa2": k2,
        "dalpha_xi": 4.0 * alpha ** 2 * beta * kappa3 / c,
        "dalpha_U": 4.0 * alpha * beta ** 2 * kappa3 / c,
        "dalpha_phiU": 3.0 * beta * q + alpha * beta + k1 * beta,
        "dalpha_phiW2": kappa3 * (16.0 * alpha * beta ** 3 / c + beta * (beta ** 2 / alpha - q)),
        "dalpha_W3": 3.0 * beta * (q - alpha) * kappa3,
        "dbeta_xi": 4.0 * alpha * beta ** 2 * kappa3 / c,
        "dbeta_U": (beta + 4.0 * beta ** 3 / c) * kappa3,
        "dbeta_phiU": q * (beta ** 2 / alpha - q) + beta ** 2 + k1 * beta ** 2 / alpha,
        "dbeta_phiW1": 4.0 * alpha * kappa3 * (beta + 4.0 * beta ** 3 / c),
        "d2beta_phiU_xi": beta * kappa3 * (3.0 * q + beta ** 2 / alpha
                                           - 4.0 * alpha - 36.0 * alpha * beta ** 2 / c),
        "d2alpha_phiU_U": beta * kappa3 * (7.0 * q - 8.0 * alpha
                                           - 36.0 * alpha * beta ** 2 / c - beta ** 2 / alpha),
        "w1_norm_sq": (12.0 * (5.0 * alpha ** 2 + beta ** 2) * c + 64.0 * alpha ** 4
                       - 3.0 * c ** 2 - 48.0 * alpha ** 2 * beta ** 2) / (16.0 * alpha ** 2),
    }


def test_consistent_jet_matches_the_reference_formulas(rng):
    for i in range(300):
        alpha = float(rng.uniform(0.2, 3.0)) * (1 if i % 2 else -1)
        beta = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.5, 8.0)) * (1 if i % 4 < 2 else -1)
        kappa3 = 0.0 if i % 5 == 0 else float(rng.uniform(-2.0, 2.0))
        got = consistent_jet(alpha, beta, c, kappa3=kappa3)._keyed()
        for key, want in _reference_jet(alpha, beta, c, kappa3).items():
            if key == "w1_norm_sq" and want < 0.0:
                assert key not in got
                continue
            assert abs(got[key] - want) <= 4.0 * math.ulp(want), (key, alpha, beta, c, kappa3)


def test_hand_written_jet_passes_every_row():
    # alpha = 1, beta = 2 on the locus c = 4 alpha^2 + 2 beta^2 = 12, where
    # k3 = 3 is consistent: q = c / (4 alpha) = 3, gamma = beta^2/alpha - q = 1,
    # k2 = -4 beta - c gamma / (4 alpha beta) = -9.5, |W1|^2 = 736 / 16 = 46
    mapping = {"alpha": 1, "beta": 2, "c": 12, "kappa3": 3, "gamma": 1, "lambda": -3,
               "kappa1": -4, "kappa2": -9.5, "dalpha_xi": 2, "dalpha_U": 4,
               "dalpha_phiU": 12, "dalpha_phiW2": 38, "dalpha_W3": 36, "dbeta_xi": 4,
               "dbeta_U": 14, "dbeta_phiU": -9, "dbeta_phiW1": 56,
               "d2beta_phiU_xi": -18, "d2alpha_phiU_U": -18, "w1_norm_sq": 46}
    assert set(mapping) == set(_MAPPING_KEYS)
    rows = jet_residuals(jet_from_mapping(mapping))
    assert len(rows) == 18
    assert [r.name for r in rows if not r.passed] == []


def test_tilted_forms_w1_norm_spot():
    # (12(5a^2+b^2)c + 64a^4 - 3c^2 - 48a^2 b^2) / (16a^2) at a=1, b=1, c=4
    w1 = (288.0 + 64.0 - 48.0 - 48.0) / 16.0
    assert _tilted_forms(1.0, 1.0, 4.0)["w1_norm_sq"] == w1
    assert contradiction_certificate(4.0, 1.0, 1.0).w1_norm_sq_implied == w1
    with pytest.raises(JetError):
        contradiction_certificate(4.0, 0.0, 1.0)


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
    w1 = _tilted_forms(2.0, 0.5, 4.0)["w1_norm_sq"]
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
                      lambda: contradiction_certificate(c, alpha, beta)):
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
