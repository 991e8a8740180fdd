"""Commutation checks, condition-class assignment, and the forward pipeline."""
import warnings

import numpy as np
import pytest

from hyperlab import (
    KER_ETA,
    SPAN_XI,
    VERDICT_HYPOTHESIS_FAILS,
    VERDICT_INDETERMINATE,
    VERDICT_TYPE_A,
    ConditionReport,
    CurvatureContext,
    MissingNablaAError,
    NotHopfError,
    StructuralError,
    canonical_structure,
    check_l_A_commute,
    check_nabla_xi_l,
    check_phi_l_commute,
    classify,
    commutator,
    decompose_A_xi,
    jacobi_operator,
    nabla_l,
    theorem_pipeline,
    type_a_nabla_a,
)
from hyperlab.sampling import (random_context, random_gram, random_hopf_context,
                               random_symmetric_shape)
from hyperlab.tensor_core import random_structure


def _diag_context(values, c=4.0, n=3):
    acs = canonical_structure(n)
    return CurvatureContext(acs, np.diag(np.asarray(values, dtype=float)), c)


def _tilted_context(alpha=1.0, beta=0.5, c=4.0):
    acs = canonical_structure(3)
    a = np.zeros((5, 5))
    a[4, 4] = alpha
    a[0, 4] = a[4, 0] = beta  # A xi = alpha xi + beta V1
    return CurvatureContext(acs, a, c)


def test_decompose_hopf_diagonal():
    ctx = _diag_context([1.0, 2.0, 1.0, 2.0, 3.0])
    dec = decompose_A_xi(ctx)
    assert dec.is_hopf
    assert dec.alpha == 3.0
    assert dec.beta == 0.0
    assert dec.u is None
    assert np.allclose(dec.alpha * ctx.acs.xi, ctx.a_xi, atol=0)


def test_decompose_tilted():
    ctx = _tilted_context(alpha=2.0, beta=0.75)
    dec = decompose_A_xi(ctx)
    assert not dec.is_hopf
    assert abs(dec.alpha - 2.0) <= 1e-15
    assert abs(dec.beta - 0.75) <= 1e-15
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.allclose(dec.u, e0, atol=1e-15)
    assert np.allclose(dec.alpha * ctx.acs.xi + dec.beta * dec.u, ctx.a_xi, atol=1e-15)


def test_decompose_threshold_scales_with_operator():
    # a fixed absolute tilt drowns under a large operator norm
    acs = canonical_structure(2)
    a = 1e6 * np.eye(3)
    a[0, 2] = a[2, 0] = 1e-5
    dec = decompose_A_xi(CurvatureContext(acs, a, 4.0))
    assert dec.is_hopf


def test_phi_l_commute_mirrored_spectrum():
    # V and phiV eigenvalues equal: commutes; split: residual |alpha| |a - b|.
    good = _diag_context([1.5, 2.5, 1.5, 2.5, 3.0])
    assert check_phi_l_commute(good, KER_ETA).passed
    assert check_phi_l_commute(good, SPAN_XI).passed
    bad = _diag_context([1.5, 2.5, 0.5, 2.5, 3.0])
    rep = check_phi_l_commute(bad, KER_ETA)
    assert not rep.passed
    assert abs(rep.residual - 3.0 * 1.0) <= 1e-12  # |alpha| |1.5 - 0.5|
    assert check_phi_l_commute(bad, SPAN_XI).passed  # l xi = 0 on both sides


def test_l_a_commute_subspaces():
    ctx = _diag_context([1.0, 2.0, 1.0, 2.0, 3.0])
    for subspace in (KER_ETA, SPAN_XI):
        assert check_l_A_commute(ctx, subspace).passed
    # A xi = xi + 0.5 V1 with l V1 = 0.75 V1 and l xi = 0: lA xi = 0.375 V1, Al xi = 0
    rep = check_l_A_commute(_tilted_context(), SPAN_XI)
    assert not rep.passed
    assert abs(rep.residual - 0.5 * 0.75) <= 1e-12


def test_subspace_name_is_checked():
    ctx = _diag_context([1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        check_phi_l_commute(ctx, "everything")


def test_nabla_xi_l_fitted_mu_vanishes():
    ctx = _diag_context([2.0, 2.0, 2.0, 2.0, 1.0])
    provider = type_a_nabla_a(ctx)
    for subspace in (KER_ETA, SPAN_XI):
        rep = check_nabla_xi_l(ctx, provider, subspace)
        assert rep.passed
        assert abs(rep.mu) <= 1e-12
        assert rep.extras["mu_spread"] <= 1e-12
    with pytest.raises(MissingNablaAError):
        check_nabla_xi_l(ctx, None)


def test_condition_report_jsonable():
    ctx = _diag_context([1.0, 1.0, 1.0, 1.0, 1.0])
    base = check_phi_l_commute(ctx).to_jsonable()
    assert set(base) == {"check", "subspace", "residual", "tolerance", "pass"}
    rep = check_nabla_xi_l(ctx, type_a_nabla_a(ctx)).to_jsonable()
    assert {"mu", "mu_spread"} <= set(rep)


def test_condition_report_pass_rule_and_extras():
    assert ConditionReport("x", "all", 1e-9, 1e-9).passed
    assert not ConditionReport("x", "all", 2e-9, 1e-9).passed
    rep = ConditionReport("nabla-xi-l", KER_ETA, 0.0, 1e-9, {"mu": 0.5, "mu_spread": 0.25})
    assert (rep.mu, rep.extras["mu_spread"]) == (0.5, 0.25)
    assert list(rep.to_jsonable()) == ["check", "subspace", "residual", "tolerance",
                                       "pass", "mu", "mu_spread"]
    assert ConditionReport("x", "all", 0.0, 1e-9).mu is None
    with pytest.raises(ValueError, match="check x on all: residual is nan"):
        ConditionReport("x", "all", float("nan"), 1e-9)


def test_block_residuals_match_the_per_vector_loop(rng):
    # the checks measure operator @ basis in one block; the per-vector loop is
    # the reference, equal up to summation order (a few ulps per entry)
    slack = 64 * np.finfo(float).eps
    for n in (2, 3, 5):
        acs = random_structure(n, rng, gram=random_gram(2 * n - 1, rng))
        ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), 4.0)
        provider = type_a_nabla_a(ctx)
        ell, m = jacobi_operator(ctx), nabla_l(ctx, provider, acs.xi)
        for subspace, basis in ((KER_ETA, ctx.ker_eta_basis.T), (SPAN_XI, [acs.xi])):
            for check, op in ((check_phi_l_commute, commutator(acs.phi, ell)),
                              (check_l_A_commute, commutator(ell, ctx.shape_operator))):
                want = max(acs.norm(op @ v) for v in basis)
                assert abs(check(ctx, subspace).residual - want) <= slack * (1.0 + want)
            mus = [acs.g(m @ v, acs.xi) for v in basis]
            want = max(acs.norm(m @ v - mu * acs.xi) for v, mu in zip(basis, mus))
            rep = check_nabla_xi_l(ctx, provider, subspace)
            scale = 1.0 + float(np.max(np.abs(m)))
            assert abs(rep.residual - want) <= slack * (1.0 + want)
            assert abs(rep.mu - float(np.mean(mus))) <= slack * scale
            assert abs(rep.extras["mu_spread"] - (max(mus) - min(mus))) <= 2 * slack * scale


def test_classify_full_membership():
    ctx = _diag_context([2.0, 2.0, 2.0, 2.0, 1.0])
    cls = classify(ctx, type_a_nabla_a(ctx))
    assert cls.labels == frozenset({"A", "B", "C", "D"})
    assert cls.unknown == frozenset()


def test_classify_without_provider_leaves_derivative_classes_open():
    ctx = _diag_context([2.0, 2.0, 2.0, 2.0, 1.0])
    cls = classify(ctx)
    assert cls.labels == frozenset({"A", "B"})
    assert cls.unknown == frozenset({"C", "D"})


def test_classify_settles_on_failed_shared_hypothesis():
    # phi-commutation fails: every class shares that hypothesis, none is open,
    # with or without a provider
    ctx = _diag_context([1.5, 2.5, 0.5, 2.5, 3.0])
    for provider in (None, type_a_nabla_a(ctx)):
        cls = classify(ctx, provider)
        assert cls.labels == frozenset()
        assert cls.unknown == frozenset()


def test_classify_monotone_in_tolerance(rng):
    # loosening the tolerance never removes a label
    contexts = [
        _diag_context([2.0, 2.0, 2.0, 2.0, 1.0]),
        _diag_context([1.5, 2.5, 0.5, 2.5, 3.0]),
        _tilted_context(),
        random_hopf_context(3, rng),
    ]
    for ctx in contexts:
        tight = classify(ctx, tol=1e-12).labels
        loose = classify(ctx, tol=10.0).labels
        assert tight <= loose


def test_theorem_pipeline_verdicts():
    assert theorem_pipeline(_diag_context([1.0, 2.0, 1.0, 2.0, 3.0])).verdict \
        == VERDICT_TYPE_A
    assert theorem_pipeline(_diag_context([1.5, 2.5, 0.5, 2.5, 3.0])).verdict \
        == VERDICT_HYPOTHESIS_FAILS
    assert theorem_pipeline(_diag_context([1.0, 1.0, 1.0, 1.0, 0.0])).verdict \
        == VERDICT_INDETERMINATE


def test_theorem_pipeline_tests_the_hypothesis_before_alpha():
    # alpha = 1e-13 counts as zero, but phi l - l phi = alpha (phi A - A phi) is about
    # 2e-13: under a tolerance that sees it, the hypothesis fails before alpha is read
    ctx = CurvatureContext(canonical_structure(3), np.diag([1.0, 1.0, 2.0, 2.0, 1e-13]), 4.0)
    assert theorem_pipeline(ctx, 1e-9).verdict == VERDICT_INDETERMINATE
    assert theorem_pipeline(ctx, 1e-20).verdict == VERDICT_HYPOTHESIS_FAILS


def test_theorem_pipeline_rejects_tilted():
    with pytest.raises(NotHopfError):
        theorem_pipeline(_tilted_context())


def test_theorem_pipeline_jsonable_fields():
    verdict = theorem_pipeline(_diag_context([1.0, 2.0, 1.0, 2.0, 3.0]))
    block = verdict.to_jsonable()
    assert block["hopf"] is True
    assert block["verdict"] == VERDICT_TYPE_A
    assert block["alpha"] == 3.0
    assert block["phi_l_commutator_norm"] <= 1e-12


def test_theorem_reports_the_norm_that_decides():
    # phi l - l phi = alpha (phi A - A phi) straddles the threshold as the V, phiV gap d
    # grows: the reported norm is above tol (1 + |A|_F^2 + |c|) exactly where the
    # hypothesis fails
    verdicts = set()
    for d in (3e-9, 5e-9, 8e-9):
        a = np.diag([1.0, 1.0, 1.0 + d, 1.0 + d, 2.0])
        verdict = theorem_pipeline(CurvatureContext(canonical_structure(3), a, 4.0))
        above = verdict.phi_l_commutator_norm > 1e-9 * (1.0 + np.linalg.norm(a) ** 2 + 4.0)
        assert above == (verdict.verdict == VERDICT_HYPOTHESIS_FAILS), d
        verdicts.add(verdict.verdict)
    assert verdicts == {VERDICT_TYPE_A, VERDICT_HYPOTHESIS_FAILS}


def test_the_context_refuses_a_shape_operator_whose_products_overflow():
    # |A|_F above 1e50 is refused at the boundary; just below it every norm the rows and
    # the verdict read, up to |lA - Al|_F of order |A|_F^3, is finite, with no warning
    def context(v):
        return CurvatureContext(canonical_structure(3), np.diag([v, v, 2 * v, 2 * v, v]), 4.0)

    with pytest.raises(StructuralError, match=r"shape_operator norm 3\.317e\+100 exceeds 1e\+50$"):
        context(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = context(1e49)
        verdict = theorem_pipeline(ctx)
        residuals = [rep.residual for rep in classify(ctx).reports.values()]
    assert np.isfinite([verdict.phi_l_commutator_norm, verdict.commutator_A_phi_norm,
                        *residuals]).all()
    assert verdict.verdict == VERDICT_HYPOTHESIS_FAILS


def test_hopf_commutator_identity_samples(rng):
    # phi l - l phi = alpha (phi A - A phi) whenever A xi = alpha xi
    for _ in range(25):
        ctx = random_hopf_context(3, rng)
        ell = jacobi_operator(ctx)
        phi, a = ctx.acs.phi, ctx.shape_operator
        lhs = commutator(phi, ell)
        rhs = ctx.alpha * (phi @ a - a @ phi)
        scale = 1.0 + abs(ctx.c) + np.linalg.norm(a) ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_non_hopf_context_still_classifiable(rng):
    # classify never raises on tilted input; it measures and reports
    ctx = random_context(3, rng)
    cls = classify(ctx)
    assert set(cls.reports) >= {"phi-l/ker-eta", "l-A/ker-eta", "l-A/span-xi"}
