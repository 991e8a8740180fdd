"""Commutation and derivative conditions on the structure Jacobi operator.

The conditions live on two distinguished subspaces: ker(eta) and span{xi}.
A point is Hopf when A xi has no ker(eta) component (beta below threshold);
on Hopf data phi l - l phi = alpha (phi A - A phi) holds identically, which
is what the verdict pipeline exploits (its verdict is `checks.theorem_verdict`).
The span{xi} reading of lA = Al is the vector identity lA(xi) = Al(xi).

Only pointwise data exists here, so the derivative condition
(nabla_xi l)X = mu xi is checked with a shared fitted mu per subspace and
the spread of the per-direction estimates is reported alongside; whether
mu is smooth in any neighbourhood is out of reach by construction.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .checks import DEFAULT_TOL, ConditionReport, alpha_vanishes, theorem_verdict
from .curvature_engine import (
    CurvatureContext,
    MissingNablaAError,
    NablaAProvider,
    _g,
    nabla_l,
)

KER_ETA = "ker-eta"
SPAN_XI = "span-xi"


class NotHopfError(ValueError):
    """The operation requires Hopf input (A xi proportional to xi)."""


class HopfDecomposition(NamedTuple):
    """A xi = alpha xi + beta U with U a g-unit vector in ker(eta)."""

    alpha: float
    beta: float
    u: np.ndarray | None
    is_hopf: bool
    tolerance: float


def decompose_A_xi(ctx: CurvatureContext, tol: float = DEFAULT_TOL) -> HopfDecomposition:
    """Split A xi into its xi component and its ker(eta) remainder.

    The Hopf threshold is relative: beta <= tol * (1 + |A|_F), so scaling
    the shape operator does not flip the verdict.
    """
    alpha = ctx.alpha
    rem = ctx.a_xi - alpha * ctx.acs.xi
    beta = ctx.acs.norm(rem)
    threshold = tol * (1.0 + float(np.linalg.norm(ctx.shape_operator)))
    hopf = beta <= threshold
    u = None if hopf else rem / beta
    return HopfDecomposition(alpha, beta, u, hopf, threshold)


def _on_test_basis(ctx: CurvatureContext, t: np.ndarray, subspace: str) -> np.ndarray:
    """t times the subspace's deterministic g-orthonormal test vectors, as columns: on the
    standard frame ker(eta)'s are e_1..e_{dim-1}, and the product is t's first dim-1 columns."""
    if subspace not in (KER_ETA, SPAN_XI):
        raise ValueError(f"unknown subspace {subspace!r}")
    if subspace == SPAN_XI:
        return t @ ctx.acs.xi[:, None]
    return t[:, :-1] if ctx.acs._standard_frame else t @ ctx.ker_eta_basis


def _worst_norm(ctx: CurvatureContext, block: np.ndarray) -> float:
    """Largest g-norm among the columns of block."""
    sq = _g(ctx.acs._metric, block, block)
    return float(np.sqrt(max(sq.max(), 0.0)))


def check_phi_l_commute(ctx: CurvatureContext, subspace: str = KER_ETA,
                        tol: float = DEFAULT_TOL) -> ConditionReport:
    """Residual of phi l = l phi: max |(phi l - l phi)X| over the subspace basis."""
    block = _on_test_basis(ctx, ctx.phi_l_commutator, subspace)
    return ConditionReport("phi-l-commute", subspace, _worst_norm(ctx, block), tol)


def check_l_A_commute(ctx: CurvatureContext, subspace: str = KER_ETA,
                      tol: float = DEFAULT_TOL) -> ConditionReport:
    """Residual of lA = Al: max |(lA - Al)X| over the subspace basis."""
    block = _on_test_basis(ctx, ctx.l_a_commutator, subspace)
    return ConditionReport("l-A-commute", subspace, _worst_norm(ctx, block), tol)


def check_nabla_xi_l(ctx: CurvatureContext, nabla_a: NablaAProvider,
                     subspace: str = KER_ETA,
                     tol: float = DEFAULT_TOL) -> ConditionReport:
    """Residual of (nabla_xi l)X = mu xi with one shared mu over the subspace.

    mu is fitted as the mean of mu_X = g((nabla_xi l)X, xi) across the
    basis; the per-direction spread (max - min) is reported so a direction-
    dependent mu is visible even when the residual is small.
    """
    if nabla_a is None:
        raise MissingNablaAError("check_nabla_xi_l needs a nabla-A provider")
    return _nabla_xi_l_report(ctx, nabla_l(ctx, nabla_a, ctx.acs.xi), subspace, tol)


def _nabla_xi_l_report(ctx, nabla_xi_l, subspace, tol) -> ConditionReport:
    acs = ctx.acs
    block = _on_test_basis(ctx, nabla_xi_l, subspace)
    mus = _g(acs._metric, block, acs.xi[:, None])  # G xi, not G block: g is symmetric
    residual = _worst_norm(ctx, block - np.outer(acs.xi, mus))
    return ConditionReport("nabla-xi-l", subspace, residual, tol,
                           {"mu": float(np.mean(mus)),
                            "mu_spread": float(mus.max() - mus.min())})


class Classification(NamedTuple):
    """Condition-class membership and the six condition reports it rests on."""

    labels: frozenset[str]
    unknown: frozenset[str]
    reports: dict[str, ConditionReport]


def classify(ctx: CurvatureContext, nabla_a: NablaAProvider | None = None,
             tol: float = DEFAULT_TOL) -> Classification:
    """Run every condition check once and assign the condition classes.

    A: phi l = l phi and lA = Al on ker(eta).
    B: phi l = l phi and lA = Al on span{xi}.
    C: phi l = l phi and (nabla_xi l) = mu xi on ker(eta).
    D: phi l = l phi and (nabla_xi l) = mu xi on span{xi}.

    reports holds phi-l and l-A on both subspaces and, given a nabla-A
    provider, nabla-xi-l on both, keyed "<check>/<subspace>".  Without a
    provider C and D are "unknown" unless the shared phi-commutation
    condition already fails, which settles them.  Loosening the tolerance
    never removes a label.
    """
    reports: dict[str, ConditionReport] = {}
    nabla_xi_l = None if nabla_a is None else nabla_l(ctx, nabla_a, ctx.acs.xi)
    for subspace in (KER_ETA, SPAN_XI):
        reports[f"phi-l/{subspace}"] = check_phi_l_commute(ctx, subspace, tol)
        reports[f"l-A/{subspace}"] = check_l_A_commute(ctx, subspace, tol)
        if nabla_a is not None:
            reports[f"nabla-xi-l/{subspace}"] = _nabla_xi_l_report(ctx, nabla_xi_l, subspace, tol)

    shared = reports["phi-l/ker-eta"].passed
    rules = {"A": "l-A/ker-eta", "B": "l-A/span-xi",
             "C": "nabla-xi-l/ker-eta", "D": "nabla-xi-l/span-xi"}
    labels = {label for label, key in rules.items()
              if shared and key in reports and reports[key].passed}
    unknown = {"C", "D"} if shared and nabla_a is None else set()
    return Classification(frozenset(labels), frozenset(unknown), reports)


class TheoremVerdict(NamedTuple):
    """Outcome of the pointwise forward pipeline on Hopf data; both norms are
    Frobenius, and the verdict tests the first (phi l - l phi)."""

    hopf: bool
    alpha: float
    beta_residual: float
    phi_l_commutator_norm: float
    commutator_A_phi_norm: float
    verdict: str

    def to_jsonable(self) -> dict:
        """The fields in declaration order."""
        return self._asdict()


def theorem_pipeline(ctx: CurvatureContext, tol: float = DEFAULT_TOL) -> TheoremVerdict:
    """Pointwise forward direction: Hopf + phi l = l phi + alpha != 0 force A phi = phi A.

    Non-Hopf input raises NotHopfError (the Hopf property is an input
    requirement here, not a conclusion).  The verdict is `checks.theorem_verdict`'s:
    the hypothesis fails unless phi l = l phi, and otherwise, where alpha
    vanishes, it is indeterminate: the argument divides by eta(A xi), and the
    catalog's zero-alpha radius is the case it cannot see (`alpha_vanishes`).
    phi l = l phi when the Frobenius norm of phi l - l phi, the norm reported, is
    within tol (1 + |A|_F^2 + |c|).
    """
    dec = decompose_A_xi(ctx, tol)
    if not dec.is_hopf:
        raise NotHopfError(f"A xi has ker(eta) component beta = {dec.beta:.3e}")
    scale = 1.0 + float(np.linalg.norm(ctx.shape_operator)) ** 2 + abs(ctx.c)
    phi_l = float(np.linalg.norm(ctx.phi_l_commutator))
    commutes = phi_l <= tol * scale
    return TheoremVerdict(hopf=True, alpha=dec.alpha, beta_residual=dec.beta,
                          phi_l_commutator_norm=phi_l,
                          commutator_A_phi_norm=float(np.linalg.norm(ctx.a_phi_commutator)),
                          verdict=theorem_verdict(alpha_vanishes(dec.alpha, ctx.c), commutes))
