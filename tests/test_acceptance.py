"""Acceptance gate: eleven pinned criteria, one printed pass/fail line each.

Every criterion is seeded and deterministic; tolerances are part of the
contract and must not be loosened.  A FAIL line with a failing assert is
the honest outcome when an implementation regresses.
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hyperlab import (
    KER_ETA,
    SPAN_XI,
    VERDICT_INDETERMINATE,
    CurvatureContext,
    ModelSpec,
    alpha_zero_commutator_norm,
    canonical_structure,
    check_l_A_commute,
    check_nabla_xi_l,
    check_phi_l_commute,
    commutator,
    consistent_jet,
    contradiction_certificate,
    gauss_curvature,
    instantiate,
    jacobi_closed_form,
    jacobi_from_curvature,
    jacobi_operator,
    jet_residuals,
    principal_curvatures,
    random_structure,
    riccati_shape_evolution,
    theorem_pipeline,
    validate_acs,
)
from hyperlab.cli import run
from hyperlab.sampling import random_context, random_gram, random_hopf_context

CATALOG = [
    ModelSpec("CP", 2, "A1", radius=0.5),
    ModelSpec("CP", 3, "A1", radius=1.1),
    ModelSpec("CP", 3, "A2", radius=0.8, k=1),
    ModelSpec("CP", 4, "A2", radius=0.6, k=2),
    ModelSpec("CP", 3, "B", radius=0.6),
    ModelSpec("CH", 2, "A0"),
    ModelSpec("CH", 3, "A0"),
    ModelSpec("CH", 2, "A1", radius=0.9),
    ModelSpec("CH", 3, "A1", radius=0.9, k=0),
    ModelSpec("CH", 3, "A1", radius=0.9, k=2),
    ModelSpec("CH", 3, "A2", radius=1.3, k=1),
    ModelSpec("CH", 3, "B", radius=0.7),
    ModelSpec("CH", 3, "B", radius=0.7, flip_normal=True),
]

A_FAMILY = [s for s in CATALOG if s.family in ("A0", "A1", "A2")]
B_FAMILY = [s for s in CATALOG if s.family == "B"]

GRID = [round(0.1 + i * 1.3 / 49.0, 12) for i in range(50)]


@pytest.fixture
def announce(capsys):
    def _announce(number: int, name: str, ok: bool):
        with capsys.disabled():
            print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return _announce


def test_criterion_01_structure_axioms(announce):
    worst = 0.0
    for spec in CATALOG:
        inst = instantiate(spec, seed=11)
        worst = max(worst, max(validate_acs(inst.ctx.acs).values()))
    rng = np.random.default_rng(101)
    for i in range(1000):
        n = (2, 3, 4)[i % 3]  # dims 3, 5, 7
        gram = random_gram(2 * n - 1, rng) if i % 2 else None
        worst = max(worst, max(validate_acs(random_structure(n, rng, gram=gram)).values()))
    ok = worst <= 1e-12
    announce(1, "structure-axioms", ok)
    assert ok, f"worst structure residual {worst:.3e}"


def test_criterion_02_gauss_sectional_curvatures(announce):
    acs = canonical_structure(3)
    ctx = CurvatureContext(acs, np.zeros((5, 5)), 4.0)
    rng = np.random.default_rng(102)
    worst_holo = worst_ortho = 0.0
    for _ in range(100):
        x = rng.standard_normal(5)
        x = x - acs.eta_of(x) * acs.xi
        x = x / acs.norm(x)
        px = acs.phi @ x
        worst_holo = max(worst_holo, abs(acs.g(gauss_curvature(ctx, x, px, px), x) - 4.0))
        y = rng.standard_normal(5)
        y = y - acs.eta_of(y) * acs.xi - acs.g(y, x) * x - acs.g(y, px) * px
        y = y / acs.norm(y)
        worst_ortho = max(worst_ortho, abs(acs.g(gauss_curvature(ctx, x, y, y), x) - 1.0))
    ok = worst_holo <= 1e-12 and worst_ortho <= 1e-12
    announce(2, "gauss-sectional-curvatures", ok)
    assert ok, f"holomorphic {worst_holo:.3e}, orthogonal {worst_ortho:.3e}"


def test_criterion_03_jacobi_cross_check(announce):
    rng = np.random.default_rng(103)
    worst_gap = worst_xi = worst_sym = 0.0
    for i in range(1000):
        ctx = random_context((2, 3, 4)[i % 3], rng)
        ell_def = jacobi_from_curvature(ctx)
        worst_gap = max(worst_gap, float(np.max(np.abs(ell_def - jacobi_closed_form(ctx)))))
        worst_xi = max(worst_xi, ctx.acs.norm(ell_def @ ctx.acs.xi))
        gl = ctx.acs.gram @ ell_def
        worst_sym = max(worst_sym, float(np.max(np.abs(gl - gl.T))))
    ok = worst_gap <= 1e-12 and worst_xi <= 1e-12 and worst_sym <= 1e-12
    announce(3, "jacobi-cross-check", ok)
    assert ok, f"gap {worst_gap:.3e}, l(xi) {worst_xi:.3e}, symmetry {worst_sym:.3e}"


def _continued_flow(kappa, closed_form, anchor_r=0.01):
    worst = 0.0
    r_prev, lam = anchor_r, closed_form(anchor_r)
    for r in GRID:
        lam = riccati_shape_evolution(kappa, r, (r_prev, lam))
        worst = max(worst, abs(lam - closed_form(r)))
        r_prev = r
    return worst


def test_criterion_04_riccati_oracle(announce):
    worst = 0.0
    worst = max(worst, _continued_flow(1.0, lambda r: 1.0 / math.tan(r)))
    worst = max(worst, _continued_flow(4.0, lambda r: 2.0 / math.tan(2.0 * r)))
    worst = max(worst, _continued_flow(-1.0, lambda r: 1.0 / math.tanh(r)))
    worst = max(worst, _continued_flow(-1.0, lambda r: math.tanh(r)))
    worst = max(worst, _continued_flow(-4.0, lambda r: 2.0 / math.tanh(2.0 * r)))
    for kappa, fixed in ((-1.0, 1.0), (-4.0, 2.0)):
        for r in GRID:
            worst = max(worst, abs(riccati_shape_evolution(kappa, r, (0.0, fixed)) - fixed))
    deviations = [principal_curvatures(spec).oracle_deviation for spec in CATALOG]
    ok = worst <= 1e-6 and all(d is not None and d <= 1e-6 for d in deviations)
    announce(4, "riccati-oracle", ok)
    assert ok, f"worst flow error {worst:.3e}, deviations {max(deviations):.3e}"


def test_criterion_05_type_a_forward_direction(announce):
    ok = True
    detail = []
    for spec in A_FAMILY:
        inst = instantiate(spec, seed=5)
        for subspace in (KER_ETA, SPAN_XI):
            if not check_phi_l_commute(inst.ctx, subspace).passed:
                ok, _ = False, detail.append((spec.family, "phi-l", subspace))
            if not check_l_A_commute(inst.ctx, subspace).passed:
                ok, _ = False, detail.append((spec.family, "l-A", subspace))
            rep = check_nabla_xi_l(inst.ctx, inst.nabla_a, subspace)
            if not (rep.passed and abs(rep.mu) <= 1e-9):
                ok, _ = False, detail.append((spec.family, "nabla-xi-l", subspace))
    announce(5, "type-a-forward-direction", ok)
    assert ok, f"failures: {detail}"


def test_criterion_06_negative_control(announce):
    ok = True
    detail = []
    for spec in B_FAMILY:
        inst = instantiate(spec, seed=6)
        rep = check_phi_l_commute(inst.ctx, KER_ETA)
        lam1, lam2 = (e.value for e in inst.spectral.entries)
        want = abs(inst.spectral.alpha) * abs(lam1 - lam2)
        if rep.passed or abs(rep.residual - want) > 1e-9:
            ok = False
            detail.append((spec.ambient, rep.residual, want))
    flat = instantiate(ModelSpec("CP", 2, "A1", radius=math.pi / 4.0), seed=6)
    verdict = theorem_pipeline(flat.ctx)
    if verdict.verdict != VERDICT_INDETERMINATE:
        ok = False
        detail.append(("alpha-zero", verdict.verdict))
    announce(6, "negative-control-sharpness", ok)
    assert ok, f"failures: {detail}"


def test_criterion_07_hopf_operator_identities(announce):
    rng = np.random.default_rng(107)
    worst_phi = worst_la = 0.0
    for i in range(1000):
        ctx = random_hopf_context((2, 3, 4)[i % 3], rng)
        ell = jacobi_operator(ctx)
        phi, a = ctx.acs.phi, ctx.shape_operator
        lhs = commutator(phi, ell) - ctx.alpha * (phi @ a - a @ phi)
        worst_phi = max(worst_phi, float(np.max(np.abs(lhs))))
        worst_la = max(worst_la, float(np.max(np.abs(commutator(ell, a)))))
    ok = worst_phi <= 1e-12 and worst_la <= 1e-12
    announce(7, "hopf-operator-identities", ok)
    assert ok, f"phi identity {worst_phi:.3e}, lA commutator {worst_la:.3e}"


def test_criterion_08_flat_tilt_commutator_norm(announce):
    worst = 0.0
    for i in range(13):
        beta = 0.25 * i  # dyadic sweep of [0, 3]
        for c in (-10.0, -4.0, -1.0, 1.0, 4.0, 10.0):
            worst = max(worst, abs(alpha_zero_commutator_norm(c, beta) - beta * beta))
    zero = alpha_zero_commutator_norm(4.0, 0.0)
    ok = worst <= 1e-12 and zero == 0.0
    announce(8, "flat-tilt-commutator-norm", ok)
    assert ok, f"worst deviation from beta^2: {worst:.3e}, beta=0 gives {zero}"


def test_criterion_09_consistent_jets(announce):
    rng = np.random.default_rng(109)
    ok = True
    detail = []
    for _ in range(100):
        alpha = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(1.0, 6.0)) * (1 if rng.random() < 0.5 else -1)
        rows = jet_residuals(consistent_jet(alpha, beta, c), tol=1e-12)
        bad = [r.name for r in rows if not r.passed]
        if bad:
            ok = False
            detail.append((alpha, beta, c, bad))
    announce(9, "consistent-jet-rows", ok)
    assert ok, f"failing rows: {detail[:3]}"


def test_criterion_10_contradiction_certificate(announce):
    spot = contradiction_certificate(4.0, 1.0, 1.0)
    factor_root = contradiction_certificate(4.0, math.sqrt(0.5), 1.0)
    rejected = all(
        contradiction_certificate(c, alpha, beta).degenerate_branch_rejected
        for c in (-4.0, 4.0) for alpha in (0.5, 1.0, 2.0) for beta in (0.25, 1.0, 3.0))
    ok = (spot.discriminant == 45312.0
          and abs(factor_root.factor) <= 1e-12
          and rejected)
    announce(10, "contradiction-certificate", ok)
    assert ok, (f"disc {spot.discriminant}, factor {factor_root.factor:.3e}, "
                f"rejected {rejected}")


def test_criterion_11_cli_determinism(announce, capsys, child_env):
    argv = ["verify", "--ambient", "CH", "--n", "3", "--family", "A2",
            "--radius", "1.3", "--k", "1", "--seed", "3", "--deterministic"]
    code_a = run(argv)
    first = capsys.readouterr().out
    code_b = run(argv)
    second = capsys.readouterr().out
    focal = run(["oracle", "riccati", "--kappa", "4.0", "--r", "1.6",
                 "--deterministic"])
    capsys.readouterr()
    usage = run(["verify", "--ambient", "CP"])
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "hyperlab"] + argv,
                          capture_output=True, text=True, timeout=120, env=child_env)
    ok = (code_a == code_b == 0 and first == second and len(first) > 0
          and focal == 1 and usage == 2
          and proc.returncode == 0 and proc.stdout == first
          and json.loads(first)["summary"]["all_ok"] is True)
    announce(11, "cli-determinism", ok)
    assert ok, (f"codes {code_a}/{code_b}/{focal}/{usage}, "
                f"identical={first == second}, subprocess={proc.returncode}")
