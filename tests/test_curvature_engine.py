"""Gauss-equation curvature, the structure Jacobi operator, and derivative plumbing."""
import contextlib
import io
import itertools
import sys

import numpy as np
import pytest

from hyperlab import (
    DEFAULT_TOL,
    AlmostContactStructure,
    CurvatureContext,
    MissingNablaAError,
    StructuralError,
    build_phi_basis,
    canonical_structure,
    codazzi_residual,
    commutator,
    decompose_A_xi,
    gauss_curvature,
    jacobi_closed_form,
    jacobi_from_curvature,
    jacobi_operator,
    nabla_l,
    random_structure,
    type_a_nabla_a,
)
from hyperlab import cli
from hyperlab.cli import run
from hyperlab.sampling import (random_context, random_gram, random_hopf_shape,
                               random_symmetric_shape)


def _flat_shape_context(n=3, c=4.0):
    acs = canonical_structure(n)
    return CurvatureContext(acs, np.zeros((acs.dim, acs.dim)), c)


def _random_provider(acs, rng):
    """(W, Y) -> sum_k W_k E_k Y column by column, each E_k = G^-1 S_k with S_k a
    symmetric Gaussian: a g-symmetric nabla A that is not Codazzi-consistent."""
    s = rng.standard_normal((acs.dim, acs.dim, acs.dim))
    e = np.linalg.solve(acs.gram, s + np.swapaxes(s, -1, -2))
    return lambda w, y: np.einsum("kij,k...,j...->i...", e, w, y)


def _unit_ker_eta(acs, rng):
    v = rng.standard_normal(acs.dim)
    v = v - acs.g(v, acs.xi) * acs.xi
    return v / acs.norm(v)


def test_context_validates_inputs():
    acs = canonical_structure(2)
    with pytest.raises(StructuralError):
        CurvatureContext(acs, np.zeros((5, 5)), 4.0)  # wrong shape
    with pytest.raises(StructuralError):
        CurvatureContext(acs, np.eye(3), 0.0)  # flat ambient excluded
    skew = np.zeros((3, 3))
    skew[0, 1] = 1.0
    with pytest.raises(StructuralError):
        CurvatureContext(acs, skew, 4.0)  # not g-symmetric


def test_context_alpha_and_a_xi():
    acs = canonical_structure(2)
    ctx = CurvatureContext(acs, np.diag([1.0, 2.0, 3.0]), 4.0)
    assert ctx.alpha == 3.0
    assert np.array_equal(ctx.a_xi, 3.0 * acs.xi)
    assert ctx.dim == 3


def test_space_form_sectional_curvatures(rng):
    # A = 0, c = 4: holomorphic planes have curvature c, totally real ones c/4.
    ctx = _flat_shape_context()
    acs = ctx.acs
    for _ in range(20):
        x = _unit_ker_eta(acs, rng)
        px = acs.phi @ x
        holo = acs.g(gauss_curvature(ctx, x, px, px), x)
        assert abs(holo - 4.0) <= 1e-12
        y = _unit_ker_eta(acs, rng)
        y = y - acs.g(y, x) * x - acs.g(y, px) * px
        y = y / acs.norm(y)
        ortho = acs.g(gauss_curvature(ctx, x, y, y), x)
        assert abs(ortho - 1.0) <= 1e-12
        radial = acs.g(gauss_curvature(ctx, x, acs.xi, acs.xi), x)
        assert abs(radial - 1.0) <= 1e-12


def test_gauss_tensor_symmetries(rng):
    ctx = random_context(3, rng)
    g = ctx.acs.g
    for _ in range(10):
        x, y, z, w = (rng.standard_normal(5) for _ in range(4))
        rxyz = gauss_curvature(ctx, x, y, z)
        assert np.allclose(rxyz, -gauss_curvature(ctx, y, x, z), atol=1e-10)
        # metric skew-symmetry in the last slots
        assert abs(g(rxyz, w) + g(gauss_curvature(ctx, x, y, w), z)) <= 1e-9
        # pair symmetry of the (0,4) tensor
        assert abs(g(rxyz, w) - g(gauss_curvature(ctx, z, w, x), y)) <= 1e-10
        # first Bianchi identity
        cyclic = (rxyz + gauss_curvature(ctx, y, z, x)
                  + gauss_curvature(ctx, z, x, y))
        assert np.max(np.abs(cyclic)) <= 1e-9


def test_block_gauss_curvature_matches_the_vector_calls(rng):
    # column j of a block call is the vector call on column j (or on the vector
    # given for every column), up to summation order; m = dim is where a
    # per-column coefficient broadcast along the wrong axis would still run
    eps = np.finfo(float).eps
    for n, m in ((3, 2), (3, 5), (4, 7), (5, 3)):
        acs = random_structure(n, rng, gram=random_gram(2 * n - 1, rng))
        ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), 4.0)
        d = ctx.dim
        blocks = [rng.standard_normal((d, m)) for _ in range(3)]
        vectors = [rng.standard_normal(d) for _ in range(3)]
        for mask in itertools.product((False, True), repeat=3):
            args = [b if is_block else v for b, v, is_block in zip(blocks, vectors, mask)]
            got = gauss_curvature(ctx, *args)
            if not any(mask):
                assert got.shape == (d,)
                continue
            assert got.shape == (d, m)
            for j in range(m):
                cols = [a[:, j] if is_block else a for a, is_block in zip(args, mask)]
                want = gauss_curvature(ctx, *cols)
                scale = (1.0 + abs(ctx.c) + np.linalg.norm(ctx.shape_operator) ** 2) * np.prod(
                    [np.linalg.norm(c) for c in cols])
                assert np.max(np.abs(got[:, j] - want)) <= 64 * eps * scale


def test_gauss_curvature_rejects_bad_blocks():
    ctx = _flat_shape_context(n=3)
    v = np.ones(5)
    for bad in (np.ones(4), np.ones((4, 2)), np.ones((5, 2, 2)), np.float64(1.0)):
        with pytest.raises(StructuralError):
            gauss_curvature(ctx, bad, v, v)
    with pytest.raises(StructuralError):
        gauss_curvature(ctx, np.ones((5, 3)), np.ones((5, 4)), v)


def test_block_codazzi_residual_matches_the_vector_calls(rng):
    # as for gauss_curvature, with a random provider that is not Codazzi-consistent,
    # so that every term of the residual is of order one
    eps = np.finfo(float).eps
    for n, m in ((2, 4), (3, 5), (4, 7)):
        acs = random_structure(n, rng, gram=random_gram(2 * n - 1, rng))
        ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), -4.0)
        provider, d = _random_provider(acs, rng), ctx.dim
        blocks = [rng.standard_normal((d, m)) for _ in range(2)]
        vectors = [rng.standard_normal(d) for _ in range(2)]
        for mask in itertools.product((False, True), repeat=2):
            args = [b if is_block else v for b, v, is_block in zip(blocks, vectors, mask)]
            got = codazzi_residual(ctx, provider, *args)
            assert got.shape == ((d, m) if any(mask) else (d,))
            for j in range(m if any(mask) else 0):
                cols = [a[:, j] if is_block else a for a, is_block in zip(args, mask)]
                want = codazzi_residual(ctx, provider, *cols)
                scale = (1.0 + abs(ctx.c)) * np.prod([np.linalg.norm(c) for c in cols])
                assert np.max(np.abs(got[:, j] - want)) <= 64 * d * eps * scale


def test_codazzi_residual_rejects_bad_blocks():
    ctx = _flat_shape_context(n=3)
    provider, v = (lambda w, y: np.zeros_like(y)), np.ones(5)
    for bad in (np.ones(4), np.ones((4, 2)), np.ones((5, 2, 2))):
        with pytest.raises(StructuralError, match=r"x and y must be \(5,\) vectors"):
            codazzi_residual(ctx, provider, bad, v)
        with pytest.raises(StructuralError):
            codazzi_residual(ctx, provider, v, bad)
    with pytest.raises(StructuralError):
        codazzi_residual(ctx, provider, np.ones((5, 3)), np.ones((5, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_kernels_refuse_a_non_finite_entry(bad):
    # a non-finite entry would give a non-finite column; it is refused as nabla_l refuses it
    ctx = _flat_shape_context(n=3)
    provider = lambda w, y: np.zeros_like(y)
    for shape in ((5,), (5, 3)):
        for i in range(3):
            args = [np.ones(shape) for _ in range(3)]
            args[i][(1,) * len(shape)] = bad
            with pytest.raises(StructuralError, match="^x, y and z must be finite$"):
                gauss_curvature(ctx, *args)
            if i < 2:
                with pytest.raises(StructuralError, match="^x and y must be finite$"):
                    codazzi_residual(ctx, provider, *args[:2])
    with pytest.raises(StructuralError, match="^w must be finite$"):
        nabla_l(ctx, provider, np.array([1.0, bad, 0.0, 0.0, 0.0]))


def test_type_a_provider_columns_and_broadcast_column(rng):
    # column j is -(c/4)[eta(Y_j) phi W_j + g(phi W_j, Y_j) xi]; a (dim, 1) W
    # stands for every column, which is how nabla_l reads the matrix of nabla_W A
    acs = random_structure(3, rng, gram=random_gram(5, rng))
    ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), 4.0)
    provider = type_a_nabla_a(ctx)
    w, y = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    got = provider(w, y)
    for j in range(6):
        pw = acs.phi @ w[:, j]
        want = -(acs.eta_of(y[:, j]) * pw + acs.g(pw, y[:, j]) * acs.xi)
        assert np.max(np.abs(got[:, j] - want)) <= 1e-13
    one = provider(w[:, :1], y)
    assert np.max(np.abs(one - provider(np.repeat(w[:, :1], 6, axis=1), y))) <= 1e-13


def test_jacobi_paths_agree(rng):
    for _ in range(50):
        ctx = random_context(3, rng)
        gap = np.max(np.abs(jacobi_from_curvature(ctx) - jacobi_closed_form(ctx)))
        assert gap <= 1e-12 * (1.0 + abs(ctx.c) + np.linalg.norm(ctx.shape_operator) ** 2)


def _count_calls(monkeypatch, fn) -> list[tuple]:
    """Wrap fn at every hyperlab binding site; return the list of call args."""
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "hyperlab" or name.startswith("hyperlab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_derives_l_and_test_basis_once_per_context(monkeypatch):
    import hyperlab.tensor_core as tensor_core
    basis_calls = _count_calls(monkeypatch, tensor_core.build_phi_basis)
    jacobi_calls = _count_calls(monkeypatch, jacobi_from_curvature)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["verify", "--ambient", "CP", "--n", "30", "--family", "A2",
                    "--k", "5", "--radius", "0.4", "--deterministic"])
    assert code == 0
    # none: instantiate draws its frame with one QR, and the ker(eta) checks slice
    # the standard frame without building the test basis
    assert len(basis_calls) == 0
    assert len(jacobi_calls) == 1
    (ctx,) = jacobi_calls[0]
    ell = jacobi_operator(ctx)
    with pytest.raises(ValueError):
        ell[0, 0] = 1.0
    assert ell.tobytes() == jacobi_from_curvature(ctx).tobytes()


def test_verify_runs_each_condition_check_once_per_subspace(monkeypatch):
    # classify computes the six condition reports from one nabla_xi l; the verify
    # rows reuse them, and the 25 Codazzi pairs are one block
    import hyperlab.hopf_conditions as hc
    counted = {fn.__name__: _count_calls(monkeypatch, fn)
               for fn in (hc.check_phi_l_commute, hc.check_l_A_commute,
                          hc._nabla_xi_l_report, nabla_l, codazzi_residual)}
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["verify", "--ambient", "CP", "--n", "30", "--family", "A2",
                    "--k", "5", "--radius", "0.4", "--deterministic"])
    assert code == 0
    assert {name: len(calls) for name, calls in counted.items()} == {
        "check_phi_l_commute": 2, "check_l_A_commute": 2,
        "_nabla_xi_l_report": 2, "nabla_l": 1, "codazzi_residual": 1}


def test_jacobi_kills_xi_and_is_self_adjoint(rng):
    ctx = random_context(4, rng)
    ell = jacobi_operator(ctx)
    assert ctx.acs.norm(ell @ ctx.acs.xi) <= 1e-12
    gl = ctx.acs.gram @ ell
    assert np.max(np.abs(gl - gl.T)) <= 1e-12


def test_jacobi_cross_check_catches_broken_structure():
    # phi xi = xi wrecks the closed form's derivation; the two paths split, and the
    # cross-check row, not a raise, reports it beside the structure row
    acs = canonical_structure(2)
    phi = np.array(acs.phi)
    phi[:, 2] = acs.xi
    broken = AlmostContactStructure(acs.gram, phi, acs.xi, acs.eta)
    ctx = CurvatureContext(broken, np.eye(3), 4.0)
    assert jacobi_operator(ctx) is ctx.l_from_curvature
    assert ctx.l_path_gap == 2.0
    rows, _, _ = cli._context_rows(ctx, None, DEFAULT_TOL, 25, 0)
    assert {rep.name for rep in rows if not rep.passed} == {"jacobi-cross-check",
                                                           "structure-axioms"}


def test_codazzi_residual_of_trivial_provider():
    # A parallel shape operator misses the curved right-hand side exactly.
    ctx = _flat_shape_context(n=2)
    provider = lambda w, y: np.zeros_like(y)  # parallel A: nabla A = 0
    acs = ctx.acs
    e = np.eye(3)
    got = codazzi_residual(ctx, provider, e[0], acs.xi)
    want = -(ctx.c / 4.0) * (-(acs.phi @ e[0]))  # -rhs with eta(x)=0, eta(y)=1
    assert np.allclose(got, want, atol=1e-15)


def test_derivative_helpers_require_provider():
    ctx = _flat_shape_context(n=2)
    with pytest.raises(MissingNablaAError):
        codazzi_residual(ctx, None, np.zeros(3), np.zeros(3))
    with pytest.raises(MissingNablaAError):
        nabla_l(ctx, None, np.zeros(3))


def test_nabla_l_product_rule_hand_value(rng):
    # A = I, parallel: nabla_W l = -(c/4 + 1)(xi (phi W)^T + (phi W) xi^T).
    acs = canonical_structure(2)
    ctx = CurvatureContext(acs, np.eye(3), 4.0)
    w = rng.standard_normal(3)
    got = nabla_l(ctx, lambda w, y: np.zeros_like(y), w)
    pw = acs.phi @ w
    want = -2.0 * (np.outer(acs.xi, pw) + np.outer(pw, acs.xi))
    assert np.allclose(got, want, atol=1e-14)


def test_nabla_l_kills_xi_up_to_minus_l_phi_a_w(rng):
    # l xi = 0, so (nabla_W l)xi = -l(nabla_W xi) = -l phi A W for every g-symmetric
    # nabla A; a non-constant alpha contributes W(alpha) A to nabla_W l
    worst = 0.0
    for i in range(50):
        acs = random_structure(3, rng, gram=random_gram(5, rng))
        shape = (random_hopf_shape if i % 2 else random_symmetric_shape)(acs, rng)
        ctx = CurvatureContext(acs, shape, rng.uniform(-8.0, 8.0))
        provider, w = _random_provider(acs, rng), rng.standard_normal(5)
        got = nabla_l(ctx, provider, w) @ acs.xi
        want = -jacobi_operator(ctx) @ (acs.phi @ (shape @ w))
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12


def test_commutator():
    p = np.array([[0.0, 1.0], [0.0, 0.0]])
    q = p.T
    assert np.array_equal(commutator(p, q), np.diag([1.0, -1.0]))
    assert np.array_equal(commutator(np.eye(2), q), np.zeros((2, 2)))


def test_condition_commutators_are_cached_read_only(rng):
    ctx = random_context(3, rng)
    phi, a, ell = ctx.acs.phi, ctx.shape_operator, jacobi_operator(ctx)
    for name, expected in (("phi_l_commutator", commutator(phi, ell)),
                           ("l_a_commutator", commutator(ell, a)),
                           ("a_phi_commutator", commutator(a, phi))):
        first = getattr(ctx, name)
        assert getattr(ctx, name) is first
        assert not first.flags.writeable
        assert np.array_equal(first, expected)


def test_ker_eta_basis_depends_on_the_structure_alone(rng):
    # the same sweep frame for every shape operator on one structure, Hopf or not
    for n in (2, 3, 5):
        acs = random_structure(n, rng, gram=random_gram(2 * n - 1, rng))
        ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), -4.0)
        assert not decompose_A_xi(ctx).is_hopf
        assert np.array_equal(ctx.ker_eta_basis, build_phi_basis(acs)[:, :-1])
    for n in (2, 3, 5, 30, 60):
        # A xi = xi + t u with u off every standard direction: tilted, not Hopf
        acs = canonical_structure(n)
        u = np.ones(acs.dim) - acs.xi
        a = np.diag(np.arange(1.0, acs.dim + 1.0))
        a += 0.5 * (np.outer(u, acs.xi) + np.outer(acs.xi, u))
        ctx = CurvatureContext(acs, a, 4.0)
        assert not decompose_A_xi(ctx).is_hopf
        assert np.array_equal(ctx.ker_eta_basis, np.eye(acs.dim)[:, :-1])
