"""A Gram of None stands for the identity, and the standard frame's ker(eta) basis for a slice.

Each kernel that multiplies by G skips the product when the structure's Gram
is exactly I, and the ker(eta) checks take a matrix's first dim-1 columns on
the standard frame.  There, too, the definitional Jacobi operator takes its
identity block as given, and a product by phi is a signed block swap.  A
product by an exact identity, or by a matrix with one +-1 per row, copies
each entry up to sign, so each shortcut must give the values of the product
it skips; a Gram that is not exactly I must still be multiplied.
"""
import numpy as np
import pytest

from hyperlab import (DEFAULT_TOL, FAMILY_TABLE, AlmostContactStructure, CurvatureContext,
                      ModelSpec, StructuralError, build_phi_basis, canonical_structure,
                      commutator, gauss_curvature, instantiate, jacobi_from_curvature,
                      jacobi_operator, random_structure, validate_acs)
from hyperlab import cli, curvature_engine
from hyperlab.curvature_engine import _check_shapes, _closed_form, _g, _gauss, nabla_l
from hyperlab.hopf_conditions import (KER_ETA, _worst_norm, check_l_A_commute,
                                      check_nabla_xi_l, check_phi_l_commute)
from hyperlab.sampling import _contexts, _grams, random_gram, random_symmetric_shape
from hyperlab.tensor_core import _acs_residuals, _check_grams, _frame_structures, _haar_frames, _t


def _same(x, y) -> bool:
    return np.array_equal(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize("dim, lead", [(3, ()), (5, (4,)), (41, ()), (41, (3,))])
def test_kernels_read_a_gram_of_none_as_the_identity(rng, dim, lead):
    eye = np.eye(dim)
    _, phi, xi, eta, a, c = _contexts(rng, lead, dim, hopf=False)
    p, q = rng.standard_normal((2,) + lead + (dim, 4))
    assert _same(_g(None, p, q), _g(eye, p, q))
    assert _same(_closed_form(None, xi, eta, a, c), _closed_form(eye, xi, eta, a, c))
    none, ones = _acs_residuals(None, phi, xi, eta), _acs_residuals(eye, phi, xi, eta)
    assert none.keys() == ones.keys()
    assert all(_same(none[key], ones[key]) for key in none)
    _check_shapes(None, a, c)
    bent = a + 1e-3 * np.triu(np.ones((dim, dim)), 1)
    messages = []
    for gram in (None, eye):
        with pytest.raises(StructuralError, match="not g-symmetric") as err:
            _check_shapes(gram, bent, c)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n", [2, 3, 60])
def test_the_standard_ker_eta_slice_is_the_product(rng, n):
    acs = canonical_structure(n)
    assert acs._metric is None and acs._standard_frame
    ctx = CurvatureContext(acs, np.diag(np.arange(1.0, acs.dim + 1.0)), 4.0)
    t = rng.standard_normal((acs.dim, acs.dim))
    assert _same(t[:, :-1], t @ ctx.ker_eta_basis)


@pytest.mark.parametrize("n", [2, 3, 60])
def test_the_ker_eta_checks_on_the_standard_frame_are_the_general_path(n):
    inst = instantiate(ModelSpec("CP", n, "A1", radius=0.4), seed=3)
    ctx, eye = inst.ctx, np.eye(inst.ctx.dim)
    basis = ctx.ker_eta_basis

    def general(t):  # the product by the basis, and g-norms through the explicit identity
        block = t @ basis
        return block, float(np.sqrt(max(_g(eye, block, block).max(), 0.0)))

    for check, t in ((check_phi_l_commute, ctx.phi_l_commutator),
                     (check_l_A_commute, ctx.l_a_commutator)):
        assert check(ctx, KER_ETA).residual == general(t)[1]
    block, _ = general(nabla_l(ctx, inst.nabla_a, ctx.acs.xi))
    mus = _g(eye, block, ctx.acs.xi[:, None])
    rep = check_nabla_xi_l(ctx, inst.nabla_a, KER_ETA)
    assert rep.residual == _worst_norm(ctx, block - np.outer(ctx.acs.xi, mus))
    assert rep.mu == float(np.mean(mus))
    assert rep.extras["mu_spread"] == float(mus.max() - mus.min())


def _catalog_contexts():
    """Every FAMILY_TABLE entry at n = 2, 3, 9 and 40, with its first and last admissible k
    and both normals, at an interior radius."""
    for (ambient, family), entry in FAMILY_TABLE.items():
        radius = None if entry.sr_max is None else min(0.6, entry.sr_max / 2)
        for n in (2, 3, 9, 40):
            ks = list(entry.ks(n))
            for k in dict.fromkeys(ks[:1] + ks[-1:]):
                for flip in (False, True):
                    spec = ModelSpec(ambient, n, family, radius=radius, k=k, flip_normal=flip)
                    yield spec, instantiate(spec, seed=n).ctx


def test_the_standard_frame_index_maps_are_the_products():
    # the swaps and the identity block taken as given, against the plain products
    specs = set()
    for spec, ctx in _catalog_contexts():
        acs, xi = ctx.acs, ctx.acs.xi
        phi, a, ell = acs.phi, ctx.shape_operator, jacobi_operator(ctx)
        assert acs._standard_frame, spec
        assert _same(ctx.phi_l_commutator, commutator(phi, ell)), spec
        assert _same(ctx.a_phi_commutator, commutator(a, phi)), spec
        plain = _acs_residuals(None, phi, xi[:, None], acs.eta[:, None],
                               (phi @ phi, phi.T @ phi))
        assert validate_acs(acs) == {key: float(value) for key, value in plain.items()}, spec
        # the reference multiplies by the explicit Gram and by an explicit identity block
        want = _gauss(acs.gram, phi, a, ctx.c, np.eye(acs.dim), xi[:, None], xi[:, None])
        assert _same(jacobi_from_curvature(ctx), want), spec
        assert _same(gauss_curvature(ctx, np.eye(acs.dim), xi, xi), want), spec
        specs.add((spec.ambient, spec.family, spec.n))
    assert len(specs) == 4 * len(FAMILY_TABLE) - 2  # A2 has no k at n = 2


@pytest.mark.parametrize("n", [2, 3, 9])
def test_a_phi_that_differs_in_one_entry_is_not_the_standard_frame(n):
    acs = canonical_structure(n)
    assert acs._standard_frame
    m = np.arange(float(acs.dim ** 2)).reshape(acs.dim, acs.dim)
    for i, j in np.ndindex(acs.phi.shape):
        phi = acs.phi.copy()
        phi[i, j] += 0.5
        bent = AlmostContactStructure(acs.gram, phi, acs.xi, acs.eta)
        assert not bent._standard_frame, (i, j)
        # off the standard frame a product by phi is the product
        assert _same(bent._phi_times(m), phi @ m) and _same(bent._phi_times(m, True), m @ phi)


def test_the_context_freezes_its_own_tensors_in_place_and_copies_a_callers(monkeypatch):
    acs, a = canonical_structure(3), np.diag([1.0, 2.0, 1.0, 2.0, 3.0])
    ctx = CurvatureContext(acs, a, 4.0)
    assert ctx.shape_operator is not a and a.flags.writeable
    made = []

    def fresh(ctx):
        made.append(jacobi_from_curvature(ctx))
        return made[-1]

    monkeypatch.setattr(curvature_engine, "jacobi_from_curvature", fresh)
    assert ctx.l_from_curvature is made[0] and not made[0].flags.writeable
    for name in ("phi_l_commutator", "l_a_commutator", "a_phi_commutator"):
        assert not getattr(ctx, name).flags.writeable
    assert jacobi_from_curvature(ctx).flags.writeable  # the public result is the caller's


def test_the_ker_eta_basis_is_built_only_off_the_standard_frame(monkeypatch, rng):
    # the slice needs no basis; any other frame builds it once for all its checks
    calls = []

    def counted(acs):
        calls.append(acs)
        return build_phi_basis(acs)

    monkeypatch.setattr(curvature_engine, "build_phi_basis", counted)
    inst = instantiate(ModelSpec("CP", 30, "A2", radius=0.4, k=5), seed=0)
    cli._context_rows(inst.ctx, inst.nabla_a, DEFAULT_TOL, 25, 0)
    assert "ker_eta_basis" not in inst.ctx.__dict__ and calls == []
    acs = random_structure(3, rng)  # an identity Gram in a random frame
    ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), -4.0)
    for _ in range(2):
        cli._context_rows(ctx, lambda w, y: np.zeros_like(y), DEFAULT_TOL, 25, 0)
        check_phi_l_commute(ctx, KER_ETA)
    assert calls == [acs] and "ker_eta_basis" in ctx.__dict__


def test_a_gram_that_is_not_the_identity_is_still_multiplied(rng):
    acs = random_structure(3, rng, gram=random_gram(5, rng))
    assert acs._metric is acs.gram and not acs._standard_frame
    p, q = rng.standard_normal((2, 5, 4))
    assert not np.allclose(_g(acs._metric, p, q), _g(None, p, q))
    res = validate_acs(acs)
    assert res == {key: float(value) for key, value in _acs_residuals(
        acs.gram, acs.phi, acs.xi[:, None], acs.eta[:, None]).items()}
    ctx = CurvatureContext(acs, random_symmetric_shape(acs, rng), -4.0)
    block = ctx.phi_l_commutator @ ctx.ker_eta_basis
    assert check_phi_l_commute(ctx, KER_ETA).residual == float(
        np.sqrt(max(_g(acs.gram, block, block).max(), 0.0)))
    # an identity Gram reached through a random frame still skips the products
    assert random_structure(3, rng)._metric is None


def _all_samples_structures(rng, dim, first, size):
    """cli._structures as it was: every Gram checked, and every frame solved for."""
    grams = np.tile(np.eye(dim), (size, 1, 1))
    odd = np.arange(first, first + size) % 2 == 1
    grams[odd] = _grams(rng, (int(odd.sum()), dim, dim))
    _check_grams(grams)
    frames = np.linalg.solve(_t(np.linalg.cholesky(grams)), _haar_frames(rng, grams.shape))
    return _acs_residuals(grams, *_frame_structures(grams, frames))


@pytest.mark.parametrize("dim, first, size", [(5, 0, 7), (5, 3, 6), (41, 1, 1), (41, 0, 1)])
def test_structures_skip_the_identity_samples_with_the_same_residuals(dim, first, size):
    got = _acs_residuals(*cli._structures(np.random.default_rng(11), dim, first, size))
    want = _all_samples_structures(np.random.default_rng(11), dim, first, size)
    assert got.keys() == want.keys()
    assert all(got[key].tobytes() == want[key].tobytes() for key in got)
    assert max(float(np.max(v)) for v in got.values()) <= 1e-10
