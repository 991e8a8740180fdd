"""Structure-tensor axioms, adapted bases, and the identities of phi."""
import re

import numpy as np
import pytest

from hyperlab import (
    AlmostContactStructure,
    DegenerateSeedError,
    StructuralError,
    build_phi_basis,
    canonical_structure,
    random_structure,
    structure_from_frame,
    validate_acs,
)
from hyperlab.sampling import random_gram
from hyperlab.tensor_core import _haar_frames, _haar_phi_frame


def test_structure_rejects_bad_dimensions(rng):
    # the dimension is read off the Gram matrix
    for dim in (1, 2, 4, 0):
        with pytest.raises(StructuralError, match=f"^dimension must be odd and >= 3, got {dim}$"):
            AlmostContactStructure(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim), np.zeros(dim))
    for n in (1, 0, -1):
        with pytest.raises(StructuralError, match=f"got {2 * n - 1}$"):
            random_structure(n, rng)


def test_canonical_structure_refuses_n_below_two():
    for n in (1, 0, -1):
        with pytest.raises(StructuralError, match=f"^n must be >= 2, got {n}$"):
            canonical_structure(n)


@pytest.mark.parametrize("n", [True, False, 3.0, 2.5, "3", None])
def test_canonical_structure_refuses_a_bool_or_non_integral_n(n):
    # as ModelSpec does: a bool is an int but not a count, and a float escaped from numpy
    with pytest.raises(StructuralError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        canonical_structure(n)


def test_canonical_structure_reads_numpy_integers_as_int():
    got, want = canonical_structure(np.int64(3)), canonical_structure(3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_structure_rejects_bad_gram():
    # canonical_structure skips the Gram check, so its _replace must still run it
    acs = canonical_structure(2)
    bad_sym = np.eye(3)
    bad_sym[0, 1] = 0.5
    for gram, message in ((bad_sym, "gram matrix must be symmetric"),
                          (np.diag([1.0, -1.0, 1.0]), "gram matrix must be positive definite"),
                          (np.diag([1.0, np.nan, 1.0]), "gram must be finite"),
                          (np.eye(3, 4), r"gram must have shape \(3, 3\), got \(3, 4\)")):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            AlmostContactStructure(gram, acs.phi, acs.xi, acs.eta)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            acs._replace(gram=gram)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            structure_from_frame(gram, np.eye(3))
    # a misshapen field is named in the message
    for name, value in (("phi", np.eye(5)), ("xi", np.zeros((3, 1))), ("eta", np.zeros(2))):
        with pytest.raises(StructuralError, match=f"^{name} must have shape"):
            AlmostContactStructure(**{**acs._asdict(), name: value})


def test_inner_and_norm_use_gram():
    gram = np.array([[4.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    acs = AlmostContactStructure(gram, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    e0, e1, _ = np.eye(3)
    assert acs.g(e0, e0) == 4.0 and acs.g(e0, e1) == 0.5
    assert acs.norm(e0) == 2.0 and acs.norm(e0 - e1) == 2.0
    assert (acs.dim, acs.n) == (3, 2)
    assert np.array_equal(acs.gram, gram) and not acs.gram.flags.writeable


def test_random_structure_refuses_a_bad_gram_before_drawing(rng):
    # a non-positive-definite Gram would otherwise reach the draw's Cholesky as a LinAlgError
    state = rng.bit_generator.state
    skew = np.eye(5)
    skew[0, 1] = 0.5
    for gram in (np.diag([1.0, -1.0, 1.0, 1.0, 1.0]), skew, np.eye(3)):
        with pytest.raises(StructuralError):
            random_structure(3, rng, gram=gram)
        assert rng.bit_generator.state == state


def test_a_gram_with_no_cholesky_factor_is_refused_by_name():
    # its smallest eigenvalue reads 1.1e-16 > 0, but the draw could not factor it
    q = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 5)))[0]
    gram = (q * [1.0, 1.0, 1.0, 1.0, 1e-17]) @ q.T
    gram = (gram + gram.T) / 2.0
    assert np.linalg.eigvalsh(gram)[0] > 0
    acs = canonical_structure(3)
    message = "^gram matrix must be positive definite$"
    with pytest.raises(StructuralError, match=message):
        AlmostContactStructure(gram, acs.phi, acs.xi, acs.eta)
    with pytest.raises(StructuralError, match=message):
        random_structure(3, np.random.default_rng(1), gram=gram)


@pytest.mark.parametrize("n", [2, 3, 60])
def test_canonical_structure_is_the_checked_record(n):
    # built without the constructor's checks, it equals the checked structure
    # of the standard frame field by field, each field its own read-only array
    acs = canonical_structure(n)
    checked = structure_from_frame(np.eye(2 * n - 1), np.eye(2 * n - 1))
    assert type(acs) is AlmostContactStructure
    for mine, theirs in zip(acs, checked):
        assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype == float
        assert not mine.flags.writeable
    assert not np.shares_memory(acs.xi, acs.eta)


def test_canonical_structure_identities_exact():
    for n in (2, 3, 5):
        res = validate_acs(canonical_structure(n))
        assert set(res) == {"phi-square", "eta-phi", "phi-xi", "eta-xi",
                            "metric-compat", "skew", "eta-from-metric"}
        assert all(v == 0.0 for v in res.values())


def test_canonical_phi_rotates_holomorphic_planes():
    acs = canonical_structure(3)  # dim 5, planes (e0,e2) and (e1,e3)
    e = np.eye(5)
    assert np.array_equal(acs.phi @ e[0], e[2])
    assert np.array_equal(acs.phi @ e[2], -e[0])
    assert np.array_equal(acs.phi @ acs.xi, np.zeros(5))


def test_random_structure_identities(rng):
    for n in (2, 3, 4):
        for use_gram in (False, True):
            gram = random_gram(2 * n - 1, rng) if use_gram else None
            acs = random_structure(n, rng, gram=gram)
            assert max(validate_acs(acs).values()) <= 1e-12


def test_structure_from_frame_rejects_skewed_frame():
    frame = np.eye(5)
    frame[:, 0] *= 2.0
    with pytest.raises(StructuralError):
        structure_from_frame(np.eye(5), frame)


def test_validate_reports_broken_phi():
    acs = canonical_structure(2)
    phi = np.array(acs.phi)
    phi[:, 2] = np.array([1.0, 0.0, 0.0])  # phi xi = V1 instead of 0
    broken = AlmostContactStructure(acs.gram, phi, acs.xi, acs.eta)
    res = validate_acs(broken)
    assert res["phi-xi"] == 1.0
    assert res["eta-xi"] == 0.0  # untouched identities stay exact


def test_phi_basis_orthonormal_and_adapted(rng):
    for n in (2, 3, 4):
        gram = random_gram(2 * n - 1, rng)
        acs = random_structure(n, rng, gram=gram)
        m = build_phi_basis(acs)
        assert m.shape == (2 * n - 1, 2 * n - 1)
        assert np.max(np.abs(m.T @ acs.gram @ m - np.eye(2 * n - 1))) <= 1e-12
        for i in range(n - 1):
            assert np.array_equal(m[:, n - 1 + i], acs.phi @ m[:, i])
        for v in m[:, :-1].T:  # the ker(eta) columns
            assert abs(acs.eta_of(v)) <= 1e-12
        assert np.array_equal(m[:, -1], acs.xi)


def test_phi_basis_standard_sweep_skips_degenerate_candidates():
    # xi is the first standard vector; the sweep must skip it silently.
    e = np.eye(7)
    acs = structure_from_frame(e, e[:, [1, 2, 3, 4, 5, 6, 0]])
    m = build_phi_basis(acs)
    assert np.max(np.abs(m.T @ acs.gram @ m - np.eye(7))) <= 1e-12
    assert np.array_equal(m[:, 0], e[1])


def test_phi_pairwise_skewness(rng):
    acs = random_structure(3, rng, gram=random_gram(5, rng))
    for _ in range(200):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        assert abs(acs.g(acs.phi @ x, y) + acs.g(x, acs.phi @ y)) <= 1e-12


def test_phi_is_isometry_on_ker_eta(rng):
    acs = random_structure(3, rng)
    for _ in range(50):
        x = rng.standard_normal(5)
        x = x - acs.eta_of(x) * acs.xi
        assert abs(acs.norm(acs.phi @ x) - acs.norm(x)) <= 1e-12


def _per_vector_basis(acs, seeds=None):
    """The per-vector modified Gram-Schmidt that build_phi_basis replaced: the reference."""
    dim, k = acs.dim, acs.n - 1
    chosen, vs, ws = [acs.xi], [], []

    def candidates():
        if seeds is not None:
            for s in seeds:
                yield np.asarray(s, dtype=float), True
        for j in range(dim):
            yield np.eye(dim)[j], False

    source = candidates()
    while len(vs) < k:
        w, explicit = next(source)
        for b in chosen:
            w = w - acs.g(w, b) * b
        nrm = acs.norm(w)
        if nrm <= 1e-8:
            if explicit:
                raise DegenerateSeedError("degenerate seed")
            continue
        v = w / nrm
        vs.append(v)
        ws.append(acs.phi @ v)
        chosen.extend([v, ws[-1]])
    return np.column_stack(vs + ws + [acs.xi])


def _orthonormality(acs, m):
    return float(np.max(np.abs(m.T @ acs.gram @ m - np.eye(acs.dim))))


def test_block_basis_matches_the_per_vector_loop(rng):
    # two block passes against one modified Gram-Schmidt sweep over the same
    # standard-basis candidates in the same order, and columns equal up to
    # rounding.  Near n = 30 the loop itself drifts from orthonormal by up to
    # about 1e-12, and the columns cannot agree more closely than that.
    for n in (2, 3, 5, 10, 20, 30):
        acs = random_structure(n, rng, gram=random_gram(2 * n - 1, rng))
        block = build_phi_basis(acs)
        loop = _per_vector_basis(acs)
        agree = max(1e-13, 2.0 * _orthonormality(acs, loop))
        assert np.max(np.abs(block - loop)) <= agree
        assert _orthonormality(acs, block) <= 1e-13


def test_block_basis_reorthogonalises_a_nearly_dependent_seed():
    # phiV_1 = (e2 + d e4) / |.| leaves e2 only d = 1e-7 off the span of
    # xi, V_1 and phiV_1: one projection pass leaves V_2 off orthogonal by
    # about u / d, the second pass removes that
    d, e = 1e-7, np.eye(5)
    s = np.sqrt(1.0 + d * d)
    frame = np.column_stack([e[0], e[2], (e[1] + d * e[3]) / s, (e[3] - d * e[1]) / s, e[4]])
    acs = structure_from_frame(np.eye(5), frame)
    block = build_phi_basis(acs)
    loop = _per_vector_basis(acs)
    assert _orthonormality(acs, loop) > 1e-10
    assert _orthonormality(acs, block) <= 1e-13
    assert np.max(np.abs(block - loop)) <= 1e-6


def _block_sweep_basis(acs):
    """build_phi_basis's block sweep, kept verbatim: the reference for bit identity."""
    dim, k = acs.dim, acs.n - 1
    # working order xi, V_1, phiV_1, V_2, phiV_2, ...; reordered on return
    frame = np.empty((dim, 2 * k + 1))
    frame[:, 0] = acs.xi
    m = 1
    for w in np.eye(dim):
        chosen = frame[:, :m]
        for _ in range(2):
            w = w - chosen @ (chosen.T @ (acs.gram @ w))
        nrm = acs.norm(w)
        if nrm <= 1e-8:
            continue
        frame[:, m] = w / nrm
        frame[:, m + 1] = acs.phi @ frame[:, m]
        m += 2
        if m == 2 * k + 1:
            return frame[:, [*range(1, m, 2), *range(2, m, 2), 0]]
    raise DegenerateSeedError("ran out of standard-basis candidates before completing the basis")


@pytest.mark.parametrize("n", [2, 3, 5, 30, 60])
def test_phi_basis_of_the_canonical_structure_is_the_sweep_bit_for_bit(n):
    acs = canonical_structure(n)
    basis = build_phi_basis(acs)
    assert np.array_equal(basis, _block_sweep_basis(acs))
    assert np.array_equal(basis, np.eye(acs.dim))


def _permuted(frame_order):
    e = np.eye(5)
    return structure_from_frame(e, e[:, frame_order])


@pytest.mark.parametrize("acs", [
    # a random Gram matrix
    random_structure(3, np.random.default_rng(7), gram=random_gram(5, np.random.default_rng(8))),
    # identity Gram, V_i and phiV_i swapped: phi e_0 = -e_2
    _permuted([2, 3, 0, 1, 4]),
    # identity Gram, phiV_1 sign-flipped: phi e_0 = -e_2
    structure_from_frame(np.eye(5), np.diag([1.0, 1.0, -1.0, 1.0, 1.0])),
    # identity Gram, xi = e_0 first
    _permuted([1, 2, 3, 4, 0]),
    # identity Gram and the canonical phi, but xi = -e_4
    structure_from_frame(np.eye(5), np.diag([1.0, 1.0, 1.0, 1.0, -1.0])),
    # the canonical phi, xi and eta, but G = diag(2, 2, 2, 2, 1): still a valid structure
    AlmostContactStructure(np.diag([2.0, 2.0, 2.0, 2.0, 1.0]), *canonical_structure(3)[1:]),
], ids=["random-gram", "swapped-frame", "sign-flipped-frame", "xi-first", "xi-flipped",
        "scaled-gram"])
def test_phi_basis_off_the_shortcut_is_the_sweep_bit_for_bit(acs):
    # each misses the standard-frame test of the ker(eta) slice (the last three by
    # one clause each), and the identity is not their frame
    assert max(validate_acs(acs).values()) <= 1e-12 and not acs._standard_frame
    basis = build_phi_basis(acs)
    assert np.array_equal(basis, _block_sweep_basis(acs))
    assert not np.array_equal(basis, np.eye(acs.dim))


class _FixedDraws:
    """A generator stand-in whose one standard_normal call returns the given block."""

    def __init__(self, block):
        self.block = block

    def standard_normal(self, shape):
        return self.block.reshape(shape)


@pytest.mark.parametrize("n", [2, 3, 5, 30, 60])
def test_haar_phi_frame_is_the_seeded_loop_frame(n):
    # the k = n - 1 draws the seeded loop took one at a time, in one call: the
    # same values and the same generator state, and one complex QR gives the
    # loop's frame to rounding
    acs = canonical_structure(n)
    rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
    frame = _haar_phi_frame(rng, n)
    draws = [loop_rng.standard_normal(acs.dim) for _ in range(n - 1)]
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    assert np.max(np.abs(frame - _per_vector_basis(acs, seeds=draws))) <= 1e-13
    assert np.array_equal(frame[:, n - 1:-1], acs.phi @ frame[:, :n - 1])
    assert np.array_equal(frame[:, -1], acs.xi)


def test_haar_phi_frame_refuses_a_degenerate_draw(rng):
    w = rng.standard_normal((2, 5))
    for bad in (np.vstack([w[0], 3.0 * w[0]]),  # the second seed repeats the first
                np.vstack([np.eye(5)[4], w[1]])):  # the first seed is xi
        with pytest.raises(DegenerateSeedError):
            _haar_phi_frame(_FixedDraws(bad), 3)


def test_haar_frames_are_haar():
    # a Householder QR makes R's diagonal one sign, so an unsigned Q has q[0, 0] < 0 in
    # every draw; a Haar Q has each diagonal entry negative in half of them, and the
    # signs do not change how many doubles are drawn
    rng = np.random.default_rng(0)
    q = _haar_frames(rng, (4000, 5, 5))
    negative = (np.diagonal(q, axis1=-2, axis2=-1) < 0).mean(axis=0)
    assert np.all(np.abs(negative - 0.5) < 0.05), negative
    assert rng.bit_generator.state == _drawn(4000 * 25).bit_generator.state


def _drawn(count: int) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.standard_normal(count)
    return rng
