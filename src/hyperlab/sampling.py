"""Seeded random structures, shape operators and contexts for property sweeps.

Everything here is driven by an explicit numpy Generator so that test
sweeps and the `random` CLI subcommand are reproducible bit for bit.  The
kernels draw a whole stack of samples at once; the public functions draw one.
"""
from __future__ import annotations

import numpy as np

from .curvature_engine import CurvatureContext, _check_shapes
from .tensor_core import (AlmostContactStructure, _frame_structures, _haar_frames, _t,
                          build_phi_basis)


def _grams(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """I + 0.3 S / |S|_2 for a symmetric Gaussian S: well-conditioned Gram matrices."""
    s = rng.standard_normal(shape)
    s = (s + _t(s)) / 2.0
    s /= np.maximum(np.max(np.abs(np.linalg.eigvalsh(s)), axis=-1), 1e-12)[..., None, None]
    return np.eye(shape[-1]) + 0.3 * s


def random_gram(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned symmetric positive-definite Gram matrix."""
    return _grams(rng, (dim, dim))


def _shapes(rng: np.random.Generator, frame: np.ndarray, gram, hopf: bool) -> np.ndarray:
    """f S f^T G on g-orthonormal frames f ending in xi, S a symmetric Gaussian block;
    a Hopf S is that block on ker(eta) and alpha uniform in [-2, 2] on xi.  The law of
    S is invariant under orthogonal changes of frame (for a Hopf S, those fixing xi),
    so the law of A does not depend on which such frame is given.  A gram of None is I:
    f^T is copied contiguous, as the product by I leaves it, so A keeps its bits."""
    k = frame.shape[-1] - hopf
    s = np.zeros(frame.shape)
    blk = rng.standard_normal(frame.shape[:-2] + (k, k))
    s[..., :k, :k] = (blk + _t(blk)) / 2.0
    if hopf:
        s[..., k, k] = rng.uniform(-2.0, 2.0, frame.shape[:-2])
    return frame @ s @ (np.ascontiguousarray(_t(frame)) if gram is None else _t(frame) @ gram)


def random_symmetric_shape(acs: AlmostContactStructure,
                           rng: np.random.Generator) -> np.ndarray:
    """A random g-symmetric endomorphism (no Hopf constraint), built on the fixed phi basis."""
    return _shapes(rng, build_phi_basis(acs), acs.gram, False)


def random_hopf_shape(acs: AlmostContactStructure, rng: np.random.Generator) -> np.ndarray:
    """A random g-symmetric endomorphism with A xi = alpha xi, alpha uniform in [-2, 2],
    built on the fixed phi basis."""
    return _shapes(rng, build_phi_basis(acs), acs.gram, True)


def _contexts(rng: np.random.Generator, lead: tuple, dim: int, hopf: bool):
    """(None, phi, xi, eta, A, c) of random contexts with leading shape lead, in the
    identity metric, which the array kernels read as a Gram of None: A is built on the
    Haar frame q the structure is adapted to, c is uniform in +-[0.5, 8], and each
    sample is checked as CurvatureContext does."""
    q = _haar_frames(rng, lead + (dim, dim))
    phi, xi, eta = _frame_structures(None, q)
    a = _shapes(rng, q, None, hopf)
    c = rng.uniform(0.5, 8.0, lead)
    c = np.where(rng.integers(2, size=lead) == 0, c, -c)
    _check_shapes(None, a, c)
    return None, phi, xi, eta, a, c


def _one_context(rng: np.random.Generator, n: int, hopf: bool) -> CurvatureContext:
    _, phi, xi, eta, a, c = _contexts(rng, (), 2 * n - 1, hopf)
    acs = AlmostContactStructure(np.eye(2 * n - 1), phi, xi[:, 0], eta[:, 0])
    return CurvatureContext(acs, a, float(c))


def random_context(n: int, rng: np.random.Generator) -> CurvatureContext:
    return _one_context(rng, n, hopf=False)


def random_hopf_context(n: int, rng: np.random.Generator) -> CurvatureContext:
    return _one_context(rng, n, hopf=True)
