"""Seeded random structures, shape operators and contexts for property sweeps.

Everything here is driven by an explicit numpy Generator so that test
sweeps and the `random` CLI subcommand are reproducible bit for bit.
"""
from __future__ import annotations

import numpy as np

from .curvature_engine import CurvatureContext
from .tensor_core import AlmostContactStructure, build_phi_basis, random_structure


def random_gram(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned symmetric positive-definite Gram matrix."""
    s = rng.standard_normal((dim, dim))
    s = (s + s.T) / 2.0
    s = s / max(float(np.linalg.norm(s, 2)), 1e-12)
    return np.eye(dim) + 0.3 * s


def random_nonzero_c(rng: np.random.Generator) -> float:
    c = float(rng.uniform(0.5, 8.0))
    return c if rng.integers(2) == 0 else -c


def random_symmetric_shape(acs: AlmostContactStructure,
                           rng: np.random.Generator) -> np.ndarray:
    """A random g-symmetric endomorphism (no Hopf constraint)."""
    basis = build_phi_basis(acs, rng=rng)
    f = basis.matrix
    s = rng.standard_normal((acs.dim, acs.dim))
    s = (s + s.T) / 2.0
    return f @ s @ (f.T @ acs.space.gram)


def random_hopf_shape(acs: AlmostContactStructure, rng: np.random.Generator) -> np.ndarray:
    """A random g-symmetric endomorphism with A xi = alpha xi, alpha uniform in [-2, 2]."""
    basis = build_phi_basis(acs, rng=rng)
    f = basis.matrix
    k = acs.dim - 1
    s = np.zeros((acs.dim, acs.dim))
    blk = rng.standard_normal((k, k))
    s[:k, :k] = (blk + blk.T) / 2.0
    s[k, k] = float(rng.uniform(-2.0, 2.0))
    return f @ s @ (f.T @ acs.space.gram)


def random_context(n: int, rng: np.random.Generator) -> CurvatureContext:
    acs = random_structure(n, rng)
    a = random_symmetric_shape(acs, rng)
    return CurvatureContext(acs, a, random_nonzero_c(rng))


def random_hopf_context(n: int, rng: np.random.Generator) -> CurvatureContext:
    acs = random_structure(n, rng)
    a = random_hopf_shape(acs, rng)
    return CurvatureContext(acs, a, random_nonzero_c(rng))
