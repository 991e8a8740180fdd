"""Symbolic audit of the ring-generic tensor kernels.

The private kernels under the public curvature functions (_gauss,
_closed_form, _codazzi, and _type_a under type_a_nabla_a) are plain array
arithmetic, so they run on numpy object arrays of sympy symbols as they are.
On the canonical frame at n = 2 and 3, with a symbol c, a symbolic symmetric
A and symbolic vector blocks, these tests prove the identities the float
checks only sample.
"""
import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from hyperlab.curvature_engine import (  # noqa: E402
    _closed_form, _codazzi, _g, _gauss, commutator)
from hyperlab.model_catalog import _type_a  # noqa: E402
from hyperlab.tensor_core import canonical_structure  # noqa: E402

c = sympy.Symbol("c", nonzero=True)


def _frame(n):
    """gram, phi, xi and eta (columns) of the canonical structure, as exact integers."""
    acs = canonical_structure(n)
    exact = lambda m: np.array(m.astype(int), dtype=object)  # noqa: E731  (0 and +-1 only)
    return exact(acs.gram), exact(acs.phi), exact(acs.xi[:, None]), exact(acs.eta[:, None])


def _symmetric(dim, hopf):
    """A symbolic symmetric A; a Hopf one keeps alpha on xi (the last axis) and no xi row."""
    a = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(i, dim):
            a[i, j] = a[j, i] = sympy.Symbol(f"a{i}{j}")
    if hopf:
        a[-1, :] = a[:, -1] = 0
        a[-1, -1] = sympy.Symbol("alpha")
    return a


def _block(name, dim, m):
    return np.array(sympy.symbols(f"{name}:{dim * m}"), dtype=object).reshape(dim, m)


def _vanishes(block) -> bool:
    return all(sympy.expand(v) == 0 for v in np.ravel(block))


@pytest.mark.parametrize("n", [2, 3])
def test_the_two_jacobi_paths_agree(n):
    gram, phi, xi, eta = _frame(n)
    a = _symmetric(len(gram), hopf=False)
    l_def = _gauss(gram, phi, a, c, np.eye(len(gram), dtype=int).astype(object), xi, xi)
    assert _vanishes(l_def - _closed_form(gram, xi, eta, a, c))


@pytest.mark.parametrize("n", [2, 3])
def test_gauss_tensor_symmetries(n):
    # the three identities the random gauss-symmetry property samples; the
    # 2 g(phiX, Y) phiZ term, which l never sees, is fixed by the Bianchi sum
    gram, phi, _, _ = _frame(n)
    dim = len(gram)
    a = _symmetric(dim, hopf=False)
    x, y, z, w = (_block(name, dim, 1) for name in "xyzw")
    r = lambda p, q, s: _gauss(gram, phi, a, c, p, q, s)  # noqa: E731
    assert _vanishes(r(x, y, z) + r(y, x, z))
    assert _vanishes(_g(gram, r(x, y, z), w) + _g(gram, r(x, y, w), z))
    assert _vanishes(r(x, y, z) + r(y, z, x) + r(z, x, y))


@pytest.mark.parametrize("n", [2, 3])
def test_hopf_identity(n):
    # A xi = alpha xi gives phi l - l phi = alpha (phi A - A phi); the paths agree, above
    gram, phi, xi, eta = _frame(n)
    a = _symmetric(len(gram), hopf=True)
    ell = _closed_form(gram, xi, eta, a, c)
    assert _vanishes(commutator(phi, ell) - a[-1, -1] * commutator(phi, a))


@pytest.mark.parametrize("n", [2, 3])
def test_type_a_provider_closes_the_codazzi_kernel(n):
    gram, phi, xi, eta = _frame(n)
    dim = len(gram)
    x, y = _block("x", dim, 2), _block("y", dim, 2)
    assert _vanishes(_codazzi(gram, phi, xi, eta, c, _type_a(gram, phi, xi, eta, c), x, y))
    # the kernel is not vacuous: a parallel A leaves the whole right-hand side
    parallel = _codazzi(gram, phi, xi, eta, c, lambda w, v: 0 * v, x, y)
    assert not _vanishes(parallel)
