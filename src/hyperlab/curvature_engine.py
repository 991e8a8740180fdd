"""Gauss-equation curvature and the structure Jacobi operator.

The ambient space is a complex space form of constant holomorphic
sectional curvature c != 0.  For a hypersurface with shape operator A the
induced curvature is fully determined by (phi, xi, eta, g), A and c:

    R(X,Y)Z = (c/4)[ g(Y,Z)X - g(X,Z)Y + g(phiY,Z)phiX - g(phiX,Z)phiY
                     - 2 g(phiX,Y) phiZ ] + g(AY,Z)AX - g(AX,Z)AY

The structure Jacobi operator l X = R(X, xi)xi is computed two independent
ways (the definition above, and its shape-operator closed form); their
agreement is a standing self-test.  Units: A carries 1/length, c carries
1/length^2, so l carries 1/length^2.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .checks import DEFAULT_TOL
from .tensor_core import (
    AlmostContactStructure,
    StructuralError,
    _maxabs,
    _mm,
    _of_shape,
    _read_only,
    _refuse,
    _t,
    build_phi_basis,
)


class MissingNablaAError(ValueError):
    """The operation needs a covariant-derivative provider for A and none was given."""


class _ContextFields(NamedTuple):
    acs: AlmostContactStructure
    shape_operator: np.ndarray
    c: float


class CurvatureContext(_ContextFields):
    """Pointwise hypersurface data: a structure, a g-symmetric A, and c != 0.

    The context is immutable, so the tensors every check reads are derived
    once per context and stored read-only: the definitional Jacobi path, its
    gap to the independently computed closed form, the three condition
    commutators and the ker(eta) test basis.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, acs, shape_operator, c):
        a = _of_shape(shape_operator, acs.phi.shape, "shape_operator")
        _check_shapes(acs._metric, a, c)
        return super().__new__(cls, acs, _read_only(a), float(c))

    def __setattr__(self, name, value):  # the cached tensors are set only by cached_property
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return self.acs.dim

    @property
    def a_xi(self) -> np.ndarray:
        return self.shape_operator @ self.acs.xi

    @property
    def alpha(self) -> float:
        return self.acs.g(self.a_xi, self.acs.xi)

    @cached_property
    def l_from_curvature(self) -> np.ndarray:
        """`jacobi_from_curvature` of this context, read-only."""
        return _read_only(jacobi_from_curvature(self), copy=False)

    @cached_property
    def l_path_gap(self) -> float:
        """max |l_def - l_closed| over the matrix entries: the standing self-test."""
        return float(_maxabs(self.l_from_curvature - jacobi_closed_form(self)))

    @cached_property
    def phi_l_commutator(self) -> np.ndarray:
        """phi l - l phi, with l from `jacobi_operator`, read-only."""
        ell = jacobi_operator(self)
        return _read_only(self.acs._phi_times(ell) - self.acs._phi_times(ell, right=True), False)

    @cached_property
    def l_a_commutator(self) -> np.ndarray:
        """lA - Al, with l from `jacobi_operator`, read-only."""
        return _read_only(commutator(jacobi_operator(self), self.shape_operator), copy=False)

    @cached_property
    def a_phi_commutator(self) -> np.ndarray:
        """A phi - phi A, read-only."""
        a = self.shape_operator
        return _read_only(self.acs._phi_times(a, right=True) - self.acs._phi_times(a), False)

    @cached_property
    def ker_eta_basis(self) -> np.ndarray:
        """The g-orthonormal ker(eta) test vectors of the condition checks, as columns:
        the first 2n-2 columns of `build_phi_basis`, so a function of the structure alone."""
        return _read_only(build_phi_basis(self.acs)[:, :-1])

    def to_jsonable(self) -> dict:
        return {**self.acs.to_jsonable(),
                "shape_operator": [float(v) for v in self.shape_operator.ravel()],
                "c": float(self.c)}


def _check_shapes(gram, a: np.ndarray, c):
    """Refuse c = 0 or non-finite, and a shape operator not g-symmetric to 1e-8 (1 + |A|_F)."""
    _refuse(np.asarray(c) == 0, 0, "c must be nonzero (non-flat ambient)")
    _refuse(~np.isfinite(c), c, "c must be finite, got {}")
    sym = _maxabs(_mm(gram, a) - _mm(_t(a), gram))
    _refuse(sym > 1e-8 * (1.0 + np.sqrt(np.einsum("...ij,...ij->...", a, a))), sym,
            "shape operator is not g-symmetric (residual {:.3e})")


def _g(gram, p, q) -> np.ndarray:
    """g(P_j, Q_j) for every column j, as a row."""
    return np.sum(p * _mm(gram, q), axis=-2, keepdims=True)


def _gauss(gram, phi, a, c, x, y, z) -> np.ndarray:
    """R(X_j, Y_j)Z_j column by column for (d, m) blocks, or stacks of them.  An x of None is
    the identity block taken as given: phi I is phi and A I is A, with no product by I."""
    quarter = np.expand_dims(c, (-2, -1)) / 4.0
    px, ax = (phi, a) if x is None else (phi @ x, a @ x)
    x = np.eye(phi.shape[-1]) if x is None else x
    py, pz, ay = phi @ y, phi @ z, a @ y
    out = (quarter * _g(gram, y, z)) * x
    out = out - (quarter * _g(gram, x, z)) * y
    out += (quarter * _g(gram, py, z)) * px
    out -= (quarter * _g(gram, px, z)) * py
    out -= (2.0 * quarter * _g(gram, px, y)) * pz
    out += _g(gram, ay, z) * ax
    out -= _g(gram, ax, z) * ay
    return out


def _closed_form(gram, xi, eta, a, c) -> np.ndarray:
    """l = (c/4)(I - xi eta) + alpha A - (A xi) g(A xi, .), alpha = g(A xi, xi); xi, eta columns."""
    w = a @ xi
    quarter = np.expand_dims(c, (-2, -1)) / 4.0
    alpha = _mm(_t(w), gram, xi)
    return quarter * (np.eye(a.shape[-1]) - xi * _t(eta)) + alpha * a - w * _t(_mm(gram, w))


def _check_paths(gap, a, c):
    """Refuse a Jacobi path gap above DEFAULT_TOL (1 + |c| + |A|_F^2)."""
    scale = 1.0 + np.abs(c) + np.einsum("...ij,...ij->...", a, a)
    _refuse(gap > DEFAULT_TOL * scale, gap, "Jacobi operator paths disagree by {:.3e}")


NablaAProvider = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""(W, Y) blocks -> columns (nabla_{W_j} A)Y_j, with g((nabla_W A)Y, Z) symmetric in Y, Z."""


def _columns(d: int, names: str, vectors) -> tuple[list[np.ndarray], bool]:
    """(d,) vectors or (d, m) blocks of one m as (d, m) blocks, and whether any was a block."""
    args = [np.asarray(v, dtype=float) for v in vectors]
    if (any(v.ndim not in (1, 2) or v.shape[0] != d for v in args)
            or len({v.shape[1] for v in args if v.ndim == 2}) > 1):
        raise StructuralError(f"{names} must be ({d},) vectors or ({d}, m) blocks of one m")
    return [v.reshape(d, -1) for v in args], any(v.ndim == 2 for v in args)


def gauss_curvature(ctx: CurvatureContext, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z from the Gauss equation; x, y and z are (dim,) vectors or (dim, m)
    blocks, and column j of the result is R(X_j, Y_j)Z_j (a vector fills every column)."""
    (x, y, z), block = _columns(ctx.dim, "x, y and z", (x, y, z))
    out = _gauss(ctx.acs._metric, ctx.acs.phi, ctx.shape_operator, ctx.c, x, y, z)
    return out if block else out[:, 0]


def jacobi_from_curvature(ctx: CurvatureContext) -> np.ndarray:
    """l as a matrix: the definition l X = R(X, xi)xi on the columns of the identity."""
    acs, xi = ctx.acs, ctx.acs.xi.reshape(-1, 1)
    return _gauss(acs._metric, acs.phi, ctx.shape_operator, ctx.c, None, xi, xi)


def jacobi_closed_form(ctx: CurvatureContext) -> np.ndarray:
    """l via the shape-operator closed form.

    l X = (c/4)[X - eta(X) xi] + alpha A X - g(A X, xi) A xi,
    with alpha = g(A xi, xi).  Valid with no Hopf assumption.
    """
    acs = ctx.acs
    return _closed_form(acs._metric, acs.xi[:, None], acs.eta[:, None],
                        ctx.shape_operator, ctx.c)


def jacobi_operator(ctx: CurvatureContext) -> np.ndarray:
    """The structure Jacobi operator, definitional path, cross-checked.

    Both computation paths are evaluated (once per context) and must agree
    on every call; disagreement beyond tolerance means the inputs are
    inconsistent and raises.  The returned matrix is read-only.
    """
    _check_paths(ctx.l_path_gap, ctx.shape_operator, ctx.c)
    return ctx.l_from_curvature


def _codazzi(gram, phi, xi, eta, c, nabla_a, x, y) -> np.ndarray:
    """The Codazzi residual of (X_j, Y_j) column by column on (d, m) blocks; xi, eta columns."""
    px, py = phi @ x, phi @ y
    rhs = (c / 4.0) * ((_t(eta) @ x) * py - (_t(eta) @ y) * px - 2.0 * _g(gram, px, y) * xi)
    return nabla_a(x, y) - nabla_a(y, x) - rhs


def codazzi_residual(ctx: CurvatureContext, nabla_a: NablaAProvider,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(nabla_X A)Y - (nabla_Y A)X - (c/4)[eta(X) phiY - eta(Y) phiX - 2 g(phiX, Y) xi].

    x and y are (dim,) vectors or (dim, m) blocks, as in gauss_curvature; a
    geometrically consistent provider makes the residual vanish.
    """
    if nabla_a is None:
        raise MissingNablaAError("codazzi_residual needs a nabla-A provider")
    acs = ctx.acs
    (x, y), block = _columns(ctx.dim, "x and y", (x, y))
    out = _codazzi(acs._metric, acs.phi, acs.xi[:, None], acs.eta[:, None], ctx.c, nabla_a, x, y)
    return out if block else out[:, 0]


def nabla_l(ctx: CurvatureContext, nabla_a: NablaAProvider,
            w: np.ndarray) -> np.ndarray:
    """Matrix of (nabla_W l) from the product rule on the closed form.

    Uses nabla_W xi = phi A W, nabla_W (A xi) = (nabla_W A)xi + A phi A W and
    W(alpha) = g((nabla_W A)xi, xi) + 2 g(A xi, phi A W), A being g-symmetric.
    """
    if nabla_a is None:
        raise MissingNablaAError("nabla_l needs a nabla-A provider")
    acs = ctx.acs
    return _nabla_l(acs.gram, acs.phi, acs.xi, acs.eta, ctx.shape_operator, ctx.c, nabla_a,
                    _of_shape(w, acs.xi.shape, "w"))


def _nabla_l(gram, phi, xi, eta, a, c, nabla_a, w) -> np.ndarray:
    """nabla_l on raw arrays; xi, eta and w are (d,) vectors."""
    paw = phi @ (a @ w)                # nabla_W xi
    e_w = nabla_a(w[:, None], np.eye(len(w), dtype=w.dtype))
    axi = a @ xi
    d_axi = e_w @ xi + a @ paw         # nabla_W (A xi)
    out = (-c / 4.0) * (np.outer(xi, gram @ paw) + np.outer(paw, eta))
    out = out + (axi @ gram @ xi) * e_w + ((e_w @ xi) @ gram @ xi + 2.0 * (axi @ gram @ paw)) * a
    return out - np.outer(d_axi, gram @ axi) - np.outer(axi, gram @ d_axi)


def commutator(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """PQ - QP."""
    return p @ q - q @ p
