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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .tensor_core import (
    DEFAULT_TOL,
    AlmostContactStructure,
    StructuralError,
    _check_matrix,
    _check_vector,
    _read_only,
)


class MissingNablaAError(RuntimeError):
    """The operation needs a covariant-derivative provider for A and none was given."""


@dataclass(frozen=True)
class CurvatureContext:
    """Pointwise hypersurface data: a structure, a g-symmetric A, and c != 0.

    The context is immutable, so the tensors every check reads are derived
    once per context and stored read-only: both Jacobi paths (each still
    computed independently of the other) and the ker(eta) test basis.
    """

    acs: AlmostContactStructure
    shape_operator: np.ndarray
    c: float
    structural_tol: float = 1e-8

    def __post_init__(self):
        a = _check_matrix(self.shape_operator, self.acs.dim, "shape_operator")
        if self.c == 0:
            raise StructuralError("c must be nonzero (non-flat ambient)")
        gram = self.acs.space.gram
        sym = np.max(np.abs(gram @ a - a.T @ gram))
        scale = 1.0 + float(np.linalg.norm(a))
        if sym > self.structural_tol * scale:
            raise StructuralError(f"shape operator is not g-symmetric (residual {sym:.3e})")
        object.__setattr__(self, "shape_operator", _read_only(a))
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.acs.dim

    @property
    def a_xi(self) -> np.ndarray:
        return self.shape_operator @ self.acs.xi

    @property
    def alpha(self) -> float:
        return self.acs.g(self.a_xi, self.acs.xi)

    def g(self, x, y) -> float:
        return self.acs.g(x, y)

    @cached_property
    def l_from_curvature(self) -> np.ndarray:
        """`jacobi_from_curvature` of this context, read-only."""
        return _read_only(jacobi_from_curvature(self))

    @cached_property
    def l_closed_form(self) -> np.ndarray:
        """`jacobi_closed_form` of this context, read-only."""
        return _read_only(jacobi_closed_form(self))

    @cached_property
    def ker_eta_basis(self) -> np.ndarray:
        """The g-orthonormal ker(eta) test vectors of the condition checks, as columns.

        The seeding policy belongs to hopf_conditions, which imports this
        module; hence the import at call time.
        """
        from .hopf_conditions import _ker_eta_test_basis
        return _read_only(_ker_eta_test_basis(self))

    def to_jsonable(self) -> dict:
        out = self.acs.to_jsonable()
        out["shape_operator"] = [float(v) for v in self.shape_operator.ravel()]
        out["c"] = float(self.c)
        return out


class NablaAProvider:
    """Bilinear map (X, Y) -> (nabla_X A)Y with g((nabla_X A)Y, Z) symmetric in Y, Z.

    An optional scalar-derivative hook reports directional derivatives of
    alpha = g(A xi, xi); it defaults to zero, which is exact for the
    catalog models where alpha is constant.
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 dim: int,
                 alpha_derivative: Callable[[np.ndarray], float] | None = None,
                 endomorphism_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        self._fn = fn
        self._dim = dim
        self._alpha_derivative = alpha_derivative
        self._endomorphism_fn = endomorphism_fn

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._fn(x, y)

    def endomorphism(self, w: np.ndarray) -> np.ndarray:
        """Matrix of Y -> (nabla_W A)Y in the working frame."""
        if self._endomorphism_fn is not None:
            return self._endomorphism_fn(w)
        cols = []
        for j in range(self._dim):
            e = np.zeros(self._dim)
            e[j] = 1.0
            cols.append(self._fn(w, e))
        return np.column_stack(cols)

    def alpha_rate(self, w: np.ndarray) -> float:
        if self._alpha_derivative is None:
            return 0.0
        return float(self._alpha_derivative(w))


def zero_nabla_a(dim: int) -> NablaAProvider:
    """The provider of a parallel shape operator (nabla A identically zero)."""
    zero = np.zeros(dim)
    return NablaAProvider(lambda x, y: zero.copy(), dim,
                          endomorphism_fn=lambda w: np.zeros((dim, dim)))


def gauss_curvature(ctx: CurvatureContext, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z from the Gauss equation of the hypersurface."""
    d = ctx.dim
    x = _check_vector(x, d, "x")
    y = _check_vector(y, d, "y")
    z = _check_vector(z, d, "z")
    g, phi, a = ctx.g, ctx.acs.phi, ctx.shape_operator
    px, py, pz = phi @ x, phi @ y, phi @ z
    ax, ay = a @ x, a @ y
    quarter = ctx.c / 4.0
    out = (quarter * g(y, z)) * x
    out = out - (quarter * g(x, z)) * y
    out = out + (quarter * g(py, z)) * px
    out = out - (quarter * g(px, z)) * py
    out = out - (2.0 * quarter * g(px, y)) * pz
    out = out + g(ay, z) * ax
    out = out - g(ax, z) * ay
    return out


def jacobi_from_curvature(ctx: CurvatureContext) -> np.ndarray:
    """l as a matrix, column by column from the definition l X = R(X, xi)xi."""
    xi = ctx.acs.xi
    cols = []
    for j in range(ctx.dim):
        e = np.zeros(ctx.dim)
        e[j] = 1.0
        cols.append(gauss_curvature(ctx, e, xi, xi))
    return np.column_stack(cols)


def jacobi_closed_form(ctx: CurvatureContext) -> np.ndarray:
    """l via the shape-operator closed form.

    l X = (c/4)[X - eta(X) xi] + alpha A X - g(A X, xi) A xi,
    with alpha = g(A xi, xi).  Valid with no Hopf assumption.
    """
    gram = ctx.acs.space.gram
    xi, eta = ctx.acs.xi, ctx.acs.eta
    a = ctx.shape_operator
    w = a @ xi
    quarter = ctx.c / 4.0
    eye = np.eye(ctx.dim)
    return quarter * (eye - np.outer(xi, eta)) + ctx.alpha * a - np.outer(w, gram @ w)


def jacobi_operator(ctx: CurvatureContext, cross_check: bool = True,
                    tol: float | None = None) -> np.ndarray:
    """The structure Jacobi operator, definitional path, cross-checked.

    Both computation paths are evaluated (once per context) and must agree
    on every call; disagreement beyond tolerance means the inputs are
    inconsistent and raises.  The returned matrix is read-only.
    """
    l_def = ctx.l_from_curvature
    if cross_check:
        l_closed = ctx.l_closed_form
        tol = DEFAULT_TOL if tol is None else tol
        scale = 1.0 + abs(ctx.c) + float(np.linalg.norm(ctx.shape_operator)) ** 2
        gap = float(np.max(np.abs(l_def - l_closed)))
        if gap > tol * scale:
            raise StructuralError(f"Jacobi operator paths disagree by {gap:.3e}")
    return l_def


def codazzi_residual(ctx: CurvatureContext, nabla_a: NablaAProvider,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(nabla_X A)Y - (nabla_Y A)X minus the Codazzi right-hand side.

    The right-hand side is (c/4)[eta(X) phiY - eta(Y) phiX - 2 g(phiX, Y) xi];
    a geometrically consistent provider makes the residual vanish.
    """
    if nabla_a is None:
        raise MissingNablaAError("codazzi_residual needs a nabla-A provider")
    d = ctx.dim
    x = _check_vector(x, d, "x")
    y = _check_vector(y, d, "y")
    acs = ctx.acs
    px, py = acs.phi @ x, acs.phi @ y
    skew = nabla_a(x, y) - nabla_a(y, x)
    rhs = (ctx.c / 4.0) * (acs.eta_of(x) * py - acs.eta_of(y) * px
                           - 2.0 * acs.g(px, y) * acs.xi)
    return skew - rhs


def nabla_l(ctx: CurvatureContext, nabla_a: NablaAProvider,
            w: np.ndarray) -> np.ndarray:
    """Matrix of (nabla_W l) from the product rule on the closed form.

    Uses nabla_W xi = phi A W, nabla_W (A xi) = (nabla_W A)xi + A phi A W,
    and the provider's alpha-rate (zero unless a scalar-derivative hook is
    attached).
    """
    if nabla_a is None:
        raise MissingNablaAError("nabla_l needs a nabla-A provider")
    w = _check_vector(w, ctx.dim, "w")
    acs = ctx.acs
    gram = acs.space.gram
    a = ctx.shape_operator
    xi, eta = acs.xi, acs.eta

    paw = acs.phi @ (a @ w)            # nabla_W xi
    e_w = nabla_a.endomorphism(w)
    axi = a @ xi
    d_axi = e_w @ xi + a @ paw         # nabla_W (A xi)
    d_alpha = nabla_a.alpha_rate(w)

    out = (-ctx.c / 4.0) * (np.outer(xi, gram @ paw) + np.outer(paw, eta))
    out = out + d_alpha * a + ctx.alpha * e_w
    out = out - np.outer(d_axi, gram @ axi) - np.outer(axi, gram @ d_axi)
    return out


def commutator(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """PQ - QP."""
    return p @ q - q @ p
