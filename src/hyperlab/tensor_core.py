"""Frame-level linear algebra for almost contact metric structures.

Every tensor in this package is stored as components in a fixed working
frame on a single (2n-1)-dimensional tangent space.  The structure record
holds the metric as the Gram matrix of that frame: the identity for the
canonical structure and the catalog, any symmetric positive-definite
matrix for stress testing.  The dimension is read off the Gram matrix.

Sign conventions: the structure vector xi is -J N for the chosen unit
normal N, eta = g(., xi), and the canonical phi maps V_i -> phiV_i and
phiV_i -> -V_i on each holomorphic plane while killing xi.  Reversing the
orientation of phi on ker(eta) flips the sign of every formula that is
odd in phi; the catalog and the checks all assume this fixed orientation.
"""
from __future__ import annotations

from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .checks import integer


class StructuralError(ValueError):
    """Malformed input (wrong shapes, bad Gram matrix) as opposed to a failed identity."""


class DegenerateSeedError(ValueError):
    """A drawn seed, or every remaining candidate of build_phi_basis, lies in the chosen span."""


def _read_only(arr: np.ndarray, copy: bool = True) -> np.ndarray:
    """arr as a read-only float array.  An array from a caller is copied, so the caller's
    own stays writable; a fresh tensor that nothing else holds is frozen in place (copy=False)."""
    out = np.array(arr, dtype=float) if copy else arr
    out.flags.writeable = False
    return out


def _of_shape(v, shape: tuple, name: str) -> np.ndarray:
    """v as a float array, refused unless its shape is shape, (d,) or (d, d), and it is finite."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{name} must be finite")
    return arr


# Array kernels (_name) take (d, d) matrices and (d, 1) columns, or stacks of
# them with a leading sample axis, and check or measure each sample.
def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _maxabs(m: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(-2, -1))


def _mm(*factors) -> np.ndarray:
    """The product of factors left to right, skipping None: a Gram that is exactly I."""
    return reduce(np.matmul, [f for f in factors if f is not None])


def _refuse(bad, value, message: str):
    """Raise StructuralError if any sample is bad; {} in message shows its worst value."""
    if np.any(bad):
        raise StructuralError(message.format(np.max(np.where(bad, value, -np.inf))))


def _check_grams(gram: np.ndarray) -> np.ndarray:
    """The Cholesky factors L, G = L L^T, of Grams symmetric to 1e-12; a Gram with no
    factor is not positive definite and is refused.  The factor of an exact I is exactly I."""
    _refuse(_maxabs(gram - _t(gram)) > 1e-12, 0, "gram matrix must be symmetric")
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise StructuralError("gram matrix must be positive definite") from None


def _checked_gram(gram, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """gram (None for the identity) as a read-only array, and its Cholesky factor, refused
    unless dim is odd and >= 3 and gram is a symmetric positive-definite (dim, dim) matrix."""
    if dim < 3 or dim % 2 == 0:
        raise StructuralError(f"dimension must be odd and >= 3, got {dim}")
    gram = np.eye(dim) if gram is None else _of_shape(gram, (dim, dim), "gram")
    return _read_only(gram), _check_grams(gram)


class _StructureFields(NamedTuple):
    gram: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


class AlmostContactStructure(_StructureFields):
    """Components (g, phi, xi, eta) of an almost contact metric structure.

    The constructor validates the dimension, the shapes and the Gram matrix
    only.  Whether the defining identities actually hold is the job of
    `validate_acs`, so that perturbed or deliberately broken structures can
    still be constructed and measured.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, gram, phi, xi, eta):
        gram, _ = _checked_gram(gram, len(gram))
        d = len(gram)
        return super().__new__(cls, gram, _read_only(_of_shape(phi, (d, d), "phi")),
                               _read_only(_of_shape(xi, (d,), "xi")),
                               _read_only(_of_shape(eta, (d,), "eta")))

    def __setattr__(self, name, value):  # the cached fields are set only by cached_property
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def n(self) -> int:
        return (self.dim + 1) // 2

    @cached_property
    def _metric(self) -> np.ndarray | None:
        """gram, or None when it is exactly I, as the array kernels read the identity."""
        return None if np.array_equal(self.gram, np.eye(self.dim)) else self.gram

    @cached_property
    def _standard_frame(self) -> bool:
        """Whether G = I, xi = e_dim and phi is canonical_structure's block rotation, phi xi = 0
        included: then build_phi_basis is I and a product by phi is `_phi_times`'s block swap."""
        k, eye = self.n - 1, np.eye(self.dim)
        return (self._metric is None and np.array_equal(self.xi, eye[-1])
                and np.array_equal(self.phi[:, :k], eye[:, k:2 * k])
                and np.array_equal(self.phi[:, k:2 * k], -eye[:, :k])
                and not self.phi[:, -1].any())

    def _phi_times(self, m: np.ndarray, right: bool = False) -> np.ndarray:
        """phi m, or m phi when right.  On the standard frame each is a signed block swap of
        m, which equals the product exactly (one +-1 per row), signs of zeros aside."""
        if not self._standard_frame:
            return m @ self.phi if right else self.phi @ m
        k, out = self.n - 1, np.zeros(m.shape)
        if right:
            out[:, :k], out[:, k:2 * k] = m[:, k:2 * k], -m[:, :k]
        else:
            out[:k], out[k:2 * k] = -m[k:2 * k], m[:k]
        return out

    def g(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.gram @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.g(x, x), 0.0)))

    def eta_of(self, x: np.ndarray) -> float:
        return float(self.eta @ x)

    def to_jsonable(self) -> dict:
        """dim, then each field's components in declaration order, matrices row-major."""
        return {"dim": self.dim, **{name: [float(v) for v in value.ravel()]
                                    for name, value in self._asdict().items()}}


def canonical_structure(n: int) -> AlmostContactStructure:
    """The standard structure in the orthonormal working frame.

    Basis order is V_1..V_{n-1}, phiV_1..phiV_{n-1}, xi; phi is the block
    rotation sending V_i to phiV_i and phiV_i to -V_i, and xi spans its
    kernel.  Its fields are exact, so its identity Gram is not re-checked.
    """
    dim = 2 * (n := integer("n", n, StructuralError, 2)) - 1
    k = n - 1
    phi = np.zeros((dim, dim))
    phi[k:2 * k, :k] = np.eye(k)
    phi[:k, k:2 * k] = -np.eye(k)
    xi = np.zeros(dim)
    xi[-1] = 1.0
    return _StructureFields.__new__(AlmostContactStructure,
                                    *map(_read_only, (np.eye(dim), phi, xi, xi)))


def _frame_structures(gram, frame: np.ndarray):
    """phi, xi and eta (columns) of the structures adapted to g-orthonormal frames.  For a gram
    of None (I), V and phiV are copied contiguous, as the product by I leaves them: phi's bits."""
    _refuse(_maxabs(_mm(_t(frame), gram, frame) - np.eye(frame.shape[-1])) > 1e-6, 0,
            "frame columns are not g-orthonormal")
    k = frame.shape[-1] // 2
    v, w, xi = frame[..., :k], frame[..., k:2 * k], frame[..., -1:]
    gv, gw = map(np.ascontiguousarray, (v, w)) if gram is None else (gram @ v, gram @ w)
    return w @ _t(gv) - v @ _t(gw), xi, _mm(gram, xi)


def structure_from_frame(gram: np.ndarray, frame: np.ndarray) -> AlmostContactStructure:
    """Build the structure whose adapted frame is the given g-orthonormal columns.

    Column order must be V_1..V_{n-1}, phiV_1..phiV_{n-1}, xi.  The result
    satisfies the structure identities exactly to the extent that the frame
    is exactly g-orthonormal.
    """
    gram, _ = _checked_gram(gram, len(gram))
    phi, xi, eta = _frame_structures(gram, _of_shape(frame, gram.shape, "frame"))
    return AlmostContactStructure(gram, phi, xi[:, 0], eta[:, 0])


def _haar_frames(rng: np.random.Generator, shape: tuple, factor=None) -> np.ndarray:
    """Uniformly random g-orthonormal frames: the Q of a Gaussian QR, its columns signed so that
    R's diagonal is positive (Householder fixes its sign, and Q is Haar only once that choice is
    undone; Mezzadri, Notices AMS 54, 2007), times L^-T on each sample whose Cholesky factor L
    (from _check_grams) is given and not exactly I, where L^-T Q is Q."""
    q, r = np.linalg.qr(rng.standard_normal(shape))
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]
    if factor is not None:
        on = ~np.all(factor == np.eye(shape[-1]), axis=(-2, -1))
        q[on] = np.linalg.solve(_t(factor[on]), q[on])
    return q


def _haar_phi_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    """A phi-adapted frame of canonical_structure(n) from k = n-1 seeds w drawn from rng, as one
    complex QR: ker(eta) is C^k with phi acting as i, so w is z = w[:k] + i w[k:2k], and with R's
    diagonal made real positive q is their Gram-Schmidt.  V = (Re q, Im q), phiV = (-Im q, Re q)."""
    k = n - 1
    w = rng.standard_normal((k, 2 * n - 1))
    q, r = np.linalg.qr((w[:, :k] + 1j * w[:, k:2 * k]).T)
    d = r.diagonal()
    if abs(d).min() <= 1e-8:
        raise DegenerateSeedError("a drawn seed lies (numerically) in the span already chosen")
    q = q * (d / abs(d))
    frame = np.eye(2 * n - 1)  # xi last
    frame[:k, :k] = frame[k:2 * k, k:2 * k] = q.real
    frame[k:2 * k, :k], frame[:k, k:2 * k] = q.imag, -q.imag
    return frame


def random_structure(n: int, rng: np.random.Generator,
                     gram: np.ndarray | None = None) -> AlmostContactStructure:
    """A valid structure in a uniformly random g-orthonormal frame."""
    gram, factor = _checked_gram(gram, 2 * integer("n", n, StructuralError, 2) - 1)  # before a draw
    return structure_from_frame(gram, _haar_frames(rng, gram.shape, factor))


def _skew(gram, phi) -> np.ndarray:
    """max |G phi + phi^T G|: how far phi is from g-skew."""
    return _maxabs(_mm(gram, phi) + _mm(_t(phi), gram))


def _acs_residuals(gram, phi, xi, eta, squares=None) -> dict[str, np.ndarray]:
    """validate_acs's residuals per sample; squares (phi phi, phi^T G phi) default to products."""
    eta_t, g = _t(eta), np.eye(phi.shape[-1]) if gram is None else gram
    pp, ptgp = squares or (phi @ phi, _mm(_t(phi), gram, phi))
    return {
        "phi-square": _maxabs(pp + np.eye(phi.shape[-1]) - xi * eta_t),
        "eta-phi": _maxabs(eta_t @ phi),
        "phi-xi": _maxabs(phi @ xi),
        "eta-xi": np.abs(eta_t @ xi - 1.0)[..., 0, 0],
        "metric-compat": _maxabs(ptgp - (g - eta * eta_t)),
        "skew": _skew(gram, phi),
        "eta-from-metric": _maxabs(eta - _mm(gram, xi)),
    }


def validate_acs(acs: AlmostContactStructure) -> dict[str, float]:
    """Max-abs residuals of the defining identities, keyed by identity name.

    A structurally malformed input raises; a structure that merely fails
    the identities comes back with nonzero residuals.  The residual map is
    the zero map exactly when every identity holds exactly.
    """
    squares = acs._phi_times(acs.phi), acs._phi_times(_mm(acs.phi.T, acs._metric), right=True)
    res = _acs_residuals(acs._metric, acs.phi, acs.xi[:, None], acs.eta[:, None], squares)
    return {name: float(value) for name, value in res.items()}


def build_phi_basis(acs: AlmostContactStructure) -> np.ndarray:
    """Complete xi to a phi-adapted g-orthonormal frame, returned as columns.

    Column order is V_1..V_{n-1}, phiV_1..phiV_{n-1}, xi, and column n-1+i
    is phi applied to column i, exactly as constructed (no
    re-orthonormalization of the phi images).

    The candidates are the standard basis vectors, in order.  Each is
    projected g-orthogonally off the columns B chosen so far (which lands it
    in ker(eta)) by the block step w - B(B^T G w), applied twice since two
    classical Gram-Schmidt passes are as stable as the modified form, and
    normalized; phiV_i is appended as the literal phi image.  A candidate
    whose projection is numerically zero is skipped.  The frame depends on
    the structure alone.  On the standard frame (`_standard_frame`) every
    projection is exactly 0 and every norm 1, so the frame is exactly I.
    """
    dim, k, eye = acs.dim, acs.n - 1, np.eye(acs.dim)
    # working order xi, V_1, phiV_1, V_2, phiV_2, ...; reordered on return
    frame = np.empty((dim, 2 * k + 1))
    frame[:, 0] = acs.xi
    m = 1
    for w in eye:
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
