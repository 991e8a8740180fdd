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

from typing import NamedTuple

import numpy as np


class StructuralError(ValueError):
    """Malformed input (wrong shapes, bad Gram matrix) as opposed to a failed identity."""


class DegenerateSeedError(ValueError):
    """A basis seed, explicit or (with probability zero) drawn, lies in the span already chosen."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _of_shape(v, shape: tuple, name: str) -> np.ndarray:
    """v as a float array, refused unless its shape is shape, (d,) or (d, d)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


# Array kernels (_name) take (d, d) matrices and (d, 1) columns, or stacks of
# them with a leading sample axis, and check or measure each sample.
def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _maxabs(m: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(-2, -1))


def _refuse(bad, value, message: str):
    """Raise StructuralError if any sample is bad; {} in message shows its worst value."""
    if np.any(bad):
        raise StructuralError(message.format(np.max(np.where(bad, value, -np.inf))))


def _check_grams(gram: np.ndarray):
    _refuse(_maxabs(gram - _t(gram)) > 1e-12, 0, "gram matrix must be symmetric")
    _refuse(np.linalg.eigvalsh(gram)[..., 0] <= 0, 0, "gram matrix must be positive definite")


def _checked_gram(gram, dim: int) -> np.ndarray:
    """gram (None for the identity) as a read-only array, refused unless dim is odd
    and >= 3 and gram is a symmetric positive-definite (dim, dim) matrix."""
    if dim < 3 or dim % 2 == 0:
        raise StructuralError(f"dimension must be odd and >= 3, got {dim}")
    gram = np.eye(dim) if gram is None else _of_shape(gram, (dim, dim), "gram")
    _check_grams(gram)
    return _read_only(gram)


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

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, gram, phi, xi, eta):
        gram = _checked_gram(gram, len(gram))
        d = len(gram)
        return super().__new__(cls, gram, _read_only(_of_shape(phi, (d, d), "phi")),
                               _read_only(_of_shape(xi, (d,), "xi")),
                               _read_only(_of_shape(eta, (d,), "eta")))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def n(self) -> int:
        return (self.dim + 1) // 2

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
    kernel.
    """
    if n < 2:
        raise StructuralError(f"n must be >= 2, got {n}")
    dim = 2 * n - 1
    k = n - 1
    phi = np.zeros((dim, dim))
    phi[k:2 * k, :k] = np.eye(k)
    phi[:k, k:2 * k] = -np.eye(k)
    xi = np.zeros(dim)
    xi[-1] = 1.0
    return AlmostContactStructure(np.eye(dim), phi, xi, xi.copy())


def _frame_structures(gram: np.ndarray, frame: np.ndarray):
    """phi, xi and eta (columns) of the structures adapted to g-orthonormal frames."""
    _refuse(_maxabs(_t(frame) @ gram @ frame - np.eye(frame.shape[-1])) > 1e-6, 0,
            "frame columns are not g-orthonormal")
    k = frame.shape[-1] // 2
    v, w, xi = frame[..., :k], frame[..., k:2 * k], frame[..., -1:]
    return w @ _t(gram @ v) - v @ _t(gram @ w), xi, gram @ xi


def structure_from_frame(gram: np.ndarray, frame: np.ndarray) -> AlmostContactStructure:
    """Build the structure whose adapted frame is the given g-orthonormal columns.

    Column order must be V_1..V_{n-1}, phiV_1..phiV_{n-1}, xi.  The result
    satisfies the structure identities exactly to the extent that the frame
    is exactly g-orthonormal.
    """
    gram = _checked_gram(gram, len(gram))
    phi, xi, eta = _frame_structures(gram, _of_shape(frame, gram.shape, "frame"))
    return AlmostContactStructure(gram, phi, xi[:, 0], eta[:, 0])


def _haar_frames(rng: np.random.Generator, shape: tuple, gram=None) -> np.ndarray:
    """Uniformly random g-orthonormal frames: the Q of a Gaussian QR, times L^-T
    for G = L L^T when Grams are given (L^-T Q is exactly Q for the identity)."""
    q, _ = np.linalg.qr(rng.standard_normal(shape))
    return q if gram is None else np.linalg.solve(_t(np.linalg.cholesky(gram)), q)


def _haar_phi_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    """build_phi_basis(canonical_structure(n), seeds) for k = n-1 seeds w drawn from rng, as one
    complex QR: ker(eta) is C^k with phi acting as i, so w is z = w[:k] + i w[k:2k], and with R's
    diagonal made real positive q is that Gram-Schmidt.  V = (Re q, Im q), phiV = (-Im q, Re q)."""
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
    gram = _checked_gram(gram, 2 * n - 1)  # before any draw
    return structure_from_frame(gram, _haar_frames(rng, gram.shape, gram))


def _acs_residuals(gram, phi, xi, eta) -> dict[str, np.ndarray]:
    eta_t = _t(eta)
    return {
        "phi-square": _maxabs(phi @ phi + np.eye(phi.shape[-1]) - xi * eta_t),
        "eta-phi": _maxabs(eta_t @ phi),
        "phi-xi": _maxabs(phi @ xi),
        "eta-xi": np.abs(eta_t @ xi - 1.0)[..., 0, 0],
        "metric-compat": _maxabs(_t(phi) @ gram @ phi - (gram - eta * eta_t)),
        "skew": _maxabs(gram @ phi + _t(phi) @ gram),
        "eta-from-metric": _maxabs(eta - gram @ xi),
    }


def validate_acs(acs: AlmostContactStructure) -> dict[str, float]:
    """Max-abs residuals of the defining identities, keyed by identity name.

    A structurally malformed input raises; a structure that merely fails
    the identities comes back with nonzero residuals.  The residual map is
    the zero map exactly when every identity holds exactly.
    """
    res = _acs_residuals(acs.gram, acs.phi, acs.xi[:, None], acs.eta[:, None])
    return {name: float(value) for name, value in res.items()}


def build_phi_basis(acs: AlmostContactStructure,
                    seeds: list[np.ndarray] | None = None) -> np.ndarray:
    """Complete xi to a phi-adapted g-orthonormal frame, returned as columns.

    Column order is V_1..V_{n-1}, phiV_1..phiV_{n-1}, xi, and column n-1+i
    is phi applied to column i, exactly as constructed (no
    re-orthonormalization of the phi images).

    Each new V_i comes from the next seed, projected g-orthogonally off the
    columns B chosen so far (which lands it in ker(eta)) by the block step
    w - B(B^T G w), applied twice since two classical Gram-Schmidt passes
    are as stable as the modified form, and normalized; phiV_i is appended
    as the literal phi image.  Seeds are consumed in order: the explicit
    `seeds` list first, then a deterministic sweep of the standard basis.
    An explicit seed whose projection is numerically zero raises
    DegenerateSeedError; sweep candidates that degenerate are skipped.
    """
    dim, k = acs.dim, acs.n - 1
    # working order xi, V_1, phiV_1, V_2, phiV_2, ...; reordered on return
    frame = np.empty((dim, 2 * k + 1))
    frame[:, 0] = acs.xi
    m = 1
    explicit = [_of_shape(s, (dim,), "seed") for s in (() if seeds is None else seeds)]
    for i, w in enumerate([*explicit, *np.eye(dim)]):
        chosen = frame[:, :m]
        for _ in range(2):
            w = w - chosen @ (chosen.T @ (acs.gram @ w))
        nrm = acs.norm(w)
        if nrm <= 1e-8:
            if i < len(explicit):
                raise DegenerateSeedError("seed lies (numerically) in the span already chosen")
            continue
        frame[:, m] = w / nrm
        frame[:, m + 1] = acs.phi @ frame[:, m]
        m += 2
        if m == 2 * k + 1:
            return frame[:, [*range(1, m, 2), *range(2, m, 2), 0]]
    raise DegenerateSeedError("ran out of seed candidates before completing the basis")
