"""Scalar side of the tilted (non-Hopf) analysis.

On the open set where A xi = alpha xi + beta U with beta > 0 and U a unit
field in ker(eta), the commutation hypothesis pins the shape operator down
to three scalars on span{xi, U, phiU}, forces a nine-row Levi-Civita
connection table in terms of auxiliary fields W1, W2, W3 (all orthogonal to
xi and U), and fixes the rotation coefficients k1 = g(W1, phiU) and
k2 = g(W2, phiU) in closed form.  The first derivatives of alpha and beta
are then proportional to k3 = g(W3, phiU), and commuting second derivatives
collapses everything to the dichotomy

    (beta/alpha) (c - 4 alpha^2 - 2 beta^2) k3 = 0.

The k3 != 0 branch dies because the xi-derivative of the factor forces
2 alpha^2 + beta^2 = 0; the k3 = 0 branch dies on a sign certificate: the
norm identity for W1 makes f(w) = 64 w^2 + 60 c w + 12 c beta^2 (w =
alpha^2) obligated to stay positive, yet its discriminant 3600 c^2 -
3072 c beta^2 is nonnegative for every c < 0 and for c > 0 whenever
beta^2 <= 75 c / 64.  This module holds the whole scalar chain as data:
a jet container, residual rows for every relation, and the certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature_engine import CurvatureContext, jacobi_operator
from .hopf_conditions import ConditionReport
from .tensor_core import DEFAULT_TOL, canonical_structure

WITNESSED = "contradiction-witnessed"
NO_WITNESS = "no-witness-at-this-beta"

FIRST_ORDER_DIRECTIONS = ("xi", "U", "phiU")

JET_SCALAR_MAX = 1e50
"""Largest |alpha|, |beta|, |c| a jet accepts: the jet formulas raise them to
at most the fourth power, which stays near 1e200, far from float overflow."""


class JetError(ValueError):
    """A local jet violates its open-set preconditions."""


def _require(cond: bool, msg: str):
    if not cond:
        raise JetError(msg)


def _require_scalars(alpha: float, beta: float, c: float):
    """alpha, beta and c within JET_SCALAR_MAX in magnitude (NaN fails too)."""
    for name, value in (("alpha", alpha), ("beta", beta), ("c", c)):
        _require(abs(value) <= JET_SCALAR_MAX,
                 f"jet scalar {name} = {value!r} exceeds {JET_SCALAR_MAX:g} in magnitude")


def _require_alpha(alpha: float, what: str):
    """alpha != 0, and alpha**2 must not underflow: every formula divides by it."""
    _require(alpha * alpha != 0.0, f"{what} needs alpha**2 > 0, got alpha = {alpha!r}")


@dataclass(frozen=True)
class LocalJet:
    """First-order scalar data of a tilted configuration at one point.

    d_alpha / d_beta map direction names to directional derivatives.  The
    mandatory directions are xi, U, phiU; phiW2 and W3 (for alpha) and
    phiW1 (for beta) unlock the corresponding optional rows, as do the two
    mixed second derivatives and the squared norm of W1.
    """

    alpha: float
    beta: float
    c: float
    gamma: float = 0.0
    lam: float = 0.0
    kappa1: float | None = None
    kappa2: float | None = None
    kappa3: float = 0.0
    d_alpha: dict[str, float] = field(default_factory=dict)
    d_beta: dict[str, float] = field(default_factory=dict)
    w1_norm_sq: float | None = None
    d2_beta_phiU_xi: float | None = None
    d2_alpha_phiU_U: float | None = None

    def __post_init__(self):
        _require(self.c != 0.0, "c must be nonzero")
        _require_alpha(self.alpha, "the tilted set")
        _require(self.beta > 0.0, "beta must be positive on the tilted set")
        k1, k2 = rotation_coefficients(self.alpha, self.beta, self.c)
        if self.kappa1 is None:
            object.__setattr__(self, "kappa1", k1)
        if self.kappa2 is None:
            object.__setattr__(self, "kappa2", k2)
        for direction in FIRST_ORDER_DIRECTIONS:
            self.d_alpha.setdefault(direction, 0.0)
            self.d_beta.setdefault(direction, 0.0)
        for key, target in _MAPPING_KEYS.items():
            value = (getattr(self, target[0]).get(target[1]) if isinstance(target, tuple)
                     else getattr(self, target))
            _require(value is None or math.isfinite(value),
                     f"jet value {key} = {value!r} is not finite")

    def to_jsonable(self) -> dict:
        out = {
            "alpha": self.alpha, "beta": self.beta, "c": self.c,
            "gamma": self.gamma, "lambda": self.lam,
            "kappa1": self.kappa1, "kappa2": self.kappa2, "kappa3": self.kappa3,
            "d_alpha": dict(sorted(self.d_alpha.items())),
            "d_beta": dict(sorted(self.d_beta.items())),
        }
        for key in ("w1_norm_sq", "d2_beta_phiU_xi", "d2_alpha_phiU_U"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def rotation_coefficients(alpha: float, beta: float, c: float) -> tuple[float, float]:
    """Closed forms of k1 = g(nabla_xi U, phiU) and k2 = g(nabla_U U, phiU)."""
    _require_scalars(alpha, beta, c)
    _require(alpha * beta != 0.0 and c != 0.0,
             "rotation coefficients need alpha, beta, c nonzero (alpha beta must not underflow)")
    k1 = -4.0 * alpha
    k2 = -4.0 * beta + (c / (4.0 * alpha * beta)) * (c / (4.0 * alpha) - beta ** 2 / alpha)
    return k1, k2


@dataclass(frozen=True)
class ShapeConnectionTable:
    """Shape-operator scalars and the nine covariant-derivative rows.

    connection maps (direction, field) over {xi, U, phiU} to coefficient
    dictionaries on the frame extended by W1, W2, W3, phiW1, phiW2, phiW3.
    """

    shape: dict[str, float]
    connection: dict[tuple[str, str], dict[str, float]]

    def to_jsonable(self) -> dict:
        return {
            "shape": dict(sorted(self.shape.items())),
            "connection": {
                f"nabla[{d}]{f_}": dict(sorted(coeffs.items()))
                for (d, f_), coeffs in sorted(self.connection.items())
            },
        }


def shape_connection_rows(alpha: float, beta: float, c: float) -> ShapeConnectionTable:
    """The pinned shape scalars and connection table of a tilted configuration.

    AU has no phiU component and A phiU is an eigenvector; covariant
    derivatives of the adapted frame then carry only the auxiliary fields
    W1 = nabla_xi U, W2 = nabla_U U and the ker(eta) part W3 of
    nabla_phiU U, plus frame terms with the coefficients below.
    """
    _require_scalars(alpha, beta, c)
    _require(alpha != 0.0, "the tilted shape table needs alpha != 0")
    q = c / (4.0 * alpha)
    a_uu = beta ** 2 / alpha - q
    shape = {"A-U-U": a_uu, "A-U-xi": beta, "A-phiU-phiU": -q}
    connection = {
        ("xi", "xi"): {"phiU": beta},
        ("U", "xi"): {"phiU": a_uu},
        ("phiU", "xi"): {"U": q},
        ("xi", "U"): {"W1": 1.0},
        ("U", "U"): {"W2": 1.0},
        ("phiU", "U"): {"W3": 1.0, "xi": -q},
        ("xi", "phiU"): {"phiW1": 1.0, "xi": -beta},
        ("U", "phiU"): {"phiW2": 1.0, "xi": q - beta ** 2 / alpha},
        ("phiU", "phiU"): {"phiW3": 1.0},
    }
    return ShapeConnectionTable(shape, connection)


def alpha_zero_commutator_norm(c: float, beta: float) -> float:
    """Measured |(phi l - l phi)U| for the flat-tilt configuration.

    Realizes A xi = beta U, A U = beta xi, A phiU = 0 on a 3-dimensional
    tangent space and evaluates the commutator on U through the full
    curvature pipeline.  The exact value is beta^2, which is why a tilt
    with alpha = 0 cannot satisfy the commutation hypothesis unless it
    degenerates to beta = 0.
    """
    acs = canonical_structure(2)
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = float(beta)
    ctx = CurvatureContext(acs, a, float(c))
    ell = jacobi_operator(ctx)
    u = np.array([1.0, 0.0, 0.0])
    return float(np.linalg.norm(acs.phi @ (ell @ u) - ell @ (acs.phi @ u)))


def consistent_jet(alpha: float, beta: float, c: float,
                   kappa3: float = 0.0) -> LocalJet:
    """The unique jet satisfying every first-order row for given base scalars.

    With kappa3 = 0 all residual rows vanish identically.  A nonzero kappa3
    still satisfies every derivative row; only the dichotomy row survives,
    with residual |beta/alpha| |c - 4 alpha^2 - 2 beta^2| |kappa3|, which is
    the point: that row is the contradiction detector, not a consistency
    check on the jet itself.
    """
    k1, _ = rotation_coefficients(alpha, beta, c)
    q = c / (4.0 * alpha)
    d_alpha = {
        "xi": 4.0 * alpha ** 2 * beta * kappa3 / c,
        "U": 4.0 * alpha * beta ** 2 * kappa3 / c,
        "phiU": 3.0 * beta * q + alpha * beta + k1 * beta,
        "phiW2": kappa3 * (16.0 * alpha * beta ** 3 / c + beta * (beta ** 2 / alpha - q)),
        "W3": 3.0 * beta * (q - alpha) * kappa3,
    }
    d_beta = {
        "xi": 4.0 * alpha * beta ** 2 * kappa3 / c,
        "U": (beta + 4.0 * beta ** 3 / c) * kappa3,
        "phiU": q * (beta ** 2 / alpha - q) + beta ** 2 + k1 * beta ** 2 / alpha,
        "phiW1": 4.0 * alpha * kappa3 * (beta + 4.0 * beta ** 3 / c),
    }
    d2_beta = beta * kappa3 * (3.0 * q + beta ** 2 / alpha
                               - 4.0 * alpha - 36.0 * alpha * beta ** 2 / c)
    d2_alpha = beta * kappa3 * (7.0 * q - 8.0 * alpha
                                - 36.0 * alpha * beta ** 2 / c - beta ** 2 / alpha)
    w1sq = implied_w1_norm_sq(c, alpha, beta)
    return LocalJet(alpha=alpha, beta=beta, c=c, kappa3=kappa3,
                    d_alpha=d_alpha, d_beta=d_beta,
                    w1_norm_sq=w1sq if w1sq >= 0.0 else None,
                    d2_beta_phiU_xi=d2_beta, d2_alpha_phiU_U=d2_alpha)


def jet_residuals(jet: LocalJet, tol: float = DEFAULT_TOL) -> list[ConditionReport]:
    """Residual of every scalar relation the jet is subject to.

    Mandatory rows cover the two first-derivative symmetries, the closed
    forms along phiU, the phiU balance identity, the four k3
    proportionalities and the dichotomy.  Rows for optional data appear
    only when the jet carries it.  Returned sorted by row name.
    """
    a, b, c = jet.alpha, jet.beta, jet.c
    k1, k2, k3 = jet.kappa1, jet.kappa2, jet.kappa3
    q = c / (4.0 * a)
    da, db = jet.d_alpha, jet.d_beta
    scale = 1.0 + abs(c) + a * a + b * b
    rows = {
        "dalpha-U-equals-dbeta-xi": da["U"] - db["xi"],
        "dbeta-U-chain": db["U"] - ((2.0 * b / a) * db["xi"]
                                    + ((c / 4.0 - b * b) / a ** 2) * da["xi"]),
        "dalpha-phiU-closed-form": da["phiU"] - (3.0 * b * q + a * b + k1 * b),
        "dbeta-phiU-closed-form": db["phiU"] - (q * (b * b / a - q)
                                                + b * b + k1 * b * b / a),
        "phiU-derivative-balance": (-2.0 * b * da["phiU"] + 3.0 * b * b * c / (2.0 * a)
                                    + a * b * b + a * b * k2 + a * db["phiU"]),
        "dalpha-xi-k3": da["xi"] - 4.0 * a * a * b * k3 / c,
        "dalpha-U-k3": da["U"] - 4.0 * a * b * b * k3 / c,
        "dbeta-xi-k3": db["xi"] - 4.0 * a * b * b * k3 / c,
        "dbeta-U-k3": db["U"] - (b + 4.0 * b ** 3 / c) * k3,
        "k3-dichotomy": (b / a) * (c - 4.0 * a * a - 2.0 * b * b) * k3,
    }
    if "phiW2" in da:
        rows["dalpha-phiW2-k3"] = da["phiW2"] - k3 * (16.0 * a * b ** 3 / c
                                                      + b * (b * b / a - q))
    if "W3" in da:
        rows["dalpha-W3-k3"] = da["W3"] - 3.0 * b * (q - a) * k3
    if "phiW1" in db:
        rows["dbeta-phiW1-k3"] = db["phiW1"] - 4.0 * a * k3 * (b + 4.0 * b ** 3 / c)
    if jet.d2_beta_phiU_xi is not None:
        rows["ddbeta-phiU-xi"] = jet.d2_beta_phiU_xi - b * k3 * (
            3.0 * q + b * b / a - 4.0 * a - 36.0 * a * b * b / c)
    if jet.d2_alpha_phiU_U is not None:
        rows["ddalpha-phiU-U"] = jet.d2_alpha_phiU_U - b * k3 * (
            7.0 * q - 8.0 * a - 36.0 * a * b * b / c - b * b / a)
    if jet.w1_norm_sq is not None:
        rows["w1-norm-identity"] = w1_norm_identity(c, a, b, jet.w1_norm_sq)
    cutoff = tol * scale
    return [ConditionReport(name, "scalar", abs(res), cutoff)
            for name, res in sorted(rows.items())]


def w1_norm_identity(c: float, alpha: float, beta: float, w1_norm_sq: float) -> float:
    """Left side of the norm identity for W1 on the k3 = 0 branch; zero when it holds.

    12 (5 alpha^2 + beta^2) c + 64 alpha^4 - 3 c^2 - 48 alpha^2 beta^2
    - 16 alpha^2 |W1|^2; at |W1|^2 = 0 it is exactly the numerator of
    implied_w1_norm_sq.
    """
    return (12.0 * (5.0 * alpha ** 2 + beta ** 2) * c + 64.0 * alpha ** 4
            - 3.0 * c ** 2 - 48.0 * alpha ** 2 * beta ** 2 - 16.0 * alpha ** 2 * w1_norm_sq)


def implied_w1_norm_sq(c: float, alpha: float, beta: float) -> float:
    """|W1|^2 forced by the norm identity on the k3 = 0 branch.

    A negative return is already a contradiction: no real field W1 can
    close the identity at these scalars.
    """
    _require_scalars(alpha, beta, c)
    _require_alpha(alpha, "the norm identity")
    return w1_norm_identity(c, alpha, beta, 0.0) / (16.0 * alpha ** 2)


@dataclass(frozen=True)
class ContradictionCertificate:
    """Arithmetic witness that the tilted set cannot persist.

    The k3 != 0 branch needs the dichotomy factor to vanish, but its
    xi-derivative then forces sum_sq = 2 alpha^2 + beta^2 to vanish, which
    is impossible for alpha != 0 (degenerate_branch_rejected).  The k3 = 0
    branch needs f(w) = 64 w^2 + 60 c w + 12 c beta^2 to stay positive;
    a nonnegative discriminant witnesses the contradiction.
    """

    c: float
    alpha: float
    beta: float
    factor: float
    sum_sq: float
    degenerate_branch_rejected: bool
    discriminant: float
    w1_norm_sq_implied: float
    verdict: str
    w1_identity_residual: float | None = None

    def to_jsonable(self) -> dict:
        out = {
            "c": self.c, "alpha": self.alpha, "beta": self.beta,
            "factor": self.factor, "sum_sq": self.sum_sq,
            "degenerate_branch_rejected": self.degenerate_branch_rejected,
            "discriminant": self.discriminant,
            "w1_norm_sq_implied": self.w1_norm_sq_implied,
            "verdict": self.verdict,
        }
        if self.w1_identity_residual is not None:
            out["w1_identity_residual"] = self.w1_identity_residual
        return out


def contradiction_certificate(c: float, alpha: float, beta: float,
                              w1_norm_sq: float | None = None) -> ContradictionCertificate:
    """Evaluate both branch certificates at one scalar triple."""
    _require_scalars(alpha, beta, c)
    _require(c != 0.0, "c must be nonzero")
    _require_alpha(alpha, "the certificate (it lives on the tilted set)")
    factor = c - 4.0 * alpha ** 2 - 2.0 * beta ** 2
    sum_sq = 2.0 * alpha ** 2 + beta ** 2
    disc = 3600.0 * c ** 2 - 3072.0 * c * beta ** 2
    w1sq = implied_w1_norm_sq(c, alpha, beta)
    residual = None
    if w1_norm_sq is not None:
        residual = abs(w1_norm_identity(c, alpha, beta, w1_norm_sq))
    verdict = WITNESSED if disc >= 0.0 else NO_WITNESS
    return ContradictionCertificate(
        c=c, alpha=alpha, beta=beta, factor=factor, sum_sq=sum_sq,
        degenerate_branch_rejected=sum_sq > DEFAULT_TOL * (1.0 + alpha ** 2 + beta ** 2),
        discriminant=disc, w1_norm_sq_implied=w1sq, verdict=verdict,
        w1_identity_residual=residual)


_MAPPING_KEYS = {
    "alpha": "alpha", "beta": "beta", "c": "c", "gamma": "gamma", "lambda": "lam",
    "kappa1": "kappa1", "kappa2": "kappa2", "kappa3": "kappa3",
    "dalpha_xi": ("d_alpha", "xi"), "dalpha_U": ("d_alpha", "U"),
    "dalpha_phiU": ("d_alpha", "phiU"), "dalpha_phiW2": ("d_alpha", "phiW2"),
    "dalpha_W3": ("d_alpha", "W3"),
    "dbeta_xi": ("d_beta", "xi"), "dbeta_U": ("d_beta", "U"),
    "dbeta_phiU": ("d_beta", "phiU"), "dbeta_phiW1": ("d_beta", "phiW1"),
    "w1_norm_sq": "w1_norm_sq", "d2beta_phiU_xi": "d2_beta_phiU_xi",
    "d2alpha_phiU_U": "d2_alpha_phiU_U",
}


def jet_from_mapping(mapping: dict) -> LocalJet:
    """Build a jet from a flat scalar mapping (the CLI's input format).

    alpha, beta, c are required; kappa1/kappa2 default to their closed
    forms, every other scalar to zero or absent.  Unknown keys, values
    that are not numbers and non-finite values raise, naming the key.
    """
    unknown = sorted(set(mapping) - set(_MAPPING_KEYS))
    if unknown:
        raise JetError(f"unknown jet keys: {', '.join(unknown)}")
    for need in ("alpha", "beta", "c"):
        if need not in mapping:
            raise JetError(f"jet mapping is missing {need!r}")
    kwargs = {"d_alpha": {}, "d_beta": {}}
    for key, raw in mapping.items():
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise JetError(f"jet value {key} = {raw!r} is not a number") from None
        _require(math.isfinite(value), f"jet value {key} = {raw!r} must be finite")
        target = _MAPPING_KEYS[key]
        if isinstance(target, tuple):
            kwargs[target[0]][target[1]] = value
        else:
            kwargs[target] = value
    return LocalJet(**kwargs)
