"""Scalar side of the tilted (non-Hopf) analysis.

On the open set where A xi = alpha xi + beta U with beta > 0 and U a unit
field in ker(eta), the commutation hypothesis pins the shape operator down
to beta, gamma = g(AU, U) and lambda = g(A phiU, phiU) on span{xi, U, phiU},
forces a nine-row Levi-Civita connection table in terms of auxiliary fields
W1, W2, W3 (all orthogonal to xi and U), and fixes the rotation coefficients
k1 = g(W1, phiU) and k2 = g(W2, phiU) in closed form.  The first derivatives of alpha and beta
are then proportional to k3 = g(W3, phiU), and commuting second derivatives
collapses everything to the dichotomy

    (beta/alpha) (c - 4 alpha^2 - 2 beta^2) k3 = 0.

The k3 != 0 branch dies because the xi-derivative of the factor forces
2 alpha^2 + beta^2 = 0; the k3 = 0 branch dies on a sign certificate: the
norm identity for W1 makes f(w) = 64 w^2 + 60 c w + 12 c beta^2 (w =
alpha^2) obligated to stay positive, yet its discriminant 3600 c^2 -
3072 c beta^2 is nonnegative for every c < 0 and for c > 0 whenever
beta^2 <= 75 c / 64.  Every closed form of the chain is written once, in
_tilted_forms; it, _jet_rows and w1_norm_identity are plain arithmetic (no
math calls, no comparisons), so sympy symbols work as well as floats.  The
public entry points check their inputs and call them with floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .checks import DEFAULT_TOL, ConditionReport

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


def _require_tilted(alpha: float, beta: float, c: float, what: str):
    """alpha, beta and c within JET_SCALAR_MAX in magnitude (NaN fails too), and
    none of c, alpha**2 and alpha beta zero: the tilted-set formulas divide by each."""
    for name, value in (("alpha", alpha), ("beta", beta), ("c", c)):
        _require(abs(value) <= JET_SCALAR_MAX,
                 f"jet scalar {name} = {value!r} exceeds {JET_SCALAR_MAX:g} in magnitude")
    _require(c != 0.0, "c must be nonzero")
    _require(alpha * alpha != 0.0, f"{what} needs alpha**2 > 0, got alpha = {alpha!r}")
    _require(alpha * beta != 0.0,
             f"{what} needs alpha beta != 0, got alpha = {alpha!r}, beta = {beta!r}")


def _tilted_forms(alpha, beta, c, kappa3=0, kappa1=None) -> dict:
    """Every closed form of the tilted set, keyed as in _MAPPING_KEYS where it is a jet value.

    gamma and lambda are the pinned shape scalars, kappa1 and kappa2 the
    rotation coefficients, the dalpha_/dbeta_/d2 keys the derivative forms
    (all proportional to kappa3 except the two along phiU) and w1_norm_sq the
    |W1|^2 the norm identity implies on the k3 = 0 branch; factor, sum_sq and
    discriminant are the certificate's.  The phiU forms hold for any k1, so
    a given kappa1 (the jet's own) stands in for its closed form there.
    """
    a, b, k3 = alpha, beta, kappa3
    q = c / (4 * a)
    gamma = b ** 2 / a - q
    k1 = -4 * a
    jet_k1 = k1 if kappa1 is None else kappa1
    xi_beta = 4 * a * b ** 2 * k3 / c
    u_beta_per_k3 = b + 4 * b ** 3 / c
    return {
        "gamma": gamma, "lambda": -q,
        "kappa1": k1, "kappa2": -4 * b - c / (4 * a * b) * gamma,
        "dalpha_xi": 4 * a ** 2 * b * k3 / c,
        "dalpha_U": xi_beta,
        "dalpha_phiU": 3 * b * q + a * b + jet_k1 * b,
        "dalpha_phiW2": k3 * (16 * a * b ** 3 / c + b * gamma),
        "dalpha_W3": 3 * b * (q - a) * k3,
        "dbeta_xi": xi_beta,
        "dbeta_U": u_beta_per_k3 * k3,
        "dbeta_phiU": q * gamma + b ** 2 + jet_k1 * b ** 2 / a,
        "dbeta_phiW1": 4 * a * k3 * u_beta_per_k3,
        "d2beta_phiU_xi": b * k3 * (3 * q + b ** 2 / a - 4 * a - 36 * a * b ** 2 / c),
        "d2alpha_phiU_U": b * k3 * (7 * q - 8 * a - 36 * a * b ** 2 / c - b ** 2 / a),
        "w1_norm_sq": w1_norm_identity(c, a, b, 0) / (16 * a ** 2),
        "factor": c - 4 * a ** 2 - 2 * b ** 2,
        "sum_sq": 2 * a ** 2 + b ** 2,
        "discriminant": 3600 * c ** 2 - 3072 * c * b ** 2,
    }


# pinned jet key -> the row that checks it against its closed form
_FORM_ROWS = {
    "gamma": "gamma-closed-form", "lambda": "lambda-closed-form",
    "dalpha_xi": "dalpha-xi-k3", "dalpha_U": "dalpha-U-k3",
    "dalpha_phiU": "dalpha-phiU-closed-form", "dalpha_phiW2": "dalpha-phiW2-k3",
    "dalpha_W3": "dalpha-W3-k3", "dbeta_xi": "dbeta-xi-k3", "dbeta_U": "dbeta-U-k3",
    "dbeta_phiU": "dbeta-phiU-closed-form", "dbeta_phiW1": "dbeta-phiW1-k3",
    "d2beta_phiU_xi": "ddbeta-phiU-xi", "d2alpha_phiU_U": "ddalpha-phiU-U",
}


def _jet_rows(v: dict) -> dict:
    """Residual of every relation on jet values v keyed as in _MAPPING_KEYS.

    One closed-form row, value - form, per pinned key v carries; the two
    first-derivative symmetries, the phiU balance identity and the dichotomy
    among the values; the W1 norm identity when v carries |W1|^2.
    """
    a, b, c, k3 = v["alpha"], v["beta"], v["c"], v["kappa3"]
    forms = _tilted_forms(a, b, c, k3, v["kappa1"])
    rows = {row: v[key] - forms[key] for key, row in _FORM_ROWS.items() if key in v}
    rows["dalpha-U-equals-dbeta-xi"] = v["dalpha_U"] - v["dbeta_xi"]
    rows["dbeta-U-chain"] = v["dbeta_U"] - ((2 * b / a) * v["dbeta_xi"]
                                            + ((c / 4 - b * b) / a ** 2) * v["dalpha_xi"])
    rows["phiU-derivative-balance"] = (-2 * b * v["dalpha_phiU"] + 3 * b * b * c / (2 * a)
                                       + a * b * b + a * b * v["kappa2"] + a * v["dbeta_phiU"])
    rows["k3-dichotomy"] = (b / a) * forms["factor"] * k3
    if "w1_norm_sq" in v:
        rows["w1-norm-identity"] = w1_norm_identity(c, a, b, v["w1_norm_sq"])
    return rows


def w1_norm_identity(c: float, alpha: float, beta: float, w1_norm_sq: float) -> float:
    """Left side of the norm identity for W1 on the k3 = 0 branch; zero when it holds.

    12 (5 alpha^2 + beta^2) c + 64 alpha^4 - 3 c^2 - 48 alpha^2 beta^2
    - 16 alpha^2 |W1|^2; at |W1|^2 = 0 it is 16 alpha^2 times the |W1|^2 it
    forces, _tilted_forms' w1_norm_sq.
    """
    return (12 * (5 * alpha ** 2 + beta ** 2) * c + 64 * alpha ** 4
            - 3 * c ** 2 - 48 * alpha ** 2 * beta ** 2 - 16 * alpha ** 2 * w1_norm_sq)


@dataclass(frozen=True)
class LocalJet:
    """First-order scalar data of a tilted configuration at one point.

    gamma, lam, kappa1 and kappa2 default to their closed forms.  d_alpha /
    d_beta map direction names to directional derivatives; the jet keeps
    copies of the dicts it is given.  The mandatory directions are xi, U,
    phiU (zero when absent); phiW2 and W3 (for alpha) and phiW1 (for beta)
    unlock the corresponding optional rows, as do the two mixed second
    derivatives and the squared norm of W1.
    """

    alpha: float
    beta: float
    c: float
    gamma: float | None = None
    lam: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    kappa3: float = 0.0
    d_alpha: dict[str, float] = field(default_factory=dict)
    d_beta: dict[str, float] = field(default_factory=dict)
    w1_norm_sq: float | None = None
    d2_beta_phiU_xi: float | None = None
    d2_alpha_phiU_U: float | None = None

    def __post_init__(self):
        _require_tilted(self.alpha, self.beta, self.c, "the tilted set")
        _require(self.beta > 0.0, "beta must be positive on the tilted set")
        forms = _tilted_forms(self.alpha, self.beta, self.c)
        for key in ("gamma", "lambda", "kappa1", "kappa2"):
            if getattr(self, _MAPPING_KEYS[key]) is None:
                object.__setattr__(self, _MAPPING_KEYS[key], forms[key])
        for name in ("d_alpha", "d_beta"):
            object.__setattr__(self, name, {**dict.fromkeys(FIRST_ORDER_DIRECTIONS, 0.0),
                                            **getattr(self, name)})
        for key, value in self._keyed().items():
            _require(math.isfinite(value), f"jet value {key} = {value!r} is not finite")

    def _keyed(self) -> dict[str, float]:
        """The jet's values keyed as in _MAPPING_KEYS; absent optional data is left out."""
        out = {}
        for key, target in _MAPPING_KEYS.items():
            value = (getattr(self, target[0]).get(target[1]) if isinstance(target, tuple)
                     else getattr(self, target))
            if value is not None:
                out[key] = value
        return out

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


def alpha_zero_commutator_norm(c: float, beta: float) -> float:
    """Measured |(phi l - l phi)U| for the flat-tilt configuration.

    Realizes A xi = beta U, A U = beta xi, A phiU = 0 on a 3-dimensional
    tangent space and evaluates the commutator on U through the full
    curvature pipeline.  The exact value is beta^2, which is why a tilt
    with alpha = 0 cannot satisfy the commutation hypothesis unless it
    degenerates to beta = 0.
    """
    import numpy as np

    from .curvature_engine import CurvatureContext, jacobi_operator
    from .tensor_core import canonical_structure

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
    check on the jet itself.  |W1|^2 is carried only where it is nonnegative.
    """
    _require_tilted(alpha, beta, c, "the tilted set")
    forms = _tilted_forms(alpha, beta, c, kappa3)
    values = {key: forms[key] for key in _MAPPING_KEYS if key in forms}
    if not values["w1_norm_sq"] >= 0.0:
        del values["w1_norm_sq"]
    return jet_from_mapping(dict(values, alpha=alpha, beta=beta, c=c, kappa3=kappa3))


def jet_residuals(jet: LocalJet, tol: float = DEFAULT_TOL) -> list[ConditionReport]:
    """Residual of every scalar relation the jet is subject to.

    Closed-form rows compare gamma, lambda and each derivative with its
    closed form; relation rows cover the two first-derivative symmetries,
    the phiU balance identity and the dichotomy.  Rows for optional data
    appear only when the jet carries it.  Returned sorted by row name.
    """
    cutoff = tol * (1.0 + abs(jet.c) + jet.alpha * jet.alpha + jet.beta * jet.beta)
    return [ConditionReport(name, "scalar", abs(res), cutoff)
            for name, res in sorted(_jet_rows(jet._keyed()).items())]


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
        """The fields in declaration order, w1_identity_residual only when set."""
        return {key: value for key, value in vars(self).items() if value is not None}


def contradiction_certificate(c: float, alpha: float, beta: float,
                              w1_norm_sq: float | None = None) -> ContradictionCertificate:
    """Evaluate both branch certificates at one scalar triple."""
    _require_tilted(alpha, beta, c, "the certificate (it lives on the tilted set)")
    forms = _tilted_forms(alpha, beta, c)
    residual = None if w1_norm_sq is None else abs(w1_norm_identity(c, alpha, beta, w1_norm_sq))
    return ContradictionCertificate(
        c=c, alpha=alpha, beta=beta, factor=forms["factor"], sum_sq=forms["sum_sq"],
        degenerate_branch_rejected=forms["sum_sq"] > DEFAULT_TOL * (1.0 + alpha ** 2 + beta ** 2),
        discriminant=forms["discriminant"], w1_norm_sq_implied=forms["w1_norm_sq"],
        verdict=WITNESSED if forms["discriminant"] >= 0.0 else NO_WITNESS,
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

    alpha, beta, c are required; gamma, lambda, kappa1 and kappa2 default to
    their closed forms, every other scalar to zero or absent.  Unknown keys,
    values that are not numbers and non-finite values raise, naming the key.
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
        _require(math.isfinite(value), f"jet value {key} = {raw!r} is not finite")
        target = _MAPPING_KEYS[key]
        if isinstance(target, tuple):
            kwargs[target[0]][target[1]] = value
        else:
            kwargs[target] = value
    return LocalJet(**kwargs)
