"""Check rows, the thresholds the layers share, the verdict rule, and what verify expects.

No arrays here: the catalog and the jet analysis read these without
loading numpy, and the tensor layers read the same definitions.
"""
from __future__ import annotations

import math
from typing import NamedTuple

DEFAULT_TOL = 1e-9

VERDICT_TYPE_A = "type-A-compatible"
VERDICT_HYPOTHESIS_FAILS = "phi-l-hypothesis-fails"
VERDICT_INDETERMINATE = "indeterminate-eta-A-xi-zero"

VERIFY_CHECKS = ("structure-axioms", "hopf-decomposition", "shape-phi-commute",
                 "phi-l-commute", "l-A-commute", "nabla-xi-l", "mu-vanishes",
                 "codazzi", "spectral-oracle", "jacobi-cross-check",
                 "theorem-verdict")
# the (check, subspace) rows a negative control (phi swaps its ker(eta) branches) must fail
CONTROL_FAILS = frozenset({("shape-phi-commute", "all"), ("phi-l-commute", "ker-eta")})


def theorem_verdict(alpha_is_zero: bool, commutes: bool) -> str:
    """The paper's pointwise rule on Hopf data: the hypothesis fails unless
    phi l = l phi (commutes); otherwise alpha = eta(A xi) = 0 leaves A phi = phi A
    undecided, and alpha != 0 forces it (type A)."""
    if not commutes:
        return VERDICT_HYPOTHESIS_FAILS
    return VERDICT_INDETERMINATE if alpha_is_zero else VERDICT_TYPE_A


def alpha_vanishes(alpha: float, c: float) -> bool:
    """Whether alpha = eta(A xi) counts as zero: |alpha| <= 1e-12 (1 + sqrt|c|).

    The one threshold for the catalog's zero-alpha flag and the verdict
    pipeline, so both always agree on which models are indeterminate.  It
    scales with the ambient curvature, as alpha does on the catalog.
    """
    return abs(alpha) <= 1e-12 * (1.0 + math.sqrt(abs(c)))


class _ReportFields(NamedTuple):
    name: str
    subspace: str
    residual: float
    tolerance: float
    extras: dict[str, float]


class ConditionReport(_ReportFields):
    """Every check row hyperlab reports; row-specific values (mu, alpha) go in extras."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, name, subspace, residual, tolerance, extras=None):
        if not math.isfinite(residual):
            raise ValueError(f"check {name} on {subspace}: residual is {residual!r}")
        return super().__new__(cls, name, subspace, residual, tolerance,
                               {} if extras is None else extras)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    mu = property(lambda self: self.extras.get("mu"))

    def to_jsonable(self) -> dict:
        return {"check": self.name, "subspace": self.subspace, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed, **self.extras}
