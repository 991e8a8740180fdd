"""Check rows and the thresholds the array and scalar layers share.

No arrays here: the catalog and the jet analysis read these without
loading numpy, and the tensor layers read the same definitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_TOL = 1e-9


def alpha_vanishes(alpha: float, c: float) -> bool:
    """Whether alpha = eta(A xi) counts as zero: |alpha| <= 1e-12 (1 + sqrt|c|).

    The one threshold for the catalog's zero-alpha flag and the verdict
    pipeline, so both always agree on which models are indeterminate.  It
    scales with the ambient curvature, as alpha does on the catalog.
    """
    return abs(alpha) <= 1e-12 * (1.0 + math.sqrt(abs(c)))


@dataclass(frozen=True)
class ConditionReport:
    """Every check row hyperlab reports; row-specific values (mu, alpha) go in extras."""

    name: str
    subspace: str
    residual: float
    tolerance: float
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.residual):
            raise ValueError(f"check {self.name} on {self.subspace}: residual is {self.residual!r}")

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    mu = property(lambda self: self.extras.get("mu"))
    mu_spread = property(lambda self: self.extras.get("mu_spread"))

    def to_jsonable(self) -> dict:
        return {"check": self.name, "subspace": self.subspace, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed, **self.extras}
