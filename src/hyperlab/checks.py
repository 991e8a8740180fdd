"""Check rows and the thresholds the array and scalar layers share.

No arrays here: the catalog and the jet analysis read these without
loading numpy, and the tensor layers read the same definitions.
"""
from __future__ import annotations

import math
from typing import NamedTuple

DEFAULT_TOL = 1e-9


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
