"""Check rows, shared thresholds, the rules for an outside number, the verdict rule, verify's rows.

No arrays here: the catalog and the jet analysis read these without
loading numpy, and the tensor layers read the same definitions.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

DEFAULT_TOL = 1e-9
SCALAR_MAX = 1e50
"""Largest magnitude of an outside scalar (c, a jet's alpha, beta and c) and of |A|_F.  No
check raises an input past the sixth power (|lA - Al|_F^2 ~ |A|_F^6), which stays below 1e300."""

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


def finite(name: str, value, error: type[Exception], bound: float = math.inf) -> float:
    """value as a float, or an error of the caller's class that names it: a bool (float(True)
    is 1.0), a value that is not a number, a non-finite one (text echoed as typed) and one
    above bound in magnitude."""
    try:
        number = float(None if isinstance(value, bool) else value)  # float(True) is 1.0
    except OverflowError:  # not echoed: past 4300 digits even repr refuses the int
        raise error(f"{name} is an int too large for a float") from None
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value if isinstance(value, str) else number!r}")
    if abs(number) > bound:
        raise error(f"{name} = {number!r} exceeds {bound:g} in magnitude")
    return number


def integer(name: str, value, error: type[Exception], low: int, high: int | None = None) -> int:
    """value as an int (numpy's integers too), or an error of the caller's class that names
    it: a bool (True is an int, not a count), a value that is not an integer (3.0 and "3"
    included) and one below low or above high, None standing for no cap."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        number = value
    elif low <= (number := operator.index(value)) and (high is None or number <= high):
        return number
    rule = f"an integer >= {low}" if high is None else f"in [{low}, {high}]"
    raise error(f"{name} must be {rule}, got {number!r}")


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
