"""Catalog of model hypersurfaces and the radial Riccati oracle.

FAMILY_TABLE holds every model family of ambient CP (c > 0) and CH (c < 0):
the closed forms of its principal curvatures in s = sqrt(|c|)/2 and the
radius r, where each branch lies in a phi-frame, the s r domain, the
admissible k, and the strings `hyperlab catalog` prints.  Family B is the
negative control: one of its two ker(eta) branches fills V and the other
phi V, so A phi != phi A.

Every spectral value is validated at construction against an independent
fixed-step RK4 integration of the radial Riccati equation in its Jacobi form:

    lambda' = -(lambda^2 + kappa),   lambda = u'/u,   u'' + kappa u = 0,

with kappa = c on the xi line and kappa = c/4 on its complement.  In CH the
alpha branch never vanishes; in CP it vanishes exactly at s r = pi/4, which
is allowed but flagged.  Flipping the unit normal negates the whole table;
the flip is applied after the oracle check, since the flipped branch solves
the radial equation only under reversed traversal.  The table, ModelSpec
and the oracle are float code; instantiate and type_a_nabla_a load the
array engine (numpy) only when called.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Container
from typing import TYPE_CHECKING, NamedTuple

from .checks import alpha_vanishes

if TYPE_CHECKING:
    from .curvature_engine import CurvatureContext, NablaAProvider

DEFAULT_STEP = 5e-5
ORACLE_TOL = 1e-6
BLOWUP_LIMIT = 1e6
MAX_ORACLE_STEPS = 5_000_000
"""Most RK4 steps one oracle call may take: over 20x the 240k of a CH tube
at s r = 12, at every |c|, the costliest catalog model that passes the oracle."""
_BLOCK = 1024  # steps between the focal-free loop's repeat tests
C_MAX = 1e50
"""Largest |c| a model accepts.  The checks square commutators such as lA - Al, of order
|c|^(3/2), so at this bound no square passes about 1e150; from |c| near 1e150 they overflow.
ORACLE_TOL is absolute while the oracle's deviation grows like s, so from |c| near 1e14 every
radius model fails the oracle and exits 1: up to this bound only A0 reaches a report."""


class CatalogError(ValueError):
    """Invalid model parameters (ambient/family/radius/k constraints)."""


class FocalPointError(RuntimeError):
    """The Riccati flow passed a focal point (a zero of u) inside the interval."""


class OracleMismatchError(RuntimeError):
    """A spectral closed form disagrees with the Riccati integration."""


def riccati_shape_evolution(kappa: float, r: float,
                            lambda0: tuple[float, float],
                            step: float = DEFAULT_STEP) -> float:
    """Integrate lambda' = -(lambda^2 + kappa) from (r0, value) to r.

    Classical RK4 on lambda = u'/u, u'' + kappa u = 0: from (u, u') = (1, lambda) a step is the
    fixed matrix M = [[m, s], [-kappa s, m]].  This independent oracle shares no code with the
    closed forms.  Before any step, a non-finite argument (or an int too large for a float) and
    a span of over MAX_ORACLE_STEPS steps raise.  There are two paths.
    With kappa <= 0, lambda0 >= 0 and r > r0 every operand is >= 0, so u >= 1 and no focal point
    can occur: a scalar loop skips the sign test, and once lambda equals its value _BLOCK steps
    earlier only the remainder of the span modulo _BLOCK is stepped.  A non-finite result there
    falls through to the tested path, so every value and message is bit for bit the tested one's.
    The tested path applies the product M^w to (u, u') = (1, lambda), w = isqrt(nsteps) steps at
    a time, and steps singly through the last nsteps % w.  On kappa <= 0, u has at most one zero;
    for kappa > 0, w |h| sqrt(kappa) <= pi/4 keeps one zero at most in a block, so u > 0 at each
    block end tests every step.  A block whose u is not > 0 or whose lambda is not finite reruns
    the whole span step by step, so a zero of u (a focal point) raises at the end of step
    nsteps - length_hint(steps), bit for bit as an indexed step loop would.
    """
    kappa, r, r0, lam, step = (_finite(name, value, ValueError) for name, value in (
        ("kappa", kappa), ("r", r), ("r0", lambda0[0]), ("lambda0", lambda0[1]), ("step", step)))
    if step <= 0:
        raise ValueError("step must be positive")
    if abs(lam) > BLOWUP_LIMIT:
        raise FocalPointError("initial value beyond the blow-up guard")
    span = r - r0
    if span == 0.0:
        return lam
    ratio = abs(span) / step
    if not ratio <= MAX_ORACLE_STEPS:
        raise ValueError(f"the oracle would take {ratio:.3g} steps of {step:.3g}, "
                         f"more than the cap of {MAX_ORACLE_STEPS}")
    nsteps = max(1, math.ceil(ratio))
    h = span / nsteps
    x = kappa * h * h
    m = 1.0 - x / 2.0 + x * x / 24.0
    s = h * (1.0 - x / 6.0)
    ks = -kappa * s
    if kappa <= 0.0 and span > 0.0 and lam >= 0.0:  # m >= 1, s > 0, ks >= 0: u >= 1 at every step
        end, left = lam, nsteps
        while left:
            start, block = end, min(left, _BLOCK)
            for _ in itertools.repeat(None, block):
                end = (ks + m * end) / (m + s * end)
            left -= block
            if end == start:  # the step is a fixed function of lambda: the rest repeats this block
                left %= block
        if math.isfinite(end):
            return end
    width = math.isqrt(nsteps)  # steps per block; for kappa > 0 a block turns u by <= pi/4
    if kappa > 0.0 and width * (turn := abs(h) * math.sqrt(kappa)) > math.pi / 4.0:
        width = max(1, int(math.pi / 4.0 / turn))
    a, b, pa, pb, e = 1.0, 0.0, m, s, width  # M^width = aI + bJ, J = [[0, 1], [-kappa, 0]]
    while e:  # by squaring: M^i and M^j commute, and J^2 = -kappa I
        if e & 1:
            a, b = a * pa - kappa * b * pb, a * pb + b * pa
        pa, pb, e = pa * pa - kappa * pb * pb, 2.0 * pa * pb, e >> 1
    kb, done, end = -kappa * b, 0, lam
    for _ in itertools.repeat(None, nsteps // width):  # u at the block end; u has one zero at most
        u = a + b * end
        if not (u > 0.0 and math.isfinite(end := (kb + a * end) / u)):
            done, end = 0, lam  # a zero of u, or overflow: step the whole span singly instead
            break
        done += width
    lam, steps = end, itertools.repeat(None, nsteps - done)
    for _ in steps:
        u = m + s * lam
        if not u > 0.0:  # u changed sign within this step, or is nan
            break
        lam = (ks + m * lam) / u
    if u > 0.0 and math.isfinite(lam):  # no break; a non-finite last lambda has no later u test
        return lam
    i = nsteps - operator.length_hint(steps)  # the step the loop stopped in, counted from 1
    raise FocalPointError(f"shape curvature passed a focal point near r = {r0 + i * h:.6f}")


def _finite(name: str, value, error: type[Exception]) -> float:
    if isinstance(value, bool):  # float(True) is 1.0
        raise error(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(number := float(value)):
            return number
    except OverflowError:  # not echoed: past 4300 digits even repr refuses the int
        raise error(f"{name} is an int too large for a float") from None
    raise error(f"{name} must be finite, got {number!r}")


def _cot(x: float) -> float:
    return math.cos(x) / math.sin(x)


class FamilyEntry(NamedTuple):
    """One (ambient, family) row of the catalog.

    alpha and each ker(eta) branch are closed forms in (s, r).  layout(n, k)
    (k = 0 when none is given) places branch i as a pair (a, b): it fills a
    of V_1..V_{n-1} and b of phi V_1..phi V_{n-1}, so it has multiplicity
    a + b and is phi-invariant exactly when a == b; a branch with (0, 0) is
    left out.  s r ranges over (0, sr_max); sr_max None means the model is
    radius-free.  ks(n) holds the admissible k, None standing for "no k".
    """

    core: str
    radius_domain: str
    alpha_doc: str
    eigenvalues_doc: str
    sr_max: float | None
    alpha: Callable[[float, float], float]
    branches: tuple[Callable[[float, float], float], ...]
    layout: Callable[[int, int], tuple[tuple[int, int], ...]]
    ks: Callable[[int], Container]


def _tube(n: int, k: int) -> tuple[tuple[int, int], ...]:
    return (n - 1 - k, n - 1 - k), (k, k)


def _swapped(n: int, k: int) -> tuple[tuple[int, int], ...]:
    return (n - 1, 0), (0, n - 1)


def _no_k(n: int) -> tuple[None]:
    return (None,)


def _core_k(n: int) -> range:
    return range(1, n - 1)


_CP_ALPHA = lambda s, r: 2.0 * s * _cot(2.0 * s * r)
_CH_TUBE_ALPHA = lambda s, r: 2.0 * s / math.tanh(2.0 * s * r)
_CP_TUBE = (lambda s, r: s * _cot(s * r), lambda s, r: -s * math.tan(s * r))
_CH_TUBE = (lambda s, r: s / math.tanh(s * r), lambda s, r: s * math.tanh(s * r))

FAMILY_TABLE: dict[tuple[str, str], FamilyEntry] = {
    ("CH", "A0"): FamilyEntry(
        "horosphere", "none (radius-free)", "2s", "s x (2n-2)",
        None, lambda s, r: 2.0 * s, (lambda s, r: s,), lambda n, k: ((n - 1, n - 1),), _no_k),
    ("CP", "A1"): FamilyEntry(
        "point / complex hyperplane", "0 < s r < pi/2",
        "2s cot(2 s r)", "s cot(s r) x (2n-2)",
        math.pi / 2.0, _CP_ALPHA, _CP_TUBE, _tube, _no_k),
    ("CH", "A1"): FamilyEntry(
        "point (k=0) / complex hyperplane (k=n-1)", "r > 0",
        "2s coth(2 s r)", "s coth(s r) x (2n-2) | s tanh(s r) x (2n-2)",
        math.inf, _CH_TUBE_ALPHA, _CH_TUBE, _tube, lambda n: (None, 0, n - 1)),
    ("CP", "A2"): FamilyEntry(
        "totally geodesic complex k-subspace", "0 < s r < pi/2, 1 <= k <= n-2",
        "2s cot(2 s r)", "s cot(s r) x 2(n-1-k), -s tan(s r) x 2k",
        math.pi / 2.0, _CP_ALPHA, _CP_TUBE, _tube, _core_k),
    ("CH", "A2"): FamilyEntry(
        "totally geodesic complex k-subspace", "r > 0, 1 <= k <= n-2",
        "2s coth(2 s r)", "s coth(s r) x 2(n-1-k), s tanh(s r) x 2k",
        math.inf, _CH_TUBE_ALPHA, _CH_TUBE, _tube, _core_k),
    ("CP", "B"): FamilyEntry(
        "complex quadric (negative control)", "0 < s r < pi/4", "2s cot(2 s r)",
        "s cot(s r - pi/4), s cot(s r + pi/4), phi-swapped x (n-1) each",
        math.pi / 4.0, _CP_ALPHA,
        (lambda s, r: s * _cot(s * r - math.pi / 4.0),
         lambda s, r: s * _cot(s * r + math.pi / 4.0)),
        _swapped, _no_k),
    ("CH", "B"): FamilyEntry(
        "real form (negative control)", "r > 0", "2s tanh(2 s r)",
        "s coth(s r), s tanh(s r), phi-swapped x (n-1) each",
        math.inf, lambda s, r: 2.0 * s * math.tanh(2.0 * s * r), _CH_TUBE,
        _swapped, _no_k),
}
AMBIENTS = tuple(sorted({ambient for ambient, _ in FAMILY_TABLE}))
FAMILIES = tuple(sorted({family for _, family in FAMILY_TABLE}))


class _SpecFields(NamedTuple):
    ambient: str
    n: int
    family: str
    c: float
    radius: float | None
    k: int | None
    flip_normal: bool


class ModelSpec(_SpecFields):
    """Parameters selecting one catalog model.

    k is the complex dimension of the tube core for A2 (1 <= k <= n-2).
    For CH A1 it doubles as the variant selector: 0 (default) is the
    geodesic sphere, n-1 the tube over a complex hyperplane; no separate
    key exists in the config schema.  A0 takes no radius.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, ambient: str, n: int, family: str, c: float | None = None,
                radius: float | None = None, k: int | None = None, flip_normal: bool = False):
        if (ambient, family) not in FAMILY_TABLE:
            raise CatalogError(
                f"no family {family!r} in ambient {ambient!r}; the catalog has "
                + ", ".join(" ".join(key) for key in FAMILY_TABLE))
        # n and k as plain ints when integral (numpy's too), a bool left to be refused
        n, k = (v if isinstance(v, bool) or not hasattr(type(v), "__index__")
                else operator.index(v) for v in (n, k))
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:  # True is an int
            raise CatalogError(f"n must be an integer >= 2, got {n!r}")
        if not isinstance(flip_normal, bool):
            raise CatalogError(f"flip_normal must be a bool, got {flip_normal!r}")
        if c is None:
            c = 4.0 if ambient == "CP" else -4.0
        c = _finite("c", c, CatalogError)
        if ambient == "CP" and c <= 0:
            raise CatalogError("CP requires c > 0")
        if ambient == "CH" and c >= 0:
            raise CatalogError("CH requires c < 0")
        spec = super().__new__(cls, ambient, n, family, c, radius, k, flip_normal)
        radius = spec._checked_radius()
        if abs(c) > C_MAX:  # after the radius, whose bound at such a c is the likelier mistake
            raise CatalogError(f"c = {c!r} exceeds {C_MAX:g} in magnitude")
        ks = spec.entry.ks(n)
        if k is None and None not in ks:
            none = "" if ks else f", but no k is admissible at n = {n}"
            raise CatalogError(f"{ambient} {family} requires --k{none} "
                               f"({spec.entry.radius_domain})")
        if isinstance(k, bool) or not (k is None or isinstance(k, int)) or k not in ks:
            raise CatalogError(f"{ambient} {family} does not take k = {k!r} "
                               f"at n = {n} ({spec.entry.core}; {spec.entry.radius_domain})")
        return super().__new__(cls, ambient, n, family, c, radius, k, flip_normal)

    def _checked_radius(self) -> float | None:
        """The radius as a float, refused outside the family's domain (None if it takes none)."""
        sr_max = self.entry.sr_max
        if sr_max is None:
            if self.radius is not None:
                raise CatalogError(f"family {self.family} takes no radius")
            return None
        if self.radius is None:
            raise CatalogError(f"family {self.family} requires a radius")
        r = _finite("radius", self.radius, CatalogError)
        bound = sr_max / self.scale
        if not 0 < r < bound:
            raise CatalogError(f"{self.ambient} family {self.family} requires "
                               f"0 < r < {bound:.7g} for c = {self.c}")
        return r

    @property
    def entry(self) -> FamilyEntry:
        return FAMILY_TABLE[self.ambient, self.family]

    @property
    def scale(self) -> float:
        """s = sqrt(|c|)/2; radius formulas are stated for |c| = 4 and rescaled by s."""
        return math.sqrt(abs(self.c)) / 2.0

    def to_jsonable(self) -> dict:
        """The fields in declaration order, less None and False, tested by identity
        so that k = 0 (the CH A1 sphere), which equals False, stays."""
        return {key: value for key, value in self._asdict().items()
                if value is not None and value is not False}


class SpectralEntry(NamedTuple):
    value: float
    multiplicity: int
    phi_invariant: bool


class SpectralTable(NamedTuple):
    """Principal curvatures of a model: alpha on xi plus the ker(eta) entries."""

    alpha: float
    alpha_is_zero: bool
    entries: tuple[SpectralEntry, ...]
    oracle_deviation: float
    flipped: bool = False

    def to_jsonable(self) -> dict:
        """The fields in declaration order, each entry as its fields, flipped only when set."""
        out = {**self._asdict(), "entries": [e._asdict() for e in self.entries]}
        if not self.flipped:
            del out["flipped"]
        return out


def _branches(spec: ModelSpec) -> list[tuple[Callable[[float], float], float, tuple[int, int]]]:
    """(closed form in r, kappa in units of s^2, (a, b) of the layout): alpha first, on xi
    (kappa = c = 4 sgn(c) s^2) and so (0, 0), then each ker(eta) branch that fills part of
    V or phi V (kappa = c/4 = sgn(c) s^2)."""
    entry, s, unit = spec.entry, spec.scale, math.copysign(1.0, spec.c)
    layout = entry.layout(spec.n, spec.k or 0)
    forms = [(entry.alpha, 4.0 * unit, (0, 0))] + [
        (fn, unit, ab) for fn, ab in zip(entry.branches, layout) if any(ab)]
    return [(functools.partial(fn, s), kappa, ab) for fn, kappa, ab in forms]


def _oracle_deviation(spec: ModelSpec, branches) -> float:
    """Worst disagreement between the closed forms and the Riccati flow.

    Tube branches are anchored at the closed-form value just off the core
    (s r0 = 0.01) and integrated out to the model radius; the radius-free
    horosphere is checked as a fixed point over s r in [0, 1].  The flow is
    integrated in units of 1/s (kappa = 4 sgn(c) or sgn(c) over s r, lambda / s),
    so the step count and the blow-up guard do not depend on the units of c;
    the step is DEFAULT_STEP, read at call time.
    """
    s = spec.scale
    r = spec.radius if spec.radius is not None else 1.0 / s
    r0 = 0.01 / s if spec.radius is not None else 0.0
    worst = 0.0
    for fn, kappa, _ in branches:
        got = riccati_shape_evolution(kappa, s * r, (s * r0, fn(r0) / s), step=DEFAULT_STEP)
        worst = max(worst, abs(s * got - fn(r)))
    return worst


def principal_curvatures(spec: ModelSpec) -> SpectralTable:
    """Evaluate the model's spectral table, oracle-checked at construction."""
    branches = _branches(spec)
    deviation = _oracle_deviation(spec, branches)
    if deviation > ORACLE_TOL:
        raise OracleMismatchError(
            f"spectral table disagrees with the Riccati oracle by {deviation:.3e}")
    r = spec.radius if spec.radius is not None else 0.0
    sign = -1.0 if spec.flip_normal else 1.0  # exact: flipping negates every value
    (alpha_fn, _, _), *lams = branches
    alpha = alpha_fn(r)
    entries = tuple(SpectralEntry(sign * fn(r), a + b, a == b) for fn, _, (a, b) in lams)
    return SpectralTable(sign * alpha, alpha_vanishes(alpha, spec.c), entries, deviation,
                         sign < 0)


class ModelInstance(NamedTuple):
    """Realized tangent-space data for one model at one point."""

    spec: ModelSpec
    ctx: CurvatureContext
    spectral: SpectralTable
    nabla_a: NablaAProvider | None


def instantiate(spec: ModelSpec, seed: int = 0) -> ModelInstance:
    """Realize the model on a concrete tangent space.

    The shape operator is assembled diagonally on a Haar-random phi-frame from
    default_rng(seed), so instances are reproducible yet not frame-aligned.
    The diagonal follows the family's layout: the V_i first, then the phi V_i,
    then xi.  A phi = phi A exactly when every branch is phi-invariant, and
    only then does the model ship a nabla-A provider; otherwise (the negative
    control) its derivative data is not type A.
    """
    import numpy as np

    from .curvature_engine import CurvatureContext
    from .tensor_core import _haar_phi_frame, canonical_structure

    table = principal_curvatures(spec)
    acs = canonical_structure(spec.n)
    f = _haar_phi_frame(np.random.default_rng(seed), spec.n)
    layout = [ab for *_, ab in _branches(spec)[1:]]
    diag = np.array([e.value for side in (0, 1) for e, ab in zip(table.entries, layout)
                     for _ in range(ab[side])] + [table.alpha])
    ctx = CurvatureContext(acs, (f * diag) @ f.T, spec.c)
    type_a = all(e.phi_invariant for e in table.entries)
    return ModelInstance(spec, ctx, table, type_a_nabla_a(ctx) if type_a else None)


def type_a_nabla_a(ctx: CurvatureContext) -> NablaAProvider:
    """The nabla-A provider of a type-A model.

    (nabla_X A)Y = -(c/4)[eta(Y) phiX + g(phiX, Y) xi].  This makes the
    Codazzi residual vanish identically and gives nabla_xi l = 0.  It reads
    only phi, xi, eta, g and c: on a shape operator that is not type A it
    stays Codazzi-consistent but no longer describes the context's geometry.
    """
    acs = ctx.acs
    return _type_a(acs._metric, acs.phi, acs.xi[:, None], acs.eta[:, None], ctx.c)


def _type_a(gram, phi, xi, eta, c) -> NablaAProvider:
    """type_a_nabla_a on raw arrays, xi and eta as columns."""
    from .curvature_engine import _g

    def nabla_a(w, y):
        pw = phi @ w
        return (-c / 4.0) * (pw * (eta.T @ y) + xi * _g(gram, y, pw))

    return nabla_a


def catalog_rows() -> list[dict]:
    """Documentation rows of FAMILY_TABLE for the listing subcommand."""
    return [{"ambient": ambient, "family": family, "core": e.core,
             "radius_domain": e.radius_domain, "alpha": e.alpha_doc,
             "eigenvalues": e.eigenvalues_doc}
            for (ambient, family), e in FAMILY_TABLE.items()]
