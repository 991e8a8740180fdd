"""Model catalog: spec validation, spectral tables, the Riccati oracle, instantiation."""
import json
import math

import numpy as np
import pytest

from hyperlab import (
    FAMILY_TABLE,
    CatalogError,
    FocalPointError,
    ModelSpec,
    OracleMismatchError,
    catalog_rows,
    check_phi_l_commute,
    codazzi_residual,
    decompose_A_xi,
    instantiate,
    principal_curvatures,
    riccati_shape_evolution,
    theorem_pipeline,
    validate_acs,
)
from hyperlab import model_catalog
from hyperlab.cli import run
from hyperlab.model_catalog import MAX_ORACLE_STEPS

ALL_SPECS = [
    ModelSpec("CP", 2, "A1", radius=0.5),
    ModelSpec("CP", 3, "A1", radius=1.1),
    ModelSpec("CP", 3, "A2", radius=0.8, k=1),
    ModelSpec("CP", 4, "A2", radius=0.6, k=2),
    ModelSpec("CP", 3, "B", radius=0.6),
    ModelSpec("CH", 2, "A0"),
    ModelSpec("CH", 3, "A0"),
    ModelSpec("CH", 2, "A1", radius=0.9),
    ModelSpec("CH", 3, "A1", radius=0.9, k=0),
    ModelSpec("CH", 3, "A1", radius=0.9, k=2),
    ModelSpec("CH", 3, "A2", radius=1.3, k=1),
    ModelSpec("CH", 3, "B", radius=0.7),
    ModelSpec("CH", 3, "B", radius=0.7, flip_normal=True),
]


def test_spec_validation_errors():
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A0")  # horospheres live in CH only
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A1")  # tube families need a radius
    with pytest.raises(CatalogError):
        ModelSpec("CH", 3, "A0", radius=1.0)  # the horosphere has none
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A1", radius=math.pi / 2)  # focal radius
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "B", radius=1.0)  # B domain ends at pi/4
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A2", radius=0.5)  # k required
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A2", radius=0.5, k=3)  # k <= n-2
    with pytest.raises(CatalogError):
        ModelSpec("CH", 3, "A1", radius=0.5, k=1)  # only boundary cases
    with pytest.raises(CatalogError):
        ModelSpec("CP", 3, "A1", radius=0.5, c=-4.0)  # sign fixed by ambient
    with pytest.raises(CatalogError):
        ModelSpec("XX", 3, "A1", radius=0.5)
    with pytest.raises(CatalogError):
        ModelSpec("CP", 1, "A1", radius=0.5)
    # refused by name, not as a bare OverflowError from float()
    with pytest.raises(CatalogError, match="^c is an int too large for a float$"):
        ModelSpec("CP", 3, "A1", c=10**400, radius=0.5)
    with pytest.raises(CatalogError, match="^radius is an int too large for a float$"):
        ModelSpec("CP", 3, "A1", radius=10**400)
    with pytest.raises(CatalogError, match="^radius is an int too large for a float$"):
        ModelSpec("CH", 3, "A1", radius=10**400)  # past any float, even the unbounded domain
    with pytest.raises(CatalogError, match="^radius must be finite, got inf$"):
        ModelSpec("CH", 3, "A1", radius=math.inf)


@pytest.mark.parametrize("kwargs, message", [
    ({"ambient": "CP", "family": "A2", "radius": 0.8, "k": True},
     "k must be an integer >= 0, got True"),
    ({"ambient": "CH", "family": "A1", "radius": 0.5, "k": False},
     "k must be an integer >= 0, got False"),
    ({"ambient": "CP", "family": "A1", "radius": 0.5, "n": True}, "got True"),
])
def test_spec_refuses_a_bool_for_n_or_k(kwargs, message):
    # a bool is an int, and 1 and 0 are admissible k here, so the config would echo it
    with pytest.raises(CatalogError, match=message):
        ModelSpec(**{"n": 3, **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    ({"c": True, "radius": 0.5}, "^c must be a number, got True$"),
    ({"radius": True}, "^radius must be a number, got True$"),
    ({"radius": True, "c": True}, "^c must be a number, got True$"),
    ({"radius": 0.5, "flip_normal": "no"}, "^flip_normal must be a bool, got 'no'$"),
    ({"radius": 0.5, "flip_normal": 0}, "^flip_normal must be a bool, got 0$"),
    ({"radius": 0.5, "flip_normal": None}, "^flip_normal must be a bool, got None$"),
])
def test_spec_refuses_a_bool_number_or_a_non_bool_flip(kwargs, message):
    # float(True) is 1.0 and "no" is truthy, so either would build, and echo, another model
    with pytest.raises(CatalogError, match=message):
        ModelSpec("CP", 3, "A1", **kwargs)


@pytest.mark.parametrize("args, kwargs, message", [
    # the radius before C_MAX: at such a c its bound is the likelier mistake
    (("CP", 3, "A1"), {"c": 1e60, "radius": 10.0},
     r"^CP family A1 requires 0 < r < 3\.141593e-30 for c = 1e\+60$"),
    (("CH", 3, "A0"), {"c": -1e60, "radius": 1.0}, "^family A0 takes no radius$"),
    # C_MAX before the missing k
    (("CP", 3, "A2"), {"c": 1e60, "radius": 1e-40}, r"^c = 1e\+60 exceeds 1e\+50 in magnitude$"),
    (("CP", 3, "A1"), {"c": -4.0, "radius": 10.0}, "^CP requires c > 0$"),
    (("CP", 1, "A1"), {"c": math.nan}, "^n must be an integer >= 2, got 1$"),
])
def test_spec_refuses_the_first_of_two_wrong_inputs(args, kwargs, message):
    with pytest.raises(CatalogError, match=message):
        ModelSpec(*args, **kwargs)


def test_spec_reads_numpy_integers_as_int():
    want = ModelSpec("CP", 4, "A2", radius=0.5, k=1)
    got = ModelSpec("CP", np.int64(4), "A2", radius=0.5, k=np.int64(1))
    assert got == want and type(got.n) is int and type(got.k) is int
    assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())
    with pytest.raises(CatalogError, match="^k must be an integer >= 0, got 1.0$"):
        ModelSpec("CP", 4, "A2", radius=0.5, k=1.0)
    with pytest.raises(CatalogError, match="got 4.0"):
        ModelSpec("CP", 4.0, "A2", radius=0.5, k=1)


def test_spec_scale_and_dim():
    spec = ModelSpec("CP", 3, "A1", radius=0.5)
    assert spec.c == 4.0 and spec.scale == 1.0
    spec = ModelSpec("CH", 3, "A1", radius=0.5)
    assert spec.c == -4.0 and spec.scale == 1.0
    spec = ModelSpec("CP", 3, "A1", radius=0.5, c=16.0)
    assert spec.scale == 2.0


def test_spec_radius_bound_tightens_with_c():
    # larger curvature shrinks the tube domain
    ModelSpec("CP", 4, "A1", radius=0.9, c=8.0)
    with pytest.raises(CatalogError):
        ModelSpec("CP", 4, "A1", radius=1.2, c=8.0)


def test_riccati_matches_trig_solutions():
    got = riccati_shape_evolution(1.0, 1.0, (0.01, 1.0 / math.tan(0.01)))
    assert abs(got - 1.0 / math.tan(1.0)) <= 1e-9
    got = riccati_shape_evolution(-1.0, 1.0, (0.01, 1.0 / math.tanh(0.01)))
    assert abs(got - 1.0 / math.tanh(1.0)) <= 1e-9
    got = riccati_shape_evolution(-1.0, 2.0, (0.5, math.tanh(0.5)))
    assert abs(got - math.tanh(2.0)) <= 1e-12


@pytest.mark.parametrize("kappa, form", [
    (-4.0, lambda t: 2.0 / math.tanh(2.0 * t)), (-4.0, lambda t: 2.0 * math.tanh(2.0 * t)),
    (-1.0, lambda t: 1.0 / math.tanh(t)), (-1.0, math.tanh),
])
def test_the_oracle_holds_the_ch_closed_forms_out_to_s_r_12(kappa, form):
    # in units of 1/s, as the construction check runs it: from s r0 = 0.01 out to s r = 12,
    # where the benchmark's CH radii stop, each branch within 1e-10 relative (about 1e-12 is read)
    for t in (0.02, 0.5, 2.0, 6.0, 10.0, 12.0):
        got = riccati_shape_evolution(kappa, t, (0.01, form(0.01)))
        assert abs(got - form(t)) <= 1e-10 * abs(form(t)), t


def test_riccati_fixed_points():
    assert abs(riccati_shape_evolution(-1.0, 3.0, (0.0, 1.0)) - 1.0) <= 1e-12
    assert abs(riccati_shape_evolution(-4.0, 3.0, (0.0, 2.0)) - 2.0) <= 1e-12


def test_riccati_integrates_backward():
    got = riccati_shape_evolution(1.0, 0.005, (0.01, 1.0 / math.tan(0.01)))
    assert abs(got - 1.0 / math.tan(0.005)) <= 1e-6


def test_riccati_focal_detection():
    with pytest.raises(FocalPointError):
        riccati_shape_evolution(1.0, 3.2, (0.01, 1.0 / math.tan(0.01)))


def test_riccati_rejects_bad_step():
    with pytest.raises(ValueError):
        riccati_shape_evolution(1.0, 1.0, (0.0, 1.0), step=0.0)
    # one step past the cap is refused before the first step
    with pytest.raises(ValueError, match="cap"):
        riccati_shape_evolution(-1.0, (MAX_ORACLE_STEPS + 1) * 1e-3, (0.0, 1.0), step=1e-3)


def _riccati_rk4(kappa, r, r0, lam, step):
    """Classical RK4 on lambda' = -(lambda^2 + kappa) itself: the reference."""
    nsteps = max(1, math.ceil(abs(r - r0) / step))
    h = (r - r0) / nsteps
    for _ in range(nsteps):
        k1 = -(lam * lam + kappa)
        y = lam + 0.5 * h * k1
        k2 = -(y * y + kappa)
        y = lam + 0.5 * h * k2
        k3 = -(y * y + kappa)
        y = lam + h * k3
        k4 = -(y * y + kappa)
        lam += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return lam


@pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.25, 0.25, 1.0, 4.0])
def test_linear_oracle_matches_the_riccati_loop(kappa):
    s = math.sqrt(abs(kappa))
    tube = (lambda r: s / math.tan(s * r)) if kappa > 0 else (lambda r: s / math.tanh(s * r))
    cases = [(0.01 / s, tube(0.01 / s), 1.2 / s),  # anchored off the core, outward
             (0.01 / s, tube(0.01 / s), 0.005 / s),  # and toward the core
             (1.0 / s, tube(1.0 / s), 0.02 / s),
             (0.3 / s, -0.7 * s, 0.9 / s)]
    if kappa < 0:
        cases += [(0.0, s, 3.0 / s), (2.0, s, 2.0 - 1.0 / s)]  # the fixed point sqrt(-kappa)
    h = model_catalog.DEFAULT_STEP / max(s, 1.0)  # DEFAULT_STEP, finer where s > 1
    for r0, lam0, r in cases:
        want = _riccati_rk4(kappa, r, r0, lam0, h)
        got = riccati_shape_evolution(kappa, r, (r0, lam0), step=h)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (r0, lam0, r)


def _riccati_indexed(kappa, r, lambda0, step=model_catalog.DEFAULT_STEP):
    """The oracle as it was with an indexed step loop, verbatim: the bit-identity reference."""
    r0, lam = float(lambda0[0]), float(lambda0[1])
    kappa = float(kappa)
    for name, value in (("kappa", kappa), ("r", r), ("r0", r0), ("lambda0", lam), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if abs(lam) > model_catalog.BLOWUP_LIMIT:
        raise FocalPointError("initial value beyond the blow-up guard")
    span = float(r) - r0
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
    for i in range(1, nsteps + 1):
        u = m + s * lam
        if not u > 0.0:  # u changed sign within step i, or is nan
            break
        lam = (ks + m * lam) / u
    else:
        if math.isfinite(lam):  # a non-finite lambda fails the next u test; the last has none
            return lam
    raise FocalPointError(f"shape curvature passed a focal point near r = {r0 + i * h:.6f}")


def _outcome(oracle, *args, **kwargs):
    """The returned float, or the FocalPointError's text."""
    try:
        return oracle(*args, **kwargs)
    except FocalPointError as exc:
        return f"focal: {exc}"


def _same_as_indexed(kappa, r, lambda0, step=model_catalog.DEFAULT_STEP):
    want = _outcome(_riccati_indexed, kappa, r, lambda0, step)
    got = _outcome(riccati_shape_evolution, kappa, r, lambda0, step=step)
    # repr tells -0.0 from 0.0 and, for floats, round-trips every bit
    assert type(got) is type(want) and repr(got) == repr(want), (kappa, r, lambda0, step)
    return got


def _close_to_indexed(kappa, r, lambda0, step=model_catalog.DEFAULT_STEP):
    """The tested path: a value within 1e-9 relative of the indexed loop's, a focal text equal."""
    want = _outcome(_riccati_indexed, kappa, r, lambda0, step)
    got = _outcome(riccati_shape_evolution, kappa, r, lambda0, step=step)
    if isinstance(want, str):
        assert got == want, (kappa, r, lambda0, step)
    else:
        assert isinstance(got, float) and abs(got - want) <= 1e-9 * max(1.0, abs(want)), (
            kappa, r, lambda0, step, got, want)
    return got


@pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0])
def test_oracle_is_bit_identical_to_the_indexed_loop(kappa):
    # where bit identity holds: the focal-free loop, every focal point, and spans of under 4
    # steps, whose blocks are single steps; the tested path's values are compared by tolerance
    s = math.sqrt(abs(kappa)) or 1.0  # kappa = 0 is measured in units of 1
    tube = (lambda r: s / math.tan(s * r)) if kappa > 0 else (
        (lambda r: s / math.tanh(s * r)) if kappa < 0 else (lambda r: 1.0 / r))
    h = model_catalog.DEFAULT_STEP / max(s, 1.0)  # DEFAULT_STEP, finer where s > 1
    if kappa <= 0:
        _same_as_indexed(kappa, 1.2 / s, (0.01 / s, tube(0.01 / s)), h)  # outward
        fixed = math.sqrt(-kappa)
        assert _same_as_indexed(kappa, 3.0 / s, (0.0, fixed), h) == fixed
    else:  # past the focal point at pi / s
        assert _same_as_indexed(kappa, 4.0 / s, (0.01 / s, tube(0.01 / s)), h).startswith("focal")
    for steps in (1, 2, 3):
        r = 0.3 + (steps - 0.5) * 1e-3
        assert math.ceil((r - 0.3) / 1e-3) == steps
        assert isinstance(_same_as_indexed(kappa, r, (0.3, -0.7), 1e-3), float)


@pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0])
def test_tested_path_matches_the_indexed_loop(kappa):
    s = math.sqrt(abs(kappa)) or 1.0
    tube = (lambda r: s / math.tan(s * r)) if kappa > 0 else (
        (lambda r: s / math.tanh(s * r)) if kappa < 0 else (lambda r: 1.0 / r))
    h = model_catalog.DEFAULT_STEP / max(s, 1.0)
    if kappa > 0:
        _close_to_indexed(kappa, 1.2 / s, (0.01 / s, tube(0.01 / s)), h)  # outward
    _close_to_indexed(kappa, 0.02 / s, (1.0 / s, tube(1.0 / s)), h)  # inward
    for steps in (4, 7):  # two blocks of 2; three blocks of 2 and a single step
        r = 0.3 + (steps - 0.5) * 1e-3
        assert math.ceil((r - 0.3) / 1e-3) == steps
        assert isinstance(_close_to_indexed(kappa, r, (0.3, -0.7), 1e-3), float)


@pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.25, 0.25, 1.0, 4.0])
def test_blocked_product_on_both_sides_of_a_focal_point(kappa):
    # u = cos(s t) - cot(0.5) sin(s t), or cosh and coth for kappa < 0, vanishes at s t = 0.5;
    # N of 10,000 steps is 100 blocks of 100, and 10,001 leaves one step past the last block
    s = math.sqrt(abs(kappa))
    lam0 = -s / (math.tan(0.5) if kappa > 0 else math.tanh(0.5))
    for st, focal in ((0.45, False), (0.55, True)):
        for steps in (1, 2, 100 ** 2, 100 ** 2 + 1):
            r = st / s
            step = r / (steps - 0.5)
            assert math.ceil(r / step) == steps
            got = _close_to_indexed(kappa, r, (0.0, lam0), step)
            if steps > 2:  # one or two steps this long overshoot the focal point or miss it
                assert isinstance(got, str) == focal, (st, steps, got)


def test_a_block_holds_one_zero_of_u_at_most():
    # u = cos t - cot(0.5) sin t vanishes at t = 0.5 + j pi.  Over 44^2 steps of 2 pi / 44, an
    # uncapped block of isqrt(N) = 44 steps turns u by 2 pi and holds two zeros, so u > 0 at
    # every block end and no block would fail; the pi/4 cap takes 5 steps a block
    step = 2.0 * math.pi / 44
    r = (44 ** 2 - 0.5) * step
    assert math.ceil(r / step) == 44 ** 2
    got = _close_to_indexed(1.0, r, (0.0, -1.0 / math.tan(0.5)), step)
    assert got == "focal: shape curvature passed a focal point near r = 0.571051"  # step 4


@pytest.mark.parametrize("r, lambda0, step, focal", [
    (0.005, (0.0, -2000.0), 1e-3, "0.001000"),  # u <= 0 in the first step
    (4.0, (0.01, 1.0 / math.tan(0.01)), 1e-3, "3.142000"),  # mid-span: the step holding pi
    (math.pi + 4e-4, (0.01, 1.0 / math.tan(0.01)), 1e-3, "3.141993"),  # in the last step
], ids=["first-step", "mid-span", "last-step"])
def test_oracle_names_the_indexed_loops_focal_step(r, lambda0, step, focal):
    got = _same_as_indexed(1.0, r, lambda0, step)
    assert got == f"focal: shape curvature passed a focal point near r = {focal}"


def test_oracle_names_the_step_whose_lambda_turned_non_finite():
    # one step, with no later u test: the loop runs out and the non-finite lambda is refused
    got = _same_as_indexed(1e300, 0.01005, (0.01, 1.0))
    assert got == "focal: shape curvature passed a focal point near r = 0.010050"


@pytest.mark.parametrize("kappa", [0.0, -0.25, -1.0, -4.0, -9.0])
def test_focal_free_loop_is_bit_identical_to_the_indexed_loop(kappa):
    # kappa <= 0 outward from lambda0 >= 0 skips the sign test; spans around the repeat block
    for lam0 in (-0.0, 0.0, 1e-3, math.sqrt(-kappa), 100.0, 1e6):
        for steps in (1023, 1024, 1025, 3077):
            r = 0.3 + (steps - 0.5) * 1e-3
            assert math.ceil((r - 0.3) / 1e-3) == steps
            assert isinstance(_same_as_indexed(kappa, r, (0.3, lam0), 1e-3), float)


@pytest.mark.parametrize("kappa, r, lambda0, step", [
    (-4.0, 9.0, (0.01, 2.0 / math.tanh(0.02)), model_catalog.DEFAULT_STEP),  # settles mid-span
    (-9.0, 2.0 / 3.0, (0.0, 3.0), model_catalog.DEFAULT_STEP / 1.5),  # a 2-cycle from ~2,242
    (-9.0, 0.6667, (0.0, 3.0), model_catalog.DEFAULT_STEP / 1.5),  # 20,001 steps: the odd value
], ids=["settles", "2-cycle", "2-cycle-odd"])
def test_focal_free_loop_stops_on_a_repeat_as_the_indexed_loop_would(kappa, r, lambda0, step):
    assert isinstance(_same_as_indexed(kappa, r, lambda0, step), float)


@pytest.mark.parametrize("kappa, r, lambda0", [
    (0.0, 3.0, (0.3, -0.5)),  # lambda0 < 0 outward: lambda = 1/(r - 2.3) meets u = 0 at 2.3
    (-1.0, 3.0, (0.3, -1.5)),  # below -sqrt(-kappa), outward
    (0.0, -0.5, (1.0, 1.0)),  # inward: lambda = 1/r meets u = 0 at r = 0
    (-1.0, -0.5, (1.0, 2.0)),  # above sqrt(-kappa), inward
])
def test_sign_test_still_guards_the_other_kappa_le_0_spans(kappa, r, lambda0):
    assert _same_as_indexed(kappa, r, lambda0, 1e-3).startswith("focal")


def test_focal_free_loop_falls_back_to_name_the_focal_step():
    # lambda overflows to nan in the second of four steps: the tested loop names that step
    got = _same_as_indexed(-1e300, 0.0035, (0.0, 1.0), 1e-3)
    assert got == "focal: shape curvature passed a focal point near r = 0.001750"


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_linear_oracle_reports_the_focal_point(kappa):
    s = math.sqrt(kappa)
    with pytest.raises(FocalPointError) as exc:
        riccati_shape_evolution(kappa, 4.0 / s, (0.01 / s, s / math.tan(0.01)))
    focal = float(exc.value.args[0].rsplit("r = ", 1)[1])
    assert abs(focal - math.pi / s) <= model_catalog.DEFAULT_STEP + 5e-7  # 6 printed decimals


def test_linear_oracle_guards():
    with pytest.raises(ValueError):
        riccati_shape_evolution(1.0, 1.0, (0.0, math.nan))
    with pytest.raises(FocalPointError, match="blow-up guard"):
        riccati_shape_evolution(1.0, 1.0, (0.0, 1.0000001e6))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="1e400-int"),
                                   pytest.param(-(10**400), id="-1e400-int"), True])
@pytest.mark.parametrize("name", ["kappa", "r", "r0", "lambda0", "step"])
def test_riccati_refuses_a_non_finite_argument_by_name(name, value):
    # refused before the blow-up guard, the step count or a focal-point test can read it;
    # an int too large for a float is named but not echoed, and a bool is not read as 0 or 1
    message = (f"{name} must be a number, got True" if value is True
               else f"{name} must be finite, got {value!r}" if isinstance(value, float)
               else f"{name} is an int too large for a float")
    args = {"kappa": 1.0, "r": 1.0, "r0": 0.01, "lambda0": 1.0, "step": 1e-3, name: value}
    with pytest.raises(ValueError, match=f"^{message}$"):
        riccati_shape_evolution(args["kappa"], args["r"], (args["r0"], args["lambda0"]),
                                step=args["step"])


def test_spectral_tables_spot_values():
    t = principal_curvatures(ModelSpec("CP", 2, "A1", radius=0.5))
    assert abs(t.alpha - 2.0 / math.tan(1.0)) <= 1e-12
    (lam,) = t.entries
    assert abs(lam.value - 1.0 / math.tan(0.5)) <= 1e-12
    assert lam.multiplicity == 2 and lam.phi_invariant

    t = principal_curvatures(ModelSpec("CP", 3, "A2", radius=0.8, k=1))
    assert abs(t.alpha - 2.0 / math.tan(1.6)) <= 1e-12
    values = sorted(e.value for e in t.entries)
    assert abs(values[0] + math.tan(0.8)) <= 1e-12
    assert abs(values[1] - 1.0 / math.tan(0.8)) <= 1e-12
    assert [e.multiplicity for e in t.entries] == [2, 2]

    t = principal_curvatures(ModelSpec("CH", 4, "A0"))
    assert t.alpha == 2.0
    (lam,) = t.entries
    assert lam.value == 1.0 and lam.multiplicity == 6

    t = principal_curvatures(ModelSpec("CH", 3, "B", radius=0.7))
    assert abs(t.alpha - 2.0 * math.tanh(1.4)) <= 1e-12
    values = sorted(e.value for e in t.entries)
    assert abs(values[0] - math.tanh(0.7)) <= 1e-12
    assert abs(values[1] - 1.0 / math.tanh(0.7)) <= 1e-12
    assert not any(e.phi_invariant for e in t.entries)

    t = principal_curvatures(ModelSpec("CP", 3, "B", radius=0.6))
    values = sorted(e.value for e in t.entries)
    assert abs(values[0] - 1.0 / math.tan(0.6 - math.pi / 4.0)) <= 1e-12
    assert abs(values[1] - 1.0 / math.tan(0.6 + math.pi / 4.0)) <= 1e-12


def test_spectral_table_bookkeeping():
    t = principal_curvatures(ModelSpec("CP", 3, "A2", radius=0.8, k=1))
    assert sum(e.multiplicity for e in t.entries) == 4
    assert len(t.entries) == 2  # distinct ker(eta) values
    block = t.to_jsonable()
    assert block["alpha"] == t.alpha
    assert len(block["entries"]) == 2


def test_every_model_passes_construction_oracle():
    for spec in ALL_SPECS:
        t = principal_curvatures(spec)
        assert t.oracle_deviation is not None
        assert t.oracle_deviation <= 1e-6
        assert sum(e.multiplicity for e in t.entries) == 2 * spec.n - 2


def test_coarse_step_trips_oracle(monkeypatch):
    monkeypatch.setattr(model_catalog, "DEFAULT_STEP", 0.1)
    with pytest.raises(OracleMismatchError):
        principal_curvatures(ModelSpec("CP", 3, "A1", radius=0.9))


@pytest.mark.parametrize("ambient, c, radius, code, failed", [
    # s r = 0.5 each: in units of r, 1.96e7 steps past the cap, or fn(r0) past the blow-up guard
    ("CH", -1e-6, 1000.0, 0, []),
    # the absolute check tolerance does not scale with c either (ROADMAP item 1)
    ("CP", 1e9, 3.1622776601683795e-05, 1, ["codazzi/all", "phi-l-commute/ker-eta"]),
    ("CH", -4e8, 5e-05, 1, ["codazzi/all", "phi-l-commute/ker-eta"]),
])
def test_the_oracle_check_does_not_depend_on_the_units_of_c(capsys, ambient, c, radius, code,
                                                            failed):
    assert run(["verify", "--ambient", ambient, "--n", "3", "--family", "A1", "--c", repr(c),
                "--radius", repr(radius), "--deterministic"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["spectral"]["oracle_deviation"] <= model_catalog.ORACLE_TOL
    assert [f"{row['check']}/{row['subspace']}" for row in report["checks"]
            if not row["pass"]] == failed


@pytest.mark.parametrize("family, k, top", [("A1", None, math.pi / 2.0),
                                            ("A2", 1, math.pi / 2.0),
                                            ("B", None, math.pi / 4.0)])
def test_near_edge_models_pass_the_oracle(family, k, top):
    # the Riccati loop missed ORACLE_TOL here (2.7e-6) where lambda ~ 1/0.002
    for r in (0.002, top - 0.002):
        t = principal_curvatures(ModelSpec("CP", 3, family, radius=r, k=k))
        assert t.oracle_deviation <= model_catalog.ORACLE_TOL


def test_the_cp_edge_passes_the_oracle(capsys):
    # the scalar loop's rounding refused both models, by 7.66e-6 and 1.91e-6
    run(["verify", "--ambient", "CP", "--n", "3", "--family", "A2", "--k", "1",
         "--radius", "1.5707", "--deterministic"])
    report = json.loads(capsys.readouterr().out)
    assert [row["pass"] for row in report["checks"] if row["check"] == "spectral-oracle"] == [True]
    assert run(["verify", "--ambient", "CP", "--n", "3", "--family", "B", "--radius", "0.7852",
                "--deterministic"]) == 0


def test_alpha_zero_radius_is_flagged():
    t = principal_curvatures(ModelSpec("CP", 2, "A1", radius=math.pi / 4.0))
    assert t.alpha_is_zero
    assert abs(t.alpha) <= 1e-15


def test_hyperbolic_alpha_never_vanishes():
    # at c = -4 the xi principal curvature is 2coth(2r) (tubes) or 2 (horosphere)
    assert principal_curvatures(ModelSpec("CH", 2, "A0")).alpha == 2.0
    for r in (0.05, 0.3, 0.9, 2.0, 5.0):
        for spec in (ModelSpec("CH", 2, "A1", radius=r),
                     ModelSpec("CH", 3, "A2", radius=r, k=1)):
            assert principal_curvatures(spec).alpha > 2.0


# ALL_SPECS covers B (phi_invariant false); the last spec is the alpha-zero radius
@pytest.mark.parametrize("spec", ALL_SPECS + [ModelSpec("CP", 2, "A1", radius=math.pi / 4.0)])
def test_flip_normal_negates_spectrum(spec):
    base = principal_curvatures(ModelSpec(**{**spec._asdict(), "flip_normal": False}))
    flip = principal_curvatures(ModelSpec(**{**spec._asdict(), "flip_normal": True}))
    assert flip.flipped and not base.flipped
    assert flip.alpha == -base.alpha
    assert flip.alpha_is_zero == base.alpha_is_zero
    assert flip.oracle_deviation == base.oracle_deviation  # checked pre-flip
    assert [(-e.value, e.multiplicity, e.phi_invariant) for e in base.entries] == [
        (e.value, e.multiplicity, e.phi_invariant) for e in flip.entries]
    assert "flipped" not in base.to_jsonable() and flip.to_jsonable()["flipped"] is True


def test_instantiate_realizes_table(rng):
    for spec in ALL_SPECS:
        inst = instantiate(spec, seed=7)
        assert max(validate_acs(inst.ctx.acs).values()) <= 1e-12
        dec = decompose_A_xi(inst.ctx)
        assert dec.is_hopf
        want = sorted([v for e in inst.spectral.entries
                       for v in [e.value] * e.multiplicity] + [inst.spectral.alpha])
        got = sorted(np.linalg.eigvalsh(inst.ctx.shape_operator))
        assert np.allclose(got, want, atol=1e-10)


def test_instantiate_seed_changes_frame_not_spectrum():
    # distinct ker(eta) eigenvalues make the operator frame-dependent
    spec = ModelSpec("CP", 3, "A2", radius=0.8, k=1)
    a = instantiate(spec, seed=0)
    b = instantiate(spec, seed=1)
    assert not np.allclose(a.ctx.shape_operator, b.ctx.shape_operator)
    assert np.allclose(sorted(np.linalg.eigvalsh(a.ctx.shape_operator)),
                       sorted(np.linalg.eigvalsh(b.ctx.shape_operator)), atol=1e-10)


def test_a_family_instances_commute_and_close_codazzi(rng):
    inst = instantiate(ModelSpec("CP", 3, "A2", radius=0.8, k=1), seed=2)
    assert check_phi_l_commute(inst.ctx).passed
    assert inst.nabla_a is not None
    res = codazzi_residual(inst.ctx, inst.nabla_a, *rng.standard_normal((2, 5, 10)))
    assert max(inst.ctx.acs.norm(col) for col in res.T) <= 1e-12


def test_b_family_ships_no_derivative_provider():
    inst = instantiate(ModelSpec("CH", 3, "B", radius=0.7), seed=0)
    assert inst.nabla_a is None
    assert not check_phi_l_commute(inst.ctx).passed


@pytest.mark.parametrize("ambient", ["CP", "CH"])
def test_b_family_theorem_norms_are_the_closed_form_gap(ambient):
    # A phi - phi A maps V_i to (mu - lambda) phi V_i and phi V_i to (mu - lambda) V_i,
    # and phi l - l phi = alpha (phi A - A phi) on Hopf data: over the 2(n - 1) unit
    # vectors of ker(eta) the Frobenius norms are the branch gap times sqrt(2(n - 1))
    # and |alpha| times that, whatever the frame or the normal
    entry = FAMILY_TABLE[ambient, "B"]
    for n in (2, 3, 6, 20):
        for r in (0.1, 0.4, 0.7, 1.5 if ambient == "CH" else 0.75):  # s = 1 at the default c
            gap = abs(entry.branches[0](1.0, r) - entry.branches[1](1.0, r))
            a_phi = gap * math.sqrt(2 * (n - 1))
            for flip in (False, True):
                spec = ModelSpec(ambient, n, "B", radius=r, flip_normal=flip)
                verdict = theorem_pipeline(instantiate(spec, seed=n).ctx)
                assert verdict.commutator_A_phi_norm == pytest.approx(a_phi, rel=1e-12, abs=0)
                assert verdict.phi_l_commutator_norm == pytest.approx(
                    abs(entry.alpha(1.0, r)) * a_phi, rel=1e-12, abs=0)


def test_type_a_models_are_exactly_those_with_a_derivative_provider():
    # instantiate ships a nabla-A provider exactly when every ker(eta) branch is
    # phi-invariant, on either normal: verify reads the model's kind from the provider
    for n in (2, 3, 5):
        for (ambient, family), entry in FAMILY_TABLE.items():
            radius = None if entry.sr_max is None else 0.4 * min(entry.sr_max, 2.0)
            for k in entry.ks(n):
                for flip in (False, True):
                    spec = ModelSpec(ambient, n, family, radius=radius, k=k, flip_normal=flip)
                    inst = instantiate(spec, seed=n)
                    assert (inst.nabla_a is not None) == all(
                        e.phi_invariant for e in inst.spectral.entries), spec


def test_catalog_rows_cover_all_families(capsys):
    rows = catalog_rows()
    families = {(r["ambient"], r["family"]) for r in rows}
    assert families == {("CP", "A1"), ("CP", "A2"), ("CP", "B"),
                        ("CH", "A0"), ("CH", "A1"), ("CH", "A2"), ("CH", "B")}
    assert [(r["ambient"], r["family"]) for r in rows] == list(FAMILY_TABLE)
    # every table entry, at mid-domain and each admissible k, passes the oracle, and
    # its layout places each branch once, fills V and phi V and alone decides
    # phi-invariance, the nabla-A provider and whether A commutes with phi
    for n in range(2, 7):
        for (ambient, family), entry in FAMILY_TABLE.items():
            for k in entry.ks(n):
                if entry.sr_max is None:
                    radius = None
                else:
                    radius = 0.4 * min(entry.sr_max, 2.0)  # s = 1 at the default c
                spec = ModelSpec(ambient, n, family, radius=radius, k=k)
                inst = instantiate(spec, seed=3)
                assert inst.spectral.oracle_deviation <= 1e-6
                assert sum(e.multiplicity for e in inst.spectral.entries) == 2 * n - 2
                assert len(entry.branches) == len(entry.layout(n, k or 0))  # zipped by _branches
                layout = [ab for ab in entry.layout(n, k or 0) if any(ab)]
                assert [sum(side) for side in zip(*layout)] == [n - 1, n - 1]
                entries = inst.spectral.entries
                assert [e.phi_invariant for e in entries] == [a == b for a, b in layout]
                invariant = all(e.phi_invariant for e in entries)
                assert (inst.nabla_a is not None) == invariant
                swap = np.abs(inst.ctx.a_phi_commutator).max()
                assert swap <= 1e-12 if invariant else swap > 0.1
    # every pair outside the table is refused
    for ambient in ("CP", "CH", "XX"):
        for family in ("A0", "A1", "A2", "B", "C"):
            if (ambient, family) not in FAMILY_TABLE:
                with pytest.raises(CatalogError):
                    ModelSpec(ambient, n, family, radius=0.5)
    # the catalog subcommand prints one row per entry
    assert run(["catalog", "--deterministic"]) == 0
    printed = json.loads(capsys.readouterr().out)["catalog"]
    assert [(r["ambient"], r["family"]) for r in printed] == list(FAMILY_TABLE)
