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


@pytest.mark.parametrize("kwargs, message", [
    ({"ambient": "CP", "family": "A2", "radius": 0.8, "k": True}, "does not take k = True"),
    ({"ambient": "CH", "family": "A1", "radius": 0.5, "k": False}, "does not take k = False"),
    ({"ambient": "CP", "family": "A1", "radius": 0.5, "n": True}, "got True"),
])
def test_spec_refuses_a_bool_for_n_or_k(kwargs, message):
    # a bool is an int, and 1 and 0 are admissible k here, so the config would echo it
    with pytest.raises(CatalogError, match=message):
        ModelSpec(**{"n": 3, **kwargs})


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
    h = model_catalog.DEFAULT_STEP / max(s, 1.0)  # the catalog's step
    for r0, lam0, r in cases:
        want = _riccati_rk4(kappa, r, r0, lam0, h)
        got = riccati_shape_evolution(kappa, r, (r0, lam0), step=h)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (r0, lam0, r)


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_linear_oracle_reports_the_focal_point(kappa):
    s = math.sqrt(kappa)
    with pytest.raises(FocalPointError) as exc:
        riccati_shape_evolution(kappa, 4.0 / s, (0.01 / s, s / math.tan(0.01)))
    focal = float(exc.value.args[0].rsplit("r = ", 1)[1])
    assert abs(focal - math.pi / s) <= model_catalog.DEFAULT_STEP + 5e-7  # 6 printed decimals


def test_linear_oracle_guards():
    with pytest.raises(FocalPointError):
        riccati_shape_evolution(1.0, 1.0, (0.0, math.nan))
    with pytest.raises(FocalPointError, match="blow-up guard"):
        riccati_shape_evolution(1.0, 1.0, (0.0, 1.0000001e6))
    # the cap refuses before the first step, which would meet the nan as a focal point
    with pytest.raises(ValueError, match="cap"):
        riccati_shape_evolution(1.0, (MAX_ORACLE_STEPS + 1) * 1e-3, (0.0, math.nan), step=1e-3)


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
    assert t.multiplicity_total() == 4
    assert len(t.entries) == 2  # distinct ker(eta) values
    block = t.to_jsonable()
    assert block["alpha"] == t.alpha
    assert len(block["entries"]) == 2


def test_every_model_passes_construction_oracle():
    for spec in ALL_SPECS:
        t = principal_curvatures(spec)
        assert t.oracle_deviation is not None
        assert t.oracle_deviation <= 1e-6
        assert t.multiplicity_total() == 2 * spec.n - 2


def test_coarse_step_trips_oracle(monkeypatch):
    monkeypatch.setattr(model_catalog, "DEFAULT_STEP", 0.1)
    with pytest.raises(OracleMismatchError):
        principal_curvatures(ModelSpec("CP", 3, "A1", radius=0.9))


@pytest.mark.parametrize("family, k, top", [("A1", None, math.pi / 2.0),
                                            ("A2", 1, math.pi / 2.0),
                                            ("B", None, math.pi / 4.0)])
def test_near_edge_models_pass_the_oracle(family, k, top):
    # the Riccati loop missed ORACLE_TOL here (2.7e-6) where lambda ~ 1/0.002
    for r in (0.002, top - 0.002):
        t = principal_curvatures(ModelSpec("CP", 3, family, radius=r, k=k))
        assert t.oracle_deviation <= model_catalog.ORACLE_TOL


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
    # and phi l - l phi = alpha (phi A - A phi) on Hopf data: the spectral norms
    # are the branch gap and |alpha| times it, whatever the frame or the normal
    entry = FAMILY_TABLE[ambient, "B"]
    for n in (2, 3, 6, 20):
        for r in (0.1, 0.4, 0.7, 1.5 if ambient == "CH" else 0.75):  # s = 1 at the default c
            gap = abs(entry.branches[0](1.0, r) - entry.branches[1](1.0, r))
            for flip in (False, True):
                spec = ModelSpec(ambient, n, "B", radius=r, flip_normal=flip)
                verdict = theorem_pipeline(instantiate(spec, seed=n).ctx)
                assert verdict.commutator_A_phi_norm == pytest.approx(gap, rel=1e-12, abs=0)
                assert verdict.phi_l_commutator_norm == pytest.approx(
                    abs(entry.alpha(1.0, r)) * gap, rel=1e-12, abs=0)


def test_catalog_rows_cover_all_families(capsys):
    rows = catalog_rows()
    families = {(r["ambient"], r["family"]) for r in rows}
    assert families == {("CP", "A1"), ("CP", "A2"), ("CP", "B"),
                        ("CH", "A0"), ("CH", "A1"), ("CH", "A2"), ("CH", "B")}
    assert [(r["ambient"], r["family"]) for r in rows] == list(FAMILY_TABLE)
    # every table entry, at mid-domain and each admissible k, passes the oracle, and
    # its layout fills V and phi V and alone decides phi-invariance, the nabla-A
    # provider and whether A commutes with phi
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
                assert inst.spectral.multiplicity_total() == 2 * n - 2
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
