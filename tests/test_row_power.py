"""Row power: which `verify` rows a small fault in one input makes fail.

Each FAMILY_TABLE entry at n = 3, on both normals and seed 0, runs through
`cli._context_rows` at tol 1e-9 once as built and once with one input moved
by eps.  At eps = 1e-6 the test pins the rows that newly fail and the theorem
verdict (None where the data is no longer Hopf); at eps = 1e-12 no row newly
fails and the verdict stands.  A fault that no row names, or a refusal where
a row should fail, shows up here as a wrong set.
"""
import functools

import numpy as np
import pytest

from hyperlab import KER_ETA, SPAN_XI, ModelSpec, cli, instantiate
from hyperlab.checks import CONTROL_FAILS, VERDICT_HYPOTHESIS_FAILS, VERDICT_TYPE_A
from hyperlab.model_catalog import FAMILY_TABLE

TOL = 1e-9
# (radius, k) of each entry at n = 3: the golden radii, A2 on k = 1 and the CH A1 sphere
_PARAMS = {("CH", "A0"): (None, None), ("CP", "A1"): (1.1, None), ("CH", "A1"): (0.9, 0),
           ("CP", "A2"): (0.8, 1), ("CH", "A2"): (1.3, 1), ("CP", "B"): (0.6, None),
           ("CH", "B"): (0.7, None)}
MODELS = [ModelSpec(ambient, 3, family, radius=_PARAMS[ambient, family][0],
                    k=_PARAMS[ambient, family][1], flip_normal=flip)
          for ambient, family in FAMILY_TABLE for flip in (False, True)]

CODAZZI, STRUCTURE, JACOBI = (("codazzi", "all"), ("structure-axioms", "all"),
                              ("jacobi-cross-check", "all"))
DERIVATIVE = {CODAZZI, ("mu-vanishes", KER_ETA), ("mu-vanishes", SPAN_XI),
              ("nabla-xi-l", KER_ETA), ("nabla-xi-l", SPAN_XI)}
NOT_HOPF = {("hopf-decomposition", SPAN_XI), ("l-A-commute", KER_ETA), ("l-A-commute", SPAN_XI)}


def _symmetric(dim):
    s = np.random.default_rng(0).standard_normal((dim, dim))
    return (s + s.T) / 2.0


def _on_ker_eta(ctx, s):
    p = np.eye(ctx.dim) - np.outer(ctx.acs.xi, ctx.acs.eta)  # symmetric: G = I, eta = xi
    return p @ s @ p


def _moved(ctx, field, index, eps):
    """ctx with one entry of phi, xi or eta moved by eps."""
    v = np.array(getattr(ctx.acs, field))
    v[index] += eps
    return ctx._replace(acs=ctx.acs._replace(**{field: v}))


# mutation -> (ctx, provider, eps) -> (ctx, provider); the provider of type A is built
# for the unmoved c, so moving c alone breaks only its agreement with the derivative data
MUTATIONS = {
    "A": lambda ctx, nabla_a, eps: (
        ctx._replace(shape_operator=ctx.shape_operator + eps * _symmetric(ctx.dim)), nabla_a),
    "A-on-ker-eta": lambda ctx, nabla_a, eps: (
        ctx._replace(shape_operator=ctx.shape_operator
                     + eps * _on_ker_eta(ctx, _symmetric(ctx.dim))), nabla_a),
    "phi": lambda ctx, nabla_a, eps: (_moved(ctx, "phi", (0, 1), eps), nabla_a),
    "xi": lambda ctx, nabla_a, eps: (_moved(ctx, "xi", 0, eps), nabla_a),
    "eta": lambda ctx, nabla_a, eps: (_moved(ctx, "eta", 0, eps), nabla_a),
    "c": lambda ctx, nabla_a, eps: (ctx._replace(c=ctx.c * (1.0 + eps)), nabla_a),
    "nabla-A": lambda ctx, nabla_a, eps: (
        ctx, None if nabla_a is None else lambda w, y: (1.0 + eps) * nabla_a(w, y)),
}

# mutation -> (rows a type-A model newly fails at eps = 1e-6, its verdict after)
TYPE_A_FAILS = {
    "A": (NOT_HOPF | CONTROL_FAILS | {("mu-vanishes", KER_ETA), ("nabla-xi-l", SPAN_XI)}, None),
    "A-on-ker-eta": (set(CONTROL_FAILS), VERDICT_HYPOTHESIS_FAILS),
    "phi": ({CODAZZI, STRUCTURE} | CONTROL_FAILS, VERDICT_HYPOTHESIS_FAILS),
    # a moved xi or eta splits the two Jacobi paths; the cross-check row names it
    "xi": ({CODAZZI, STRUCTURE, JACOBI, ("mu-vanishes", KER_ETA), ("nabla-xi-l", SPAN_XI),
            ("phi-l-commute", KER_ETA), ("phi-l-commute", SPAN_XI)} | NOT_HOPF, None),
    "eta": ({CODAZZI, STRUCTURE, JACOBI}, VERDICT_TYPE_A),
    "c": ({CODAZZI}, VERDICT_TYPE_A),
    "nabla-A": ({CODAZZI}, VERDICT_TYPE_A),
}
# A0 and A1 are umbilic on ker(eta): A there is a multiple of the identity, so it
# still commutes with a moved phi, and only the structure and Codazzi rows see it
UMBILIC_FAILS = {"phi": ({CODAZZI, STRUCTURE}, VERDICT_TYPE_A)}


def _expected(spec, mutation):
    """A type-A model's rows and verdict from the tables.  A negative control fails the
    same rows less the derivative rows (it ships no provider) and less the rows it
    already fails, and keeps its failed hypothesis while the data stays Hopf."""
    table = UMBILIC_FAILS if spec.family in ("A0", "A1") else {}
    rows, verdict = table.get(mutation, TYPE_A_FAILS[mutation])
    if spec.family != "B":
        return rows, verdict
    failed = None if verdict is None else VERDICT_HYPOTHESIS_FAILS
    return rows - DERIVATIVE - CONTROL_FAILS, failed


def _failures(ctx, nabla_a):
    rows, _, verdict = cli._context_rows(ctx, nabla_a, TOL, 25, 0)
    return ({(r.name, r.subspace) for r in rows if not r.passed},
            None if verdict is None else verdict.verdict)


@functools.cache
def _built(spec):
    inst = instantiate(spec, seed=0)
    return inst.ctx, inst.nabla_a, _failures(inst.ctx, inst.nabla_a)


def test_the_models_cover_the_family_table():
    assert set(_PARAMS) == set(FAMILY_TABLE)
    assert len(MODELS) == 14


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("spec", MODELS, ids=lambda s: "-".join(
    [s.ambient, s.family] + ["flip"] * s.flip_normal))
def test_a_fault_of_1e_6_fails_the_pinned_rows(spec, mutation):
    ctx, nabla_a, (base, base_verdict) = _built(spec)
    assert base == (set(CONTROL_FAILS) if spec.family == "B" else set())
    rows, verdict = _expected(spec, mutation)
    failed, got = _failures(*MUTATIONS[mutation](ctx, nabla_a, 1e-6))
    assert (failed - base, got) == (rows, verdict)
    assert failed >= base
    failed, got = _failures(*MUTATIONS[mutation](ctx, nabla_a, 1e-12))
    assert (failed, got) == (base, base_verdict)
