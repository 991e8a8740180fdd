"""The array commands, verify and random, and the batched kernels behind random.

hyperlab.entry parses argv and runs catalog, oracle riccati and jet without
numpy; its run() comes here for the other two.  Importing this module loads
every hyperlab module: the whole array engine, and lemma_lab, which entry
loads only for jet.  It re-exports run, build_parser and the two
emitters for callers that import them from here.
"""
from __future__ import annotations

import argparse

import numpy as np

from . import lemma_lab  # noqa: F401  (see the module docstring)
from .checks import VERIFY_CHECKS, ConditionReport, theorem_verdict
from .curvature_engine import _closed_form, _g, _gauss, codazzi_residual, commutator
from .entry import RANDOM_PROPERTIES, _finalize, _required, _skeleton
from .entry import build_parser, run, to_canonical_json, to_markdown  # noqa: F401
from .hopf_conditions import SPAN_XI, _worst_norm, classify, decompose_A_xi, theorem_pipeline
from .model_catalog import ModelSpec, ORACLE_TOL, instantiate
from .sampling import _contexts, _grams
from .tensor_core import (_acs_residuals, _check_grams, _frame_structures, _haar_frames,
                          _maxabs, _skew, validate_acs)

# Caps on the size options.  verify --n: 4x the benchmark's largest n of 60
# (cost grows about as n^2.4 from n = 120; a run at the cap takes about 0.15 s on one core);
# random --dim: the tangent dimension of that model, over 10x the benchmark's
# 41; --samples of both commands: 10x random's default of 1000.  random's
# total work, dim^3 x samples: 10 samples at the dim cap, where one sample of
# all five properties takes about 0.8 s on one core (about 7 ns per unit).
MAX_VERIFY_N = 240
MAX_RANDOM_DIM = 2 * MAX_VERIFY_N - 1
MAX_SAMPLES = 10_000
MAX_RANDOM_WORK = 10 * MAX_RANDOM_DIM ** 3


# ------------------------------------------------------------- commands

def _in_range(flag: str, value: int, low: int, cap: int):
    """Refuse a size option outside [low, cap] before anything is built."""
    if not low <= value <= cap:
        raise ValueError(f"{flag} must be in [{low}, {cap}], got {value}")


def _context_rows(ctx, nabla_a, tol: float, samples: int, seed: int):
    """The verify rows that read the context alone, its classification and its verdict."""
    cls = classify(ctx, nabla_a, tol)  # phi-l, l-A and nabla-xi-l, each computed once
    rows = list(cls.reports.values())
    rows += [ConditionReport("mu-vanishes", rep.subspace, abs(rep.mu), tol)
             for rep in cls.reports.values() if rep.name == "nabla-xi-l"]
    dec = decompose_A_xi(ctx, tol)
    rows += [ConditionReport("structure-axioms", "all", max(validate_acs(ctx.acs).values()), tol),
             ConditionReport("hopf-decomposition", SPAN_XI, dec.beta, dec.tolerance,
                             {"alpha": dec.alpha}),
             ConditionReport("shape-phi-commute", "all", float(_maxabs(ctx.a_phi_commutator)), tol),
             ConditionReport("jacobi-cross-check", "all", ctx.l_path_gap, tol)]
    if nabla_a is not None:  # the pairs as blocks of at most BUDGET drawn doubles
        rng = np.random.default_rng(seed + 1)
        worst = max(_worst_norm(ctx, codazzi_residual(ctx, nabla_a, *rng.standard_normal(
            (size, 2, ctx.dim)).transpose(1, 2, 0))) for _, size in _chunks(2 * ctx.dim, samples))
        rows.append(ConditionReport("codazzi", "all", worst, tol))
    return rows, cls, theorem_pipeline(ctx, tol) if dec.is_hopf else None


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    _required(args, "ambient", "n", "family")
    _in_range("--n", args.n, 2, MAX_VERIFY_N)
    _in_range("--samples", args.samples, 1, MAX_SAMPLES)
    spec = ModelSpec(ambient=args.ambient, n=args.n, family=args.family, c=args.c,
                     radius=args.radius, k=args.k, flip_normal=args.flip_normal)
    seed, samples, tol = args.seed, args.samples, args.tolerance
    names = (VERIFY_CHECKS if args.checks == "all"
             else tuple(w.strip() for w in args.checks.split(",") if w.strip()))
    if not names:
        raise ValueError(f"--checks selects no row, got {args.checks!r}; name one or give 'all'")
    unknown = sorted(set(names) - set(VERIFY_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")

    inst = instantiate(spec, seed=seed)
    config = spec.to_jsonable()
    config.update({"seed": seed, "samples": samples, "tolerance": tol,
                   "checks": ",".join(names) if names != VERIFY_CHECKS else "all"})
    report = _skeleton("verify", config, args)
    report["spectral"] = inst.spectral.to_jsonable()

    # every row is built; --checks selects among them at the end
    rows, cls, verdict = _context_rows(inst.ctx, inst.nabla_a, tol, samples, seed)
    rows.append(ConditionReport("spectral-oracle", "all", inst.spectral.oracle_deviation,
                                ORACLE_TOL))
    type_a = inst.nabla_a is not None  # instantiate ships a provider exactly for type A
    expected = theorem_verdict(inst.spectral.alpha_is_zero, type_a)
    matches = verdict.verdict == expected
    rows.append(ConditionReport("theorem-verdict", "all", 0.0 if matches else 1.0, 0.5))
    if "theorem-verdict" in names:
        report["theorem"] = {**verdict.to_jsonable(), "expected_verdict": expected}

    report["classification"] = {"labels": sorted(cls.labels),
                                "unknown": sorted(cls.unknown)}
    skipped = [n for n in ("nabla-xi-l", "mu-vanishes", "codazzi") if n in names]
    if not type_a and skipped:
        report["notes"] = [", ".join(skipped) + f" omitted: family {spec.family} "
                           "ships no derivative provider"]
    if args.emit_structure:
        report["structure"] = inst.ctx.to_jsonable()
    rows = [rep for rep in rows if rep.name in names]
    return report, _finalize(report, rows, args, control=not type_a)


def _structures(rng, dim, first, size):
    """(gram, phi, xi, eta) of random structures, odd-numbered samples on random Grams."""
    grams, factors = np.tile(np.eye(dim), (2, size, 1, 1))
    odd = np.arange(first, first + size) % 2 == 1
    grams[odd] = _grams(rng, (int(odd.sum()), dim, dim))
    factors[odd] = _check_grams(grams[odd])  # the others are exactly I, as _haar_frames finds
    return (grams, *_frame_structures(grams, _haar_frames(rng, grams.shape, factors)))


def _jacobi_gap(rng, dim, first, size):
    """The max-abs gap between the definitional l and the closed form of random contexts."""
    gram, phi, xi, eta, a, c = _contexts(rng, (size,), dim, hopf=False)
    return _maxabs(_gauss(gram, phi, a, c, None, xi, xi) - _closed_form(gram, xi, eta, a, c))


def _hopf_commutator(rng, dim, first, size):
    gram, phi, xi, _, a, c = _contexts(rng, (size,), dim, hopf=True)
    ell = _gauss(gram, phi, a, c, None, xi, xi)  # the jacobi-cross-check property tests _gauss
    return np.maximum(_maxabs(commutator(phi, ell) - _g(gram, a @ xi, xi) * commutator(phi, a)),
                      _maxabs(commutator(ell, a)))


def _gauss_symmetry(rng, dim, first, size):
    gram, phi, _, _, a, c = _contexts(rng, (size,), dim, hopf=False)
    x, y, z, w = rng.standard_normal((4, size, dim, 1))
    r_xyz, r_yzx, r_zxy, r_yxz, r_xyw = np.split(_gauss(
        gram, phi, a, c, np.concatenate([x, y, z, y, x], -1),
        np.concatenate([y, z, x, x, y], -1), np.concatenate([z, x, y, z, w], -1)), 5, -1)
    return np.maximum.reduce([_maxabs(r_xyz + r_yxz),
                              _maxabs(_g(gram, r_xyz, w) + _g(gram, r_xyw, z)),
                              _maxabs(r_xyz + r_yzx + r_zxy)])


# property -> batch function (rng, dim, first, size) returning the residuals of
# samples first .. first + size - 1, keyed in RANDOM_PROPERTIES order
_PROPERTIES = dict(zip(RANDOM_PROPERTIES, (
    lambda *draw: np.max([*_acs_residuals(*_structures(*draw)).values()], axis=0),
    _gauss_symmetry,
    _hopf_commutator,
    _jacobi_gap,
    lambda *draw: _skew(*_structures(*draw)[:2]),
)))
BUDGET = 2 ** 16  # doubles per stack: a chunk holds BUDGET // (doubles per sample) samples, or one


def _chunks(per_sample: int, samples: int) -> list[tuple[int, int]]:
    """(first sample, size) of each chunk of a sweep, in drawing order."""
    size = max(1, BUDGET // per_sample)
    return [(first, min(size, samples - first)) for first in range(0, samples, size)]


def _run_property(prop: str, dim: int, samples: int, seed: int) -> float:
    """Worst residual of the property over the samples of its own stream."""
    rng = np.random.default_rng(seed + RANDOM_PROPERTIES.index(prop))
    return max(float(np.max(_PROPERTIES[prop](rng, dim, first, size)))
               for first, size in _chunks(dim ** 2, samples))


def cmd_random(args: argparse.Namespace) -> tuple[dict, int]:
    dim, samples, seed, prop = args.dim, args.samples, args.seed, args.property
    _in_range("--dim", dim, 3, MAX_RANDOM_DIM)
    _in_range("--samples", samples, 1, MAX_SAMPLES)
    if dim % 2 == 0:
        raise ValueError(f"--dim must be odd, got {dim}")
    _in_range("--dim^3 x --samples", dim ** 3 * samples, 27, MAX_RANDOM_WORK)
    props, tol = RANDOM_PROPERTIES if prop == "all" else (prop,), args.tolerance
    config = {"dim": dim, "samples": samples, "seed": seed, "property": prop, "tolerance": tol}
    report = _skeleton("random", config, args)
    rows = [ConditionReport(name, "all", _run_property(name, dim, samples, seed), tol)
            for name in props]
    return report, _finalize(report, rows, args)


