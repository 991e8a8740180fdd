"""The stacked kernels of the random sweep against the one-sample record path.

The kernels take arrays with a leading sample axis; validate_acs and
CurvatureContext call the same kernels on one sample.  Each sample of a
stack must agree with the record path on the same arrays, and with the
vector formulas the one-sample code used before the kernels (kept below as
the reference), and each check the sweep keeps must still refuse a single
bad sample inside a stack.
"""
import json

import numpy as np
import pytest

from hyperlab import (AlmostContactStructure, CurvatureContext, StructuralError, gauss_curvature,
                      validate_acs)
from hyperlab import cli, sampling
from hyperlab.cli import run
from hyperlab.curvature_engine import _check_shapes, _closed_form, _gauss
from hyperlab.sampling import _contexts, _grams
from hyperlab.tensor_core import (_acs_residuals, _check_grams, _frame_structures,
                                  _haar_frames, _maxabs)

EPS = np.finfo(float).eps


def _loop_acs_residuals(gram, phi, xi, eta):
    eye = np.eye(len(xi))
    return {
        "phi-square": np.max(np.abs(phi @ phi + eye - np.outer(xi, eta))),
        "eta-phi": np.max(np.abs(eta @ phi)),
        "phi-xi": np.max(np.abs(phi @ xi)),
        "eta-xi": abs(float(eta @ xi) - 1.0),
        "metric-compat": np.max(np.abs(phi.T @ gram @ phi - (gram - np.outer(eta, eta)))),
        "skew": np.max(np.abs(gram @ phi + phi.T @ gram)),
        "eta-from-metric": np.max(np.abs(eta - gram @ xi)),
    }


def _loop_gauss(gram, phi, a, c, x, y, z):
    """R(X, Y)Z for three vectors, term by term."""
    def g(p, q):
        return float(p @ gram @ q)
    px, py, pz, ax, ay = phi @ x, phi @ y, phi @ z, a @ x, a @ y
    return (c / 4.0 * (g(y, z) * x - g(x, z) * y + g(py, z) * px - g(px, z) * py
                       - 2.0 * g(px, y) * pz) + g(ay, z) * ax - g(ax, z) * ay)


def _loop_closed_form(gram, xi, eta, a, c):
    w = a @ xi
    return (c / 4.0 * (np.eye(len(xi)) - np.outer(xi, eta)) + float(w @ gram @ xi) * a
            - np.outer(w, gram @ w))


def _context(gram, phi, xi, eta, a, c, i):  # a gram of None is I
    acs = AlmostContactStructure(np.eye(len(a[i])) if gram is None else gram,
                                 phi[i], xi[i, :, 0], eta[i, :, 0])
    return CurvatureContext(acs, a[i], float(c[i]))


@pytest.mark.parametrize("dim", [3, 5, 11])
def test_stacked_acs_residuals_match_validate_acs(rng, dim):
    grams = _grams(rng, (6, dim, dim))
    grams[::2] = np.eye(dim)
    phi, xi, eta = _frame_structures(grams, _haar_frames(rng, grams.shape, _check_grams(grams)))
    stacked = _acs_residuals(grams, phi, xi, eta)
    for i in range(6):
        acs = AlmostContactStructure(grams[i], phi[i], xi[i, :, 0], eta[i, :, 0])
        scale = (1.0 + np.linalg.norm(grams[i])) * (1.0 + np.linalg.norm(phi[i])) ** 2
        loop = _loop_acs_residuals(grams[i], phi[i], xi[i, :, 0], eta[i, :, 0])
        for name, value in validate_acs(acs).items():
            assert abs(stacked[name][i] - value) <= 64 * EPS * scale
            assert abs(stacked[name][i] - loop[name]) <= 64 * EPS * scale
        assert max(validate_acs(acs).values()) <= 1e-12


@pytest.mark.parametrize("dim, hopf", [(3, False), (5, True), (9, False), (11, True)])
def test_stacked_jacobi_gap_and_gauss_columns_match_the_context(rng, dim, hopf):
    stack = gram, phi, xi, eta, a, c = _contexts(rng, (5,), dim, hopf)
    ell, closed = _gauss(gram, phi, a, c, np.eye(dim), xi, xi), _closed_form(gram, xi, eta, a, c)
    gap = _maxabs(ell - closed)
    x, y, z = rng.standard_normal((3, 5, dim, 4))
    block = _gauss(gram, phi, a, c, x, y, z)
    for i in range(5):
        ctx = _context(*stack, i)
        scale = 1.0 + abs(ctx.c) + np.linalg.norm(ctx.shape_operator) ** 2
        assert abs(gap[i] - ctx.l_path_gap) <= 64 * EPS * scale
        v = (np.eye(dim), phi[i], a[i], c[i])  # the loop reference multiplies by I
        loop_ell = np.column_stack([_loop_gauss(*v, e, xi[i, :, 0], xi[i, :, 0])
                                    for e in np.eye(dim)])
        assert np.max(np.abs(ell[i] - loop_ell)) <= 64 * EPS * scale
        assert np.max(np.abs(closed[i] - _loop_closed_form(
            np.eye(dim), xi[i, :, 0], eta[i, :, 0], a[i], c[i]))) <= 64 * EPS * scale
        if hopf:
            assert np.allclose(ctx.a_xi, ctx.alpha * ctx.acs.xi, atol=1e-12)
        for j in range(4):
            cols = [w[i, :, j] for w in (x, y, z)]
            norms = np.prod([np.linalg.norm(col) for col in cols])
            for want in (gauss_curvature(ctx, *cols), _loop_gauss(*v, *cols)):
                assert np.max(np.abs(block[i, :, j] - want)) <= 64 * EPS * scale * norms


def _break(arr, i, how):
    out = np.array(arr)
    how(out[i])
    return out


def test_each_kept_check_refuses_one_bad_sample_in_a_stack(rng):
    dim = 5
    gram, _, _, _, a, c = _contexts(rng, (4,), dim, hopf=True)
    _check_shapes(gram, a, c)
    bad_a = _break(a, 2, lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-3))
    with pytest.raises(StructuralError, match="not g-symmetric"):
        _check_shapes(gram, bad_a, c)
    with pytest.raises(StructuralError, match="c must be nonzero"):
        _check_shapes(gram, a, np.where(np.arange(4) == 1, 0.0, c))
    with pytest.raises(StructuralError, match="shape_operator norm"):
        _check_shapes(gram, _break(a, 3, lambda m: m.__imul__(1e51)), c)

    grams = _grams(rng, (4, dim, dim))
    factors = _check_grams(grams)
    with pytest.raises(StructuralError, match="positive definite"):
        _check_grams(_break(grams, 3, lambda m: m.__setitem__((0, 0), -1.0)))
    with pytest.raises(StructuralError, match="symmetric"):
        _check_grams(_break(grams, 0, lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-9)))

    frames = _haar_frames(rng, grams.shape, factors)
    _frame_structures(grams, frames)
    with pytest.raises(StructuralError, match="not g-orthonormal"):
        _frame_structures(grams, _break(frames, 1, lambda m: m.__setitem__((..., 0), 2 * m[:, 0])))


def _bad_shapes(original):
    def shapes(rng, frame, gram, hopf):
        a = original(rng, frame, gram, hopf)
        a[..., -1, 0, 1] += 1e-3
        return a
    return shapes


def _bad_grams(original):
    def grams(rng, shape):
        g = original(rng, shape)
        g[..., -1, 0, 0] = -1.0
        return g
    return grams


def _bad_frames(original):
    def frames(rng, shape, gram=None):
        q = original(rng, shape, gram)
        q[..., -1, :, 0] *= 2.0
        return q
    return frames


def _bad_closed_form(original):
    def closed_form(*args):
        ell = original(*args)
        ell[..., -1, :, :] += 1e-3
        return ell
    return closed_form


@pytest.mark.parametrize("prop, module, name, breaker, message", [
    ("jacobi-cross-check", sampling, "_shapes", _bad_shapes, "not g-symmetric"),
    ("acs-axioms", cli, "_grams", _bad_grams, "gram matrix must be positive definite"),
    ("phi-skew", cli, "_haar_frames", _bad_frames, "not g-orthonormal"),
])
def test_a_bad_sample_in_the_sweep_exits_2(capsys, monkeypatch, prop, module, name,
                                           breaker, message):
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    code = run(["random", "--dim", "5", "--samples", "40", "--property", prop])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def _random_report(capsys, prop):
    code = run(["random", "--dim", "5", "--samples", "40", "--deterministic", "--property", prop])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


def test_a_bad_closed_form_in_the_sweep_fails_the_cross_check(capsys, monkeypatch):
    # the gap between the two Jacobi paths is a measurement: its row fails, nothing raises
    monkeypatch.setattr(cli, "_closed_form", _bad_closed_form(cli._closed_form))
    code, report = _random_report(capsys, "jacobi-cross-check")
    assert code == 1
    [row] = report["checks"]
    assert (row["check"], row["pass"]) == ("jacobi-cross-check", False)
    assert row["residual"] == pytest.approx(1e-3, rel=1e-9)


def test_the_hopf_commutator_property_builds_l_one_way(capsys, monkeypatch):
    # the jacobi-cross-check property tests _gauss against the closed form
    calls = _counted(monkeypatch, cli, "_closed_form")
    code, report = _random_report(capsys, "hopf-commutator")
    assert (code, report["checks"][0]["pass"]) == (0, True)
    assert calls == []


def _counted(monkeypatch, module, name: str) -> list:
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_sweep_chunk_factors_each_random_gram_once(capsys, monkeypatch):
    # eigvalsh only scales _grams' draws; one Cholesky factor per Gram decides positive
    # definiteness and solves for the frames, and phi-skew measures the skew alone
    eigvalsh = _counted(monkeypatch, np.linalg, "eigvalsh")
    cholesky = _counted(monkeypatch, np.linalg, "cholesky")
    argv = ["random", "--dim", "5", "--samples", "40", "--deterministic", "--property"]
    assert cli._chunks(5 ** 2, 40) == [(0, 40)]
    assert run([*argv, "acs-axioms"]) == 0
    assert (len(eigvalsh), len(cholesky)) == (1, 1)
    residuals = _counted(monkeypatch, cli, "_acs_residuals")
    assert run([*argv, "phi-skew"]) == 0
    assert residuals == []
    capsys.readouterr()
