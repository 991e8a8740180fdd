"""End-to-end CLI contract: report shape, determinism, exit codes, config plumbing."""
import argparse
import importlib.util
import json
import math
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from hyperlab import (DEFAULT_TOL, KER_ETA, SPAN_XI, CatalogError, CurvatureContext,
                      DegenerateSeedError, FocalPointError, JetError, MissingNablaAError,
                      ModelSpec, NotHopfError, OracleMismatchError, StructuralError,
                      TheoremVerdict, cli, entry, instantiate, random_gram, random_hopf_context,
                      structure_from_frame, type_a_nabla_a)
from hyperlab.checks import (CONTROL_FAILS, VERDICT_HYPOTHESIS_FAILS, VERDICT_INDETERMINATE,
                             VERDICT_TYPE_A, VERIFY_CHECKS, theorem_verdict)
from hyperlab.cli import run, to_canonical_json, to_markdown
from hyperlab.model_catalog import FAMILY_TABLE
from test_golden import CASES as GOLDEN_CASES


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _report(capsys, argv):
    code, out = _capture(capsys, argv)
    return code, json.loads(out)


def test_verify_type_a_report(capsys):
    code, rep = _report(capsys, ["verify", "--ambient", "CP", "--n", "3",
                                 "--family", "A2", "--radius", "0.8", "--k", "1",
                                 "--deterministic"])
    assert code == 0
    assert rep["schema"] == "hyperlab/1"
    assert rep["command"] == "verify"
    assert rep["summary"]["all_ok"] is True
    assert rep["summary"]["unexpected"] == 0
    assert "timestamp" not in rep
    keys = [(r["check"], r.get("subspace", "")) for r in rep["checks"]]
    assert keys == sorted(keys)
    assert rep["theorem"]["verdict"] == "type-A-compatible"
    assert rep["classification"]["labels"] == ["A", "B", "C", "D"]
    assert all(r["pass"] for r in rep["checks"])


def test_verify_negative_control_expects_failures(capsys):
    code, rep = _report(capsys, ["verify", "--ambient", "CH", "--n", "3",
                                 "--family", "B", "--radius", "0.7",
                                 "--deterministic"])
    assert code == 0  # failures are expected for the negative control
    failing = {(r["check"], r["subspace"]) for r in rep["checks"] if not r["pass"]}
    assert failing == {("shape-phi-commute", "all"), ("phi-l-commute", "ker-eta")}
    assert all(r["expected"] is False for r in rep["checks"]
               if (r["check"], r["subspace"]) in failing)
    assert rep["theorem"]["verdict"] == "phi-l-hypothesis-fails"
    assert rep["classification"]["labels"] == []
    assert any("omitted" in note for note in rep["notes"])


def test_verify_alpha_zero_radius_indeterminate(capsys):
    code, rep = _report(capsys, ["verify", "--ambient", "CP", "--n", "2",
                                 "--family", "A1", "--radius", repr(math.pi / 4.0),
                                 "--deterministic"])
    assert code == 0
    assert rep["theorem"]["verdict"] == "indeterminate-eta-A-xi-zero"
    assert rep["theorem"]["expected_verdict"] == "indeterminate-eta-A-xi-zero"
    assert rep["spectral"]["alpha_is_zero"] is True


def test_verify_alpha_just_past_zero_radius_agrees_with_catalog(capsys):
    # pi/4 + 1e-11 is a valid CP model with alpha = -4e-11: the catalog and
    # the verdict pipeline share one alpha-vanishes predicate
    code, rep = _report(capsys, ["verify", "--ambient", "CP", "--n", "3",
                                 "--family", "A1", "--radius", "0.7853981634074483",
                                 "--deterministic"])
    assert code == 0
    assert rep["spectral"]["alpha_is_zero"] is False
    assert rep["theorem"]["verdict"] == rep["theorem"]["expected_verdict"] \
        == "type-A-compatible"


def test_theorem_verdict_truth_table():
    # the hypothesis is read before alpha: a non-commuting model fails it whatever alpha is
    assert theorem_verdict(alpha_is_zero=False, commutes=True) == VERDICT_TYPE_A
    assert theorem_verdict(alpha_is_zero=True, commutes=True) == VERDICT_INDETERMINATE
    assert theorem_verdict(alpha_is_zero=False, commutes=False) == VERDICT_HYPOTHESIS_FAILS
    assert theorem_verdict(alpha_is_zero=True, commutes=False) == VERDICT_HYPOTHESIS_FAILS


def _policy_models():
    """(argv, verdict the family must reach) over every family at n = 2 and 3, every
    admissible k and both normals, at an interior radius, and the CP tubes where alpha
    vanishes (s r = pi/4)."""
    models = []
    for (ambient, family), entry in FAMILY_TABLE.items():
        radius = [] if entry.sr_max is None else ["--radius", repr(min(0.6, entry.sr_max / 2))]
        verdict = VERDICT_HYPOTHESIS_FAILS if family == "B" else VERDICT_TYPE_A
        models += [([ambient, family, n, k, *radius], verdict)
                   for n in (2, 3) for k in entry.ks(n)]
    models += [(["CP", family, n, k, "--radius", repr(math.pi / 4)], VERDICT_INDETERMINATE)
               for family, n, k in (("A1", 2, None), ("A1", 3, None), ("A2", 3, 1))]
    return [(["verify", "--ambient", ambient, "--family", family, "--n", str(n),
              *([] if k is None else ["--k", str(k)]), *rest, *flip, "--deterministic"], verdict)
            for (ambient, family, n, k, *rest), verdict in models
            for flip in ([], ["--flip-normal"])]


def test_verify_expectations_hold_over_the_whole_catalog(capsys):
    # the control rows are expected to fail on exactly the models whose verdict
    # is that the hypothesis fails, and every model reaches its expected verdict
    models = _policy_models()
    assert len(models) == 2 * 19
    for argv, verdict in models:
        code, rep = _report(capsys, argv)
        assert code == 0, argv
        assert {row["check"] for row in rep["checks"]} <= set(VERIFY_CHECKS)
        theorem = rep["theorem"]
        assert theorem["verdict"] == theorem["expected_verdict"] == verdict, argv
        control = {(row["check"], row["subspace"]) for row in rep["checks"]
                   if row["expected"] is False}
        assert control == (CONTROL_FAILS if verdict == VERDICT_HYPOTHESIS_FAILS else set()), argv
        assert all(row["pass"] == row["expected"] for row in rep["checks"]), argv


def test_verify_check_subset_and_structure_emission(capsys):
    code, rep = _report(capsys, ["verify", "--ambient", "CP", "--n", "2",
                                 "--family", "A1", "--radius", "0.5",
                                 "--checks", "structure-axioms,phi-l-commute",
                                 "--emit-structure", "--deterministic"])
    assert code == 0
    names = {r["check"] for r in rep["checks"]}
    assert names == {"structure-axioms", "phi-l-commute"}
    structure = rep["structure"]
    assert list(structure) == ["dim", "gram", "phi", "xi", "eta", "shape_operator", "c"]
    assert structure["dim"] == 3 and structure["c"] == 4.0
    assert [len(structure[key]) for key in ("gram", "phi", "xi", "eta", "shape_operator")] == \
        [9, 9, 3, 3, 9]


_CHECKS_MODELS = {
    "type-A": ["--ambient", "CP", "--n", "3", "--family", "A2", "--k", "1", "--radius", "0.8"],
    "family-B": ["--ambient", "CP", "--n", "3", "--family", "B", "--radius", "0.6"],
}
_FULL_REPORTS: dict = {}


@pytest.mark.parametrize("model", sorted(_CHECKS_MODELS))
@pytest.mark.parametrize("name", cli.VERIFY_CHECKS)
def test_checks_reports_exactly_the_full_reports_rows_of_that_name(capsys, model, name):
    argv = ["verify", *_CHECKS_MODELS[model], "--deterministic"]
    if model not in _FULL_REPORTS:
        _FULL_REPORTS[model] = _report(capsys, argv)[1]
    full = _FULL_REPORTS[model]
    code, rep = _report(capsys, argv + ["--checks", name])
    rows = [row for row in full["checks"] if row["check"] == name]
    assert rep["checks"] == rows
    assert rep["summary"]["rows"] == len(rows)
    assert code == (0 if all(row["pass"] == row["expected"] for row in rows) else 1)
    assert rep["config"] == {**full["config"], "checks": name}
    assert rep["spectral"] == full["spectral"]
    assert rep["classification"] == full["classification"]
    assert rep.get("theorem") == (full["theorem"] if name == "theorem-verdict" else None)
    omitted = "notes" in full and name in ("nabla-xi-l", "mu-vanishes", "codazzi")
    assert rep.get("notes") == ([f"{name} omitted: family B ships no derivative provider"]
                                if omitted else None)



_IDENTITY_ROWS = ("structure-axioms", "jacobi-cross-check", "codazzi")
_CATALOG_ROWS = {"spectral-oracle", "theorem-verdict"}


def _frame_context(rng, n):
    """A g-orthonormal frame on a random Gram matrix, through its Cholesky factor, and
    a g-symmetric shape operator whose A xi leaves span{xi}: data instantiate never builds."""
    dim = 2 * n - 1
    gram = random_gram(dim, rng)
    frame = np.linalg.solve(np.linalg.cholesky(gram).T,
                            np.linalg.qr(rng.standard_normal((dim, dim)))[0])
    s = rng.standard_normal((dim, dim))
    return CurvatureContext(structure_from_frame(gram, frame),
                            frame @ (s + s.T) @ frame.T @ gram, -4.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_context_rows_check_any_context(n):
    rng = np.random.default_rng(n)
    for ctx, hopf in ((random_hopf_context(n, rng), True), (_frame_context(rng, n), False)):
        rows, cls, verdict = cli._context_rows(ctx, type_a_nabla_a(ctx), DEFAULT_TOL, 25, 0)
        by_name = {(rep.name, rep.subspace): rep for rep in rows}
        assert set(by_name) == {
            *((name, sub) for name in ("phi-l-commute", "l-A-commute", "nabla-xi-l",
                                       "mu-vanishes") for sub in (KER_ETA, SPAN_XI)),
            *((name, "all") for name in (*_IDENTITY_ROWS, "shape-phi-commute")),
            ("hopf-decomposition", SPAN_XI)}
        assert all(by_name[name, "all"].passed for name in _IDENTITY_ROWS)
        assert by_name["hopf-decomposition", SPAN_XI].passed is hopf
        assert cls.reports["phi-l/ker-eta"] is by_name["phi-l-commute", KER_ETA]
        if hopf:
            assert isinstance(verdict, TheoremVerdict)
        else:
            assert verdict is None


@pytest.mark.parametrize("name", [name for name, (argv, _) in GOLDEN_CASES.items()
                                  if argv[0] == "verify"])
def test_verify_rows_are_the_context_rows_and_the_two_catalog_rows(name):
    args = entry._parse(GOLDEN_CASES[name][0])
    report, _ = cli.cmd_verify(args)
    inst = instantiate(ModelSpec(args.ambient, args.n, args.family, c=args.c,
                                 radius=args.radius, k=args.k, flip_normal=args.flip_normal),
                       seed=args.seed)
    rows, _, _ = cli._context_rows(inst.ctx, inst.nabla_a, args.tolerance, args.samples,
                                   args.seed)
    names = set(cli.VERIFY_CHECKS if args.checks == "all" else args.checks.split(","))
    got = [{key: value for key, value in row.items() if key != "expected"}
           for row in report["checks"]]
    ours = [rep.to_jsonable() for rep in rows if rep.name in names]
    assert all(row in got for row in ours)
    added = [row["check"] for row in got if row not in ours]
    assert len(got) == len(ours) + len(added)
    assert added == sorted(names & _CATALOG_ROWS)


def test_verify_unknown_check_is_usage_error(capsys):
    code, out = _capture(capsys, ["verify", "--ambient", "CP", "--n", "2",
                                  "--family", "A1", "--radius", "0.5",
                                  "--checks", "no-such-check"])
    assert code == 2
    assert out == ""


_VERIFY_CP2 = ["verify", "--ambient", "CP", "--n", "2", "--family", "A1", "--radius", "0.5"]


@pytest.mark.parametrize("argv, flag", [
    (["random", "--seed", "-1", "--property", "phi-skew", "--samples", "5"], "--seed"),
    (["random", "--seed", "-1"], "--seed"),
    (_VERIFY_CP2 + ["--seed", "-1"], "--seed"),
    (_VERIFY_CP2 + ["--checks", ","], "--checks"),
    (_VERIFY_CP2 + ["--checks", ""], "--checks"),
    (["random", "--seed", "abc"], "--seed"),
])
def test_vacuous_inputs_are_refused_naming_the_flag(capsys, argv, flag):
    # a negative seed would alias another stream, an empty --checks report all_ok on no row
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_config_file_seed_is_refused_naming_the_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n")
    assert run(["random", "--samples", "5", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: argument --seed: must be a non-negative integer, got '-3'\n")


@pytest.mark.parametrize("argv, line", [
    (["catalog", "--out", ""], None),
    (["catalog", "--out="], None),
    (["jet", "--alpha", "1", "--beta", "0.5", "--c", "4", "--out", ""], None),
    (["catalog", "--config", ""], None),
    (["catalog"], "out ="),
])
def test_an_empty_out_or_config_path_is_refused(capsys, tmp_path, argv, line):
    # an empty path is a path to open, not the absence of the flag (stdout, no file)
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

@pytest.mark.parametrize("argv, line, message", [
    (["catalog", "--deterministic"], "format = xml",
     "argument --format: invalid choice: 'xml' (choose from 'json', 'markdown')"),
    (["random", "--samples", "5"], "property = nope",
     "argument --property: invalid choice: 'nope' (choose from "
     + ", ".join(repr(p) for p in entry.RANDOM_PROPERTIES + ("all",)) + ")"),
    (["catalog"], "deterministic = maybe", "deterministic = 'maybe' in {cfg} is not a boolean"),
    (["jet", "--alpha", "1", "--beta", "0.5", "--c", "4"], "dalpha_U = abc",
     "jet value dalpha_U = 'abc' is not a number"),
])
def test_config_values_pass_the_choices_check(capsys, tmp_path, argv, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")


def _fresh_process(argv, child_env):
    proc = subprocess.run([sys.executable, "-m", "hyperlab", *argv], capture_output=True,
                          text=True, timeout=120, env=child_env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv, text", [
    (["verify", "--ambient", "CP", "--n", "3", "--family", "A1", "--radius", "0.5",
      "--deterministic"], "seed = 4\nformat = markdown\nflip_normal = true\n"),
    (["jet", "--alpha", "1", "--beta", "0.5", "--c", "4", "--deterministic"],
     "kappa3 = 0.5\ndalpha_U = 0.25\ndbeta_xi = 0.125\n"),
])
def test_a_config_run_leaves_no_state_for_the_next_run(capsys, tmp_path, child_env, argv, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with_file = _capture(capsys, argv + ["--config", str(cfg)])
    after = _capture(capsys, argv)
    assert with_file != after
    assert after == _fresh_process(argv, child_env)


def test_one_parser_serves_every_run_in_a_process(child_env):
    script = (
        "import argparse, io, contextlib\n"
        "calls = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    calls.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from hyperlab.entry import run\n"
        "counts = []\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(['catalog', '--deterministic']) == 0\n"
        "    counts.append(len(calls))\n"
        "print(counts)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    first, *rest = json.loads(proc.stdout)
    assert first > 0 and rest == [first, first]


def test_array_commands_without_numpy_exit_2_in_one_line(child_env):
    # a missing numpy is a configuration error, not a failed check
    script = "import sys\nsys.modules['numpy'] = None\nfrom hyperlab.entry import main\nmain()"
    for argv in (["verify", "--ambient", "CP", "--n", "2", "--family", "A1", "--radius", "0.5"],
                 ["random"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--deterministic"],
                              capture_output=True, text=True, timeout=120, env=child_env)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert re.fullmatch(r"error: [^\n]*numpy[^\n]*\n", proc.stderr), proc.stderr


def test_verify_bad_radius_is_usage_error(capsys):
    assert run(["verify", "--ambient", "CP", "--n", "2", "--family", "A1", "--radius", "2.0"]) == 2
    assert capsys.readouterr() == (
        "", "error: CP family A1 requires 0 < r < 1.570796 for c = 4.0\n")


@pytest.mark.parametrize("argv, message", [
    (["CP", "--n", "3", "--family", "A1", "--radius", "0.5", "--c", "1e300"],
     "CP family A1 requires 0 < r < 3.141593e-150 for c = 1e+300"),
    (["CP", "--n", "2", "--family", "A2", "--radius", "0.5"],
     "CP A2 requires --k, but no k is admissible at n = 2 (0 < s r < pi/2, 1 <= k <= n-2)"),
    (["CP", "--n", "3", "--family", "A2", "--radius", "0.5"],
     "CP A2 requires --k (0 < s r < pi/2, 1 <= k <= n-2)"),
    (["CH", "--n", "3", "--family", "A1", "--radius", "0.5", "--c", "4"], "CH requires c < 0"),
])
def test_model_refusals_state_the_bound_and_the_missing_k(capsys, argv, message):
    assert run(["verify", "--ambient"] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("c", ["-1e200", "-1e250", "-1e300", "-1.0000000000000003e+50"])
def test_an_oversized_c_is_refused_in_one_line(capsys, c):
    # past C_MAX the checks' squares overflow; no numpy warning may reach stderr
    assert run(["verify", "--ambient", "CH", "--n", "2", "--family", "A0", "--c", c]) == 2
    assert capsys.readouterr() == ("", f"error: c = {float(c)!r} exceeds 1e+50 in magnitude\n")


def test_c_at_its_bound_runs_to_a_report(capsys):
    code = run(["verify", "--ambient", "CH", "--n", "2", "--family", "A0", "--c", "-1e50",
                "--deterministic"])
    out, err = capsys.readouterr()
    assert code in (0, 1) and err == "" and json.loads(out)["command"] == "verify"


def test_catalog_lists_models(capsys):
    code, rep = _report(capsys, ["catalog", "--deterministic"])
    assert code == 0
    assert {row["family"] for row in rep["catalog"]} == {"A0", "A1", "A2", "B"}


def test_random_properties(capsys):
    code, rep = _report(capsys, ["random", "--dim", "3", "--samples", "20",
                                 "--seed", "5", "--deterministic"])
    assert code == 0
    assert [r["check"] for r in rep["checks"]] == sorted(
        ["acs-axioms", "gauss-symmetry", "hopf-commutator",
         "jacobi-cross-check", "phi-skew"])
    assert all(r["pass"] for r in rep["checks"])


def test_random_single_property(capsys):
    code, rep = _report(capsys, ["random", "--dim", "5", "--samples", "10",
                                 "--property", "phi-skew", "--deterministic"])
    assert code == 0
    assert [r["check"] for r in rep["checks"]] == ["phi-skew"]


@pytest.mark.parametrize("dim, samples", [("41", "6"), ("5", "60")])
def test_random_is_byte_identical_in_process_at_the_benchmark_shapes(capsys, dim, samples):
    argv = ["random", "--dim", dim, "--samples", samples, "--seed", "7105", "--deterministic"]
    first = _capture(capsys, argv)
    assert first[0] == 0
    assert _capture(capsys, argv) == first


@pytest.mark.parametrize("dim, samples", [
    (cli.MAX_RANDOM_DIM, 10), (41, cli.MAX_SAMPLES), (5, cli.MAX_SAMPLES), (5, 1), (41, 6)])
def test_chunk_plan_covers_each_sample_once_within_the_budget(dim, samples):
    assert dim ** 3 * samples <= cli.MAX_RANDOM_WORK  # an admitted shape
    plan = cli._chunks(dim ** 2, samples)
    assert [i for first, size in plan for i in range(first, first + size)] == list(range(samples))
    assert all(size * dim ** 2 <= cli.BUDGET or size == 1 for _, size in plan)


@pytest.mark.parametrize("dim, samples, plan", [
    (41, 6, [(0, 6)]),  # the benchmark's dim-41 sweeps are one stack
    (5, 1000, [(0, 1000)]),  # the default sweep is one stack
    (201, 10, [(i, 1) for i in range(10)]),  # stacking measured slower from dim 183 on
])
def test_chunk_plan_at_the_budget(dim, samples, plan):
    assert cli._chunks(dim ** 2, samples) == plan


@pytest.mark.parametrize("dim, samples, budget", [
    (119, 2000, None), (5, 25, None), (5, 101, 64), (7, 30, 8)])
def test_codazzi_chunks_draw_the_single_draw(monkeypatch, dim, samples, budget):
    # verify draws its Codazzi pairs chunk by chunk from one generator: the
    # concatenation is the (samples, 2, dim) draw bit for bit, whatever the budget
    if budget is not None:
        monkeypatch.setattr(cli, "BUDGET", budget)
    plan = cli._chunks(2 * dim, samples)
    assert all(size * 2 * dim <= cli.BUDGET or size == 1 for _, size in plan)
    rng = np.random.default_rng(42)
    chunked = np.concatenate([rng.standard_normal((size, 2, dim)) for _, size in plan])
    assert chunked.tobytes() == np.random.default_rng(42).standard_normal(
        (samples, 2, dim)).tobytes()


def test_codazzi_row_memory_is_bounded_by_the_budget(capsys):
    # the whole verify at n = 60 peaks at about 7 BUDGET doubles with 2000 pairs, and at
    # 10 with them drawn as one stack; one stack of the 10,000 allowed pairs reads 39
    import tracemalloc
    argv = ["verify", "--ambient", "CP", "--n", "60", "--family", "A2", "--k", "5",
            "--radius", "0.4", "--samples", "2000", "--checks", "codazzi", "--deterministic"]
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 8 * cli.BUDGET * 8


def test_random_rejects_even_dim(capsys):
    code, _ = _capture(capsys, ["random", "--dim", "4"])
    assert code == 2


def test_oracle_riccati_value(capsys):
    code, rep = _report(capsys, ["oracle", "riccati", "--kappa", "1.0",
                                 "--r", "1.0", "--r0", "0.01",
                                 "--lambda0", repr(1.0 / math.tan(0.01)),
                                 "--deterministic"])
    assert code == 0
    assert abs(rep["oracle"]["value"] - 1.0 / math.tan(1.0)) <= 1e-9


def test_oracle_riccati_default_anchor(capsys):
    # the small-radius asymptote seeds the run when no anchor is given
    code, rep = _report(capsys, ["oracle", "riccati", "--kappa", "1.0",
                                 "--r", "0.8", "--deterministic"])
    assert code == 0
    assert abs(rep["oracle"]["value"] - 1.0 / math.tan(0.8)) <= 1e-6


def test_oracle_riccati_focal_exit(capsys):
    code, rep = _report(capsys, ["oracle", "riccati", "--kappa", "1.0",
                                 "--r", "3.2", "--deterministic"])
    assert code == 1
    assert "error" in rep["oracle"]
    assert rep["summary"]["all_ok"] is False


def test_oracle_riccati_names_the_step_that_overflowed(capsys):
    # one step whose lambda is not finite: no block product runs, and the step is named
    code, rep = _report(capsys, ["oracle", "riccati", "--kappa", "1e300", "--r", "0.01005",
                                 "--lambda0", "1", "--deterministic"])
    assert code == 1
    assert rep["oracle"] == {"error": "shape curvature passed a focal point near r = 0.010050"}


def test_jet_report(capsys):
    code, rep = _report(capsys, ["jet", "--alpha", "2.0", "--beta", "0.5",
                                 "--c", "4.0", "--deterministic"])
    assert code == 0
    assert rep["jet"]["kappa1"] == -8.0
    assert rep["certificate"]["verdict"] == "contradiction-witnessed"
    assert all(r["pass"] for r in rep["checks"])
    assert all(r["subspace"] == "scalar" for r in rep["checks"])


def test_jet_alpha_zero_is_usage_error(capsys):
    code, _ = _capture(capsys, ["jet", "--alpha", "0.0", "--beta", "1.0",
                                "--c", "4.0"])
    assert code == 2


def test_jet_config_mapping_path(capsys, tmp_path):
    cfg = tmp_path / "jet.cfg"
    cfg.write_text("dalpha_U = 0.25\n# comment line\ndbeta_xi = 0.125\n")
    code, rep = _report(capsys, ["jet", "--alpha", "1.0", "--beta", "1.0",
                                 "--c", "4.0", "--config", str(cfg),
                                 "--deterministic"])
    assert code == 1  # inconsistent first derivatives fail their rows
    rows = {r["check"]: r for r in rep["checks"]}
    assert not rows["dalpha-U-equals-dbeta-xi"]["pass"]
    assert rep["jet"]["d_alpha"]["U"] == 0.25


def test_jet_config_gamma_is_checked(capsys, tmp_path):
    cfg = tmp_path / "jet.cfg"
    cfg.write_text("gamma = 123\n")
    code, rep = _report(capsys, ["jet", "--alpha", "2", "--beta", "0.5", "--c", "4",
                                 "--config", str(cfg), "--deterministic"])
    assert code == 1
    assert rep["jet"]["gamma"] == 123 and rep["jet"]["lambda"] == -0.5
    rows = {r["check"]: r for r in rep["checks"]}
    assert rows["gamma-closed-form"]["residual"] == 123.375
    assert not rows["gamma-closed-form"]["pass"] and rows["lambda-closed-form"]["pass"]


def test_jet_config_non_finite_value_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "jet.cfg"
    cfg.write_text("dalpha_U = nan\n")
    code = run(["jet", "--alpha", "1.0", "--beta", "1.0", "--c", "4.0",
                "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dalpha_U" in err


def test_deterministic_runs_are_byte_identical(capsys):
    argv = ["verify", "--ambient", "CH", "--n", "3", "--family", "A2",
            "--radius", "1.3", "--k", "1", "--deterministic"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_timestamp_present_without_deterministic(capsys):
    code, rep = _report(capsys, ["catalog"])
    assert code == 0
    assert "timestamp" in rep


def test_markdown_output(capsys):
    code, out = _capture(capsys, ["verify", "--ambient", "CP", "--n", "2",
                                  "--family", "A1", "--radius", "0.5",
                                  "--format", "markdown", "--deterministic"])
    assert code == 0
    assert out.startswith("# ")
    assert "| check |" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_markdown_table_rows_have_the_header_cell_count(capsys):
    # the CH A1 eigenvalue text holds a |, which must not open a seventh cell
    _, catalog = _capture(capsys, ["catalog", "--format", "markdown", "--deterministic"])
    golden = pathlib.Path(__file__).with_name("golden") / "verify-CP-n4-A2-k2-r0.6-markdown.md"
    tables = [block.splitlines() for text in (catalog, golden.read_text())
              for block in text.split("\n\n") if block.startswith("|")]
    assert len(tables) == 2
    for header, *rows in tables:
        cells = len(re.split(r"(?<!\\)\|", header))
        assert [len(re.split(r"(?<!\\)\|", row)) for row in rows] == [cells] * len(rows)
    assert r"s coth(s r) x (2n-2) \| s tanh(s r)" in catalog


@pytest.mark.parametrize("argv", [["catalog"], ["oracle", "riccati", "--kappa", "1", "--r", "0.9"]])
def test_markdown_prints_an_empty_list_as_a_scalar(capsys, argv):
    # no check rows: a "- checks: []" line, not an empty "## checks" section
    code, out = _capture(capsys, argv + ["--format", "markdown", "--deterministic"])
    assert code == 0
    assert "\n\n- checks: []\n\n## summary\n" in out
    assert "## checks" not in out


def test_out_file_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = _capture(capsys, ["catalog", "--deterministic",
                                  "--out", str(path)])
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["command"] == "catalog"


def test_config_file_supplies_and_flag_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ambient = CP\nn = 2\nfamily = A1\nradius = 0.5\n"
                   "deterministic = true\n")
    code, rep = _report(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    assert rep["command"] == "verify"
    assert rep["config"]["radius"] == 0.5
    assert "timestamp" not in rep
    code, rep = _report(capsys, ["verify", "--config", str(cfg),
                                 "--radius", "0.6"])
    assert rep["config"]["radius"] == 0.6  # flag wins over file


def test_config_file_with_a_byte_order_mark_is_read(capsys, tmp_path):
    # an editor may save UTF-8 with a leading BOM; it must not stick to the first key
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfradius = 0.5\n")
    code, out = _capture(capsys, ["verify", "--ambient", "CP", "--n", "3", "--family", "A1",
                                  "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["config"]["radius"] == 0.5


@pytest.mark.parametrize("argv, line", [
    (["jet", "--alpha", "1", "--beta", "1", "--c", "4"], "lamda = 0.5"),
    (["jet", "--alpha", "1", "--beta", "1", "--c", "4"], "lam = 0.5"),
    (["verify", "--ambient", "CP", "--n", "2", "--family", "A1"], "radus = 0.5"),
    (["verify", "--ambient", "CP", "--n", "2", "--family", "A1", "--radius", "0.5"],
     "command = catalog"),
    (["catalog"], "leaf = 1"),
    (["oracle", "riccati", "--kappa", "1", "--r", "1"], "oracle_command = riccati"),
    (["jet", "--alpha", "1", "--beta", "1", "--c", "4"], "flip_normal = true"),
])
def test_config_refuses_unknown_keys(capsys, tmp_path, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run(argv + ["--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    key = line.split(" = ")[0]
    assert err.startswith("error: unknown ") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("argv, text, key", [
    (["verify", "--ambient", "CP", "--n", "3", "--family", "A1"],
     "radius = 0.5\nradius = 0.9\n", "radius"),
    (["oracle", "riccati", "--kappa", "1"], "r = 0.5\n# the later one\nr = 0.9\n", "r"),
    (["jet", "--alpha", "1", "--beta", "1", "--c", "4"],
     "dalpha_U = 0.25\ndbeta_xi = 0.125\ndalpha_U = 0.25\n", "dalpha_U"),
], ids=["verify", "oracle", "jet"])
def test_config_refuses_a_repeated_key(capsys, tmp_path, argv, text, key):
    # the last value used to win silently; the error names the second line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(argv + ["--config", str(cfg), "--deterministic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {cfg}:{text.count(chr(10))}: repeated key {key!r}\n"


def test_config_reads_every_switch_and_refuses_a_config_key(capsys, tmp_path):
    # a switch is any store_true option; a config key could never take effect
    cfg = tmp_path / "run.cfg"
    switches = []
    for leaf in _leaf_parsers(cli.build_parser()):
        words = leaf.prog.split()[1:]
        for action in leaf._actions:
            if isinstance(action, argparse._StoreTrueAction):
                for raw, value in (("on", True), ("off", False)):
                    cfg.write_text(f"{action.dest} = {raw}\n")
                    assert getattr(entry._parse(words + ["--config", str(cfg)]),
                                   action.dest) is value
                switches.append(action.dest)
        cfg.write_text("config = x\n")
        assert run(words + ["--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unknown {words[0]} keys in {cfg}: config\n"
    # --deterministic on each of the five leaves, verify's --flip-normal and --emit-structure
    assert sorted(switches) == ["deterministic"] * 5 + ["emit_structure", "flip_normal"]


@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_config_accepts_the_benchmark_jet_keys(capsys, tmp_path, level):
    # the cli-cold workload's jet --config file: kappa3, dalpha_*, dbeta_*, d2*, w1_norm_sq
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    flags, text = workloads._jet_config(lambda kind, name: level)
    cfg = tmp_path / "jet.cfg"
    cfg.write_text(text)
    code = run(["jet"] + flags + ["--config", str(cfg), "--deterministic"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    values = dict(line.split(" = ") for line in text.splitlines())
    assert json.loads(out)["jet"]["d_beta"]["phiW1"] == float(values["dbeta_phiW1"])


# one working argv of each leaf command
LEAF_ARGVS = {
    "catalog": ["catalog"],
    "verify": ["verify", "--ambient", "CP", "--n", "2", "--family", "A1", "--radius", "0.5"],
    "random": ["random", "--samples", "10"],
    "oracle riccati": ["oracle", "riccati", "--kappa", "1", "--r", "0.5"],
    "jet": ["jet", "--alpha", "1", "--beta", "0.5", "--c", "4"],
}


def test_tolerance_comes_from_flag_then_file_and_must_be_positive(capsys, tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tolerance = 1e-3\n")
    checking = ("verify", "random", "jet")  # the commands that read it, and report it in config
    for name in checking:
        argv = LEAF_ARGVS[name] + ["--deterministic"]
        code, rep = _report(capsys, argv + ["--config", str(cfg)])
        assert code == 0
        assert rep["config"]["tolerance"] == 1e-3
        code, rep = _report(capsys, argv + ["--config", str(cfg), "--tolerance", "1e-6"])
        assert rep["config"]["tolerance"] == 1e-6
    bad = tmp_path / "bad.cfg"
    bad.write_text("tolerance = -1.0\n")
    # each of them refuses a tolerance that is not positive while parsing, flag or file
    for name in checking:
        for extra, raw in ((["--tolerance", "0"], "0"), (["--tolerance", "-1.0"], "-1.0"),
                           (["--config", str(bad)], "-1.0")):
            code = run(LEAF_ARGVS[name] + extra)
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err == f"error: argument --tolerance: must be positive and finite, got {raw!r}\n"
    # catalog and oracle riccati have no tolerance to set, from a flag or a file
    for name in ("catalog", "oracle riccati"):
        assert run(LEAF_ARGVS[name] + ["--tolerance", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --tolerance 0.5\n")
        assert run(LEAF_ARGVS[name] + ["--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"error: unknown {name.split()[0]} keys in {cfg}: tolerance\n")


@pytest.mark.parametrize("line", [" = 3", "=", "seed 3"])
def test_config_refuses_a_line_without_a_key(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n" + line + "\n")
    assert run(["jet", "--alpha", "1", "--beta", "1", "--c", "4", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}:2: expected key = value\n")


def test_each_leaf_has_exactly_its_options():
    # an option a command accepts but never reads shows up here
    common = ["config", "deterministic", "format", "out"]
    want = {
        "catalog": common,
        "oracle riccati": sorted(common + ["kappa", "lambda0", "r", "r0", "step"]),
        "verify": sorted(common + ["ambient", "c", "checks", "emit_structure", "family",
                                   "flip_normal", "k", "n", "radius", "samples", "seed",
                                   "tolerance"]),
        "random": sorted(common + ["dim", "property", "samples", "seed", "tolerance"]),
        "jet": sorted(common + ["alpha", "beta", "c", "kappa3", "tolerance"]),
    }
    got = {leaf.prog.split(maxsplit=1)[1]: sorted(a.dest for a in leaf._actions if a.dest != "help")
           for leaf in _leaf_parsers(cli.build_parser())}
    assert got == want


def test_usage_errors_exit_two(capsys):
    assert run(["verify"]) == 2  # missing required arguments
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("error, code", [
    (OracleMismatchError, 1), (FocalPointError, 1),
    (CatalogError, 2), (JetError, 2), (StructuralError, 2), (DegenerateSeedError, 2),
    (NotHopfError, 2), (MissingNablaAError, 2), (OSError, 2), (ValueError, 2)])
def test_run_maps_each_error_class_to_its_exit_code(capsys, monkeypatch, error, code):
    # exit 1 means a check failed; every input or configuration error exits 2
    def command(args):
        raise error("bad input")

    monkeypatch.setitem(entry._COMMANDS, "catalog", command)
    assert run(["catalog"]) == code
    assert capsys.readouterr().err == "error: bad input\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--ambient", "CP", "--n", "3", "--family", "A2", "--k", "1",
     "--radius", "0.8", "--tolerance", "inf"],
    ["oracle", "riccati", "--kappa", "nan", "--r", "1"],
    ["jet", "--alpha", "nan", "--beta", "1", "--c", "4"],
    ["verify", "--ambient", "CH", "--n", "3", "--family", "A1", "--radius", "inf"],
    ["jet", "--alpha", "1e-200", "--beta", "1", "--c", "4"],  # alpha**2 underflows
    ["jet", "--alpha", "1", "--beta", "1e200", "--c", "4"],  # beta**2 overflows
    ["jet", "--alpha", "1e100", "--beta", "1", "--c", "4"],  # alpha**4 overflows
])
def test_non_finite_flags_are_usage_errors(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_subnormal_c_reaches_the_oracle_without_a_traceback(capsys):
    # the oracle's curvatures are 4 sgn(c) and sgn(c) in units of 1/s, never c / s^2,
    # which at |c| = 5e-324 divided by s^2 = 0
    code, rep = _report(capsys, ["verify", "--ambient", "CH", "--n", "2", "--family", "A0",
                                 "--c", "-5e-324"])
    assert code == 0 and rep["config"]["c"] == -5e-324
    assert rep["spectral"]["oracle_deviation"] <= 1e-6
    # the anchor s r0 = 0.01 lies past s r, so the flow runs into the tube's core
    code = run(["verify", "--ambient", "CP", "--n", "3", "--family", "A1", "--radius", "0.5",
                "--c", "5e-324"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: shape curvature passed a focal point") and err.count("\n") == 1


@pytest.mark.parametrize("argv, key, value", [
    (["jet", "--alpha", "-1e50", "--beta", "1", "--c", "4"], "alpha", -1e50),
    (["jet", "--alpha", "-2.0", "--beta", "0.5", "--c", "-4e0"], "c", -4.0),
    (["jet", "--alpha", "-1.5E-3", "--beta", "0.5", "--c", "4"], "alpha", -1.5e-3),
    (["jet", "--alpha=-1e50", "--beta", "1", "--c", "4"], "alpha", -1e50),
    (["verify", "--ambient", "CH", "--n", "3", "--family", "A1", "--radius", "0.9",
      "--c", "-4e0"], "c", -4.0),
    (["verify", "--ambient", "CH", "--n", "3", "--family", "A1", "--radius", "0.9",
      "--c", "-4.0"], "c", -4.0),
    (["oracle", "riccati", "--kappa", "-1.5E-3", "--r", "1"], "kappa", -1.5e-3),
])
def test_negative_floats_in_exponent_form_are_values(capsys, argv, key, value):
    code, rep = _report(capsys, argv + ["--deterministic"])
    assert code == 0
    assert rep["config"][key] == value


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for a in subs for p in a.choices.values() for leaf in _leaf_parsers(p)]


@pytest.mark.parametrize("spelling", ["-1e50", "-4e0", "-1.5E-3"])
def test_every_float_option_takes_a_negative_exponent(spelling):
    checked = []
    for leaf in _leaf_parsers(cli.build_parser()):
        for action in leaf._actions:
            if action.type is entry._finite:
                args = leaf.parse_args([action.option_strings[0], spelling])
                assert getattr(args, action.dest) == float(spelling)
                checked.append(action.dest)
            elif action.type is entry._tolerance:  # a value, refused as not positive
                with pytest.raises(ValueError, match="must be positive and finite"):
                    leaf.parse_args([action.option_strings[0], spelling])
                checked.append(action.dest)
    # --tolerance on verify, random and jet, verify's two, riccati's five, jet's four
    assert len(checked) == 14


@pytest.mark.parametrize("spelling", ["-inf", "-infinity", "-nan", "-INF", "-Infinity", "-NaN"])
def test_every_float_option_refuses_a_negative_non_finite_value(spelling):
    # a negative non-finite spelling is a value that _finite refuses, not a
    # missing argument followed by an unknown option
    checked = []
    for leaf in _leaf_parsers(cli.build_parser()):
        for action in leaf._actions:
            if action.type in (entry._finite, entry._tolerance):
                with pytest.raises(ValueError) as err:
                    leaf.parse_args([action.option_strings[0], spelling])
                assert str(err.value) == (f"argument {action.option_strings[0]}: "
                                          f"must be finite, got {spelling!r}")
                checked.append(action.dest)
    assert len(checked) == 14


@pytest.mark.parametrize("argv, flag, spelling", [
    (["jet", "--alpha", "-inf", "--beta", "1", "--c", "4"], "--alpha", "-inf"),
    (["jet", "--alpha", "-nan", "--beta", "1", "--c", "4"], "--alpha", "-nan"),
    (["random", "--tolerance", "-nan"], "--tolerance", "-nan"),
])
def test_negative_non_finite_flags_name_the_value(capsys, argv, flag, spelling):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: argument {flag}: must be finite, got {spelling!r}\n"


@pytest.mark.parametrize("argv", [
    ["oracle", "riccati", "--kappa", "1", "--r", "1e300", "--step", "1e-10"],
    ["oracle", "riccati", "--kappa", "1", "--r", "2", "--step", "1e-300"],
    ["verify", "--ambient", "CH", "--n", "3", "--family", "A1", "--radius", "1e300"],
])
def test_oracle_step_cap_refuses_before_integrating(capsys, argv):
    start = time.perf_counter()
    code = run(argv)
    took = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap" in err
    assert took < 1.0  # refused up front: integrating even the capped step count takes seconds


@pytest.mark.parametrize("argv, names", [
    (["oracle", "riccati", "--kappa", "1", "--r", "1", "--r0", "1e200"], "--r0 1e+200"),
    (["oracle", "riccati", "--kappa", "1e300", "--r", "1"], "--kappa 1e+300"),
])
def test_overflowing_default_anchor_is_usage_error(capsys, argv, names):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err and "--lambda0" in err


def test_overflowing_jet_value_names_its_key(capsys):
    code = run(["jet", "--alpha", "1", "--beta", "1e40", "--c", "1e-300"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: jet value dalpha_phiW2 = ") and err.count("\n") == 1
    assert "non-finite value in report" not in err


class _Built(Exception):
    """Raised where a command would start building arrays."""


def _refuse_building(monkeypatch):
    def built(*args, **kwargs):
        raise _Built
    monkeypatch.setattr(cli, "instantiate", built)
    monkeypatch.setattr(cli, "_run_property", built)


_VERIFY = ["verify", "--ambient", "CP", "--family", "A1", "--radius", "0.3"]


@pytest.mark.parametrize("argv", [
    _VERIFY + ["--n", str(cli.MAX_VERIFY_N + 1)],
    _VERIFY + ["--n", "3", "--samples", str(cli.MAX_SAMPLES + 1)],
    ["random", "--dim", str(cli.MAX_RANDOM_DIM + 1)],
    ["random", "--dim", str(cli.MAX_RANDOM_DIM + 2)],  # the first odd dim past the cap
    ["random", "--samples", str(cli.MAX_SAMPLES + 1)],
    # each option within its cap, their work past MAX_RANDOM_WORK
    ["random", "--dim", str(cli.MAX_RANDOM_DIM), "--samples", str(cli.MAX_SAMPLES)],
    ["random", "--dim", str(cli.MAX_RANDOM_DIM),
     "--samples", str(cli.MAX_RANDOM_WORK // cli.MAX_RANDOM_DIM ** 3 + 1)],
])
def test_size_caps_refuse_before_building(capsys, monkeypatch, argv):
    _refuse_building(monkeypatch)
    start = time.perf_counter()
    code = run(argv)
    took = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be in [" in err
    assert took < 1.0


@pytest.mark.parametrize("argv", [
    _VERIFY + ["--n", str(cli.MAX_VERIFY_N), "--samples", str(cli.MAX_SAMPLES)],
    ["random", "--dim", str(cli.MAX_RANDOM_DIM),
     "--samples", str(cli.MAX_RANDOM_WORK // cli.MAX_RANDOM_DIM ** 3)],
    ["random", "--dim", str(cli.MAX_RANDOM_DIM), "--samples", "1"],
    ["random"],  # the defaults, dim 5 and 1000 samples
    ["random", "--dim", "41", "--samples", "6"],  # the benchmark's largest random op
    ["random", "--dim", "5", "--samples", str(cli.MAX_SAMPLES)],
])
def test_size_caps_admit_the_cap(monkeypatch, argv):
    _refuse_building(monkeypatch)
    with pytest.raises(_Built):
        run(argv)


@pytest.mark.parametrize("argv", [
    ["verify", "--ambient", "CH", "--n", "3", "--family", "B", "--radius", "0.7"],
    ["verify", "--ambient", "CP", "--n", "3", "--family", "A2", "--k", "1",
     "--radius", "0.8"],
    ["random", "--dim", "5", "--samples", "10", "--tolerance", "1e-15"],
    ["jet", "--alpha", "0.7", "--beta", "0.9", "--c", "4", "--kappa3", "0.3"],
])
def test_every_row_has_the_record_key_order_and_pass_rule(capsys, argv):
    _, rep = _report(capsys, argv + ["--deterministic"])
    assert rep["checks"]
    for row in rep["checks"]:
        keys = list(row)
        assert keys[:5] == ["check", "subspace", "residual", "tolerance", "pass"]
        assert keys[-1] == "expected"
        assert set(keys[5:-1]) <= {"alpha", "mu", "mu_spread"}
        assert row["pass"] == (row["residual"] <= row["tolerance"])


def test_module_entry_point_smoke(child_env):
    proc = subprocess.run([sys.executable, "-m", "hyperlab", "catalog",
                           "--deterministic"],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["schema"] == "hyperlab/1"


def test_canonical_json_formatting():
    blob = to_canonical_json({"b": 0.1, "a": True, "n": 3,
                              "nested": {"x": [1.0, 2.5]}})
    assert '"b": 0.10000000000000001' in blob
    assert '"a": true' in blob
    parsed = json.loads(blob)
    assert parsed["nested"]["x"] == [1.0, 2.5]
    with pytest.raises(ValueError):
        to_canonical_json({"bad": float("nan")})


@pytest.mark.parametrize("value, text", [
    (np.float64(0.1), "0.10000000000000001"),
    (np.int64(3), "3"),
    (True, "true"),
    (None, "null"),
    ({"a": [1, {"b": None, "c": "x\"y"}], "d": (), "e": {}, "f": [2.5, False]},
     '{\n  "a": [\n    1,\n    {\n      "b": null,\n      "c": "x\\"y"\n    }\n  ],\n'
     '  "d": [],\n  "e": {},\n  "f": [\n    2.5,\n    false\n  ]\n}'),
])
def test_canonical_json_of_numpy_scalars_and_nested_blocks(value, text):
    assert to_canonical_json(value) == text


def test_markdown_renderer_handles_report_blocks():
    report = {"schema": "hyperlab/1", "version": "0", "command": "verify",
              "config": {"n": 2}, "checks": [
                  {"check": "x", "subspace": "all", "residual": 0.0,
                   "tolerance": 1e-9, "pass": True, "expected": True}],
              "summary": {"rows": 1, "unexpected": 0, "all_ok": True}}
    text = to_markdown(report)
    assert text.startswith("# ")
    assert "| x |" in text
