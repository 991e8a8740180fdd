"""Property: any argv of the checking commands ends in exit 0, 1 or 2.

Hypothesis draws argvs for verify, random, jet and oracle riccati.  Each
option is left out, given a working value, or given an extreme or malformed
one.  No argv may end in a traceback, and a usage error (exit 2) prints
exactly one stderr line.  The working values keep every admitted run small
(n <= 3, dim <= 7, short integrations), so the property stays well under 10 s.
"""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperlab.cli import run  # noqa: E402

FLOATS = ("0", "-0", "-1", "1e-320", "5e-324", "1e50", "-1e50", "1e308", "-1e308",
          "1e400", "nan", "-nan", "inf", "-inf", "x", "", "1e", "--")
INTS = ("-1", "0", "1.5", "x", "", "99999999999999999999", "-99999999999999999999")

# option -> (working values, extreme or malformed values, required); None is a switch
COMMON = {"--format": (("json", "markdown"), ("xml",), False),
          "--deterministic": None}
TOLERANCE = {"--tolerance": (("1e-9", "1e-6"), FLOATS, False)}  # verify, random and jet only
COMMANDS = {
    ("verify",): {
        "--ambient": (("CP", "CH"), ("XX", ""), True),
        "--n": (("2", "3"), ("241",) + INTS, True),
        "--family": (("A0", "A1", "A2", "B"), ("Z",), True),
        "--radius": (("0.3", "0.8", "1.3"), FLOATS, True),
        "--k": (("0", "1", "2"), INTS, False),
        "--c": (("4", "-4", "1"), FLOATS, False),
        "--seed": (("0", "7"), INTS, False),
        # given but 1 time in 16: the default of 1000 samples takes about 0.15 s
        "--samples": (("1", "3"), ("10001",) + INTS, True),
        "--checks": (("all", "codazzi", "structure-axioms,theorem-verdict"),
                     (",", "", "nope"), False),
        "--flip-normal": None, "--emit-structure": None, **TOLERANCE},
    ("random",): {
        # given but 1 time in 16: the default of 1000 samples takes about 0.15 s
        "--samples": (("1", "3"), ("10001",) + INTS, True),
        "--dim": (("3", "5", "7"), ("4", "480") + INTS, False),
        "--seed": (("0", "5"), INTS, False),
        "--property": (("all", "phi-skew", "gauss-symmetry"), ("nope",), False), **TOLERANCE},
    ("jet",): {
        "--alpha": (("2", "-0.7", "1"), FLOATS, True),
        "--beta": (("0.5", "0.9", "2"), FLOATS, True),
        "--c": (("4", "-4", "12"), FLOATS, True),
        "--kappa3": (("0", "0.3", "3"), FLOATS, False), **TOLERANCE},
    ("oracle", "riccati"): {
        "--kappa": (("4", "-4", "1"), FLOATS, True),
        "--r": (("0.5", "1", "1.6"), FLOATS, True),
        "--r0": (("0.01", "0.1"), FLOATS, False),
        "--lambda0": (("10", "100"), FLOATS, False),
        "--step": (("0.01", "0.001"), FLOATS, False)},
}


@st.composite
def argvs(draw):
    prefix = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(prefix)
    for flag, spec in {**COMMANDS[prefix], **COMMON}.items():
        if spec is None:
            argv += [flag] * draw(st.booleans())
            continue
        good, bad, required = spec
        # a required option is left out 1 time in 16, an optional one 5 times in 8;
        # a given value is extreme or malformed 1 time in 8
        if draw(st.integers(0, 15)) < (1 if required else 10):
            continue
        pool = bad if draw(st.integers(0, 7)) == 0 else good
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
