"""Golden reports: deterministic CLI output compared byte for byte.

Each case is an argv and its expected exit code; the expected stdout lives
in tests/golden/<name>.json, or <name>.md for a `--format markdown` case.  A speed-up or refactor must leave these
bytes alone; a change that alters a report on purpose regenerates the
cases it meant to change with `PYTHONPATH=src python tests/test_golden.py
NAME ...` (no NAME: every case), which prints what moved in each changed case,
and explains the diff.
"""
import contextlib
import difflib
import io
import json
import os
import pathlib
import sys

if __name__ == "__main__":  # regeneration skips conftest.py: pin OpenBLAS as it does
    assert "numpy" not in sys.modules, "numpy was imported before the OpenBLAS thread pin"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest

from hyperlab.cli import run
from test_acceptance import CATALOG

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")


def _verify_argv(spec) -> list[str]:
    argv = ["verify", "--ambient", spec.ambient, "--n", str(spec.n),
            "--family", spec.family]
    if spec.radius is not None:
        argv += ["--radius", repr(spec.radius)]
    if spec.k is not None:
        argv += ["--k", str(spec.k)]
    if spec.flip_normal:
        argv.append("--flip-normal")
    return argv + ["--deterministic"]


def _verify_name(spec) -> str:
    parts = ["verify", spec.ambient, f"n{spec.n}", spec.family]
    if spec.k is not None:
        parts.append(f"k{spec.k}")
    if spec.radius is not None:
        parts.append(f"r{spec.radius!r}")
    if spec.flip_normal:
        parts.append("flip")
    return "-".join(parts)


CASES = {_verify_name(spec): (_verify_argv(spec), 0) for spec in CATALOG}
CASES.update({
    "verify-CP-n60-A2-k5-r0.4": (["verify", "--ambient", "CP", "--n", "60",
                                  "--family", "A2", "--k", "5", "--radius", "0.4",
                                  "--deterministic"], 0),
    # the negative control at a BLAS-blocked size: its commutators are O(1), not rounding noise
    "verify-CH-n40-B-r0.7": (["verify", "--ambient", "CH", "--n", "40", "--family", "B",
                              "--radius", "0.7", "--deterministic"], 0),
    "verify-CP-n5-B-r0.5": (["verify", "--ambient", "CP", "--n", "5", "--family", "B",
                             "--radius", "0.5", "--deterministic"], 0),
    "verify-CH-n5-A2-k2-r0.8": (["verify", "--ambient", "CH", "--n", "5", "--family", "A2",
                                 "--k", "2", "--radius", "0.8", "--deterministic"], 0),
    # past the radii where the oracle's iterates settle: s r = 7.15 (alpha), 13.77 and 13.95
    "verify-CH-n3-A2-k1-r16": (["verify", "--ambient", "CH", "--n", "3", "--family", "A2",
                                "--k", "1", "--radius", "16", "--deterministic"], 0),
    "verify-CH-n3-B-r9": (["verify", "--ambient", "CH", "--n", "3", "--family", "B",
                           "--radius", "9", "--deterministic"], 0),
    "catalog": (["catalog", "--deterministic"], 0),
    "jet-alpha2-beta0.5-c4": (["jet", "--alpha", "2.0", "--beta", "0.5", "--c", "4.0",
                               "--deterministic"], 0),
    "oracle-riccati-value": (["oracle", "riccati", "--kappa", "1.0", "--r", "0.8",
                              "--deterministic"], 0),
    "oracle-riccati-focal": (["oracle", "riccati", "--kappa", "4.0", "--r", "1.6",
                              "--deterministic"], 1),
    "random-dim5-s50-seed3": (["random", "--dim", "5", "--samples", "50", "--seed", "3",
                               "--deterministic"], 0),
    # the benchmark's largest random shape: its stacks take other BLAS paths than dim 5's
    "random-dim41-s6-seed3": (["random", "--dim", "41", "--samples", "6", "--seed", "3",
                               "--deterministic"], 0),
    "verify-CP-n4-A2-k2-r0.6-checks": (
        ["verify", "--ambient", "CP", "--n", "4", "--family", "A2", "--k", "2",
         "--radius", "0.6", "--checks",
         "phi-l-commute,l-A-commute,nabla-xi-l,mu-vanishes,theorem-verdict",
         "--deterministic"], 0),
    "verify-CP-n4-A2-k2-r0.6-markdown": (
        ["verify", "--ambient", "CP", "--n", "4", "--family", "A2", "--k", "2",
         "--radius", "0.6", "--format", "markdown", "--deterministic"], 0),
})


def _golden_path(name: str) -> pathlib.Path:
    argv = CASES[name][0]
    markdown = "--format" in argv and argv[argv.index("--format") + 1] == "markdown"
    return GOLDEN_DIR / f"{name}.{'md' if markdown else 'json'}"


def _render(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    argv, expected_code = CASES[name]
    code, text = _render(argv)
    assert code == expected_code
    path = _golden_path(name)
    old = path.read_bytes()
    if text.encode("utf-8") != old:  # name what moved, as regeneration prints it
        moved = _changed_lines(path, old.decode("utf-8"), text) or ["  (no value moved)"]
        pytest.fail("\n".join([f"{path.name} changed:", *moved]), pytrace=False)


def test_the_golden_directory_holds_exactly_the_cases():
    # a file that no case renders would never be compared
    assert {path.name for path in GOLDEN_DIR.iterdir()} == {_golden_path(n).name for n in CASES}


_ABSENT = "(absent)"


def _json_changes(old, new, path: str = "$"):
    """(path, old, new) for each leaf where two reports differ, floats as their text;
    a check row's index is followed by its check and subspace."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from _json_changes(old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            row = f" {b['check']}/{b['subspace']}" if isinstance(b, dict) and "check" in b else ""
            yield from _json_changes(a, b, f"{path}[{i}{row}]")
    elif old != new:
        yield path, old, new


def _changed_lines(path: pathlib.Path, old: str, new: str) -> list[str]:
    """What moved from old to new: JSON paths (old -> new) for .json, -/+ lines for .md."""
    if path.suffix == ".json":
        parse = lambda text: json.loads(text, parse_float=str)
        return [f"  {where}: {a} -> {b}" for where, a, b in _json_changes(parse(old), parse(new))]
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
    return [f"  {line}" for line in diff
            if line.startswith(("-", "+")) and not line.startswith(("---", "+++"))]


def test_regeneration_names_what_moved():
    row = '{"check": "codazzi", "subspace": "all", "residual": %s}'
    old = '{"theorem": {"alpha": 1.0, "norm": 1.5e-16}, "checks": [[0], %s]}' % (row % 2)
    new = '{"theorem": {"alpha": 1.0, "norm": 2e-16}, "checks": [[0], %s], "x": 1}' % (row % 3)
    assert _changed_lines(pathlib.Path("a.json"), old, new) == [
        "  $.theorem.norm: 1.5e-16 -> 2e-16", "  $.checks[1 codazzi/all].residual: 2 -> 3",
        "  $.x: (absent) -> 1"]
    assert _changed_lines(pathlib.Path("a.md"), "# t\n- a: 1\n- b: 2", "# t\n- a: 1\n- b: 3") == [
        "  -- b: 2", "  +- b: 3"]


def regenerate(names: list[str]) -> None:
    """Rewrite the named golden files, printing changed (with what moved) or unchanged for each."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        argv, expected_code = CASES[name]
        code, text = _render(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        path = _golden_path(name)
        data = text.encode("utf-8")
        old = path.read_bytes() if path.exists() else None
        if old == data:
            print(f"unchanged {path.name}")
            continue
        path.write_bytes(data)
        print(f"{'new' if old is None else 'changed'} {path.name}")
        for line in [] if old is None else _changed_lines(path, old.decode("utf-8"), text):
            print(line)


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(CASES))
