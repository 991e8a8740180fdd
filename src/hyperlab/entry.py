"""Command-line front door with bit-stable JSON and markdown reports.

Subcommands: catalog (model listing), verify (run every condition check on
one catalog model), random (property sweeps on randomized structures),
oracle riccati (query the radial integrator), jet (scalar residual rows for
a tilted local jet).  Reports carry a versioned schema key; floats are
printed with 17 significant digits so parsing them back is exact.  With
--deterministic the timestamp is omitted and identical configs produce
byte-identical output.

Exit codes: 0 every check row matched its expectation, 1 at least one row
did not (or the oracle hit a focal point), 2 usage or configuration error.
Negative-control rows (family B) carry "expected": false, so a B run that
fails exactly where it must still exits 0.

This module loads no numpy: catalog, oracle riccati and jet run on floats,
and run() imports hyperlab.cli, the array engine, only for verify and random.
It loads hyperlab.lemma_lab only for jet, and datetime only for a timestamp.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import re
import sys

from . import __version__
from .checks import CONTROL_FAILS, DEFAULT_TOL, ConditionReport
from .model_catalog import (AMBIENTS, DEFAULT_STEP, FAMILIES, FocalPointError,
                            OracleMismatchError, catalog_rows, riccati_shape_evolution)

SCHEMA = "hyperlab/1"
# the order fixes each property's seed offset in hyperlab.cli
RANDOM_PROPERTIES = ("acs-axioms", "gauss-symmetry", "hopf-commutator",
                     "jacobi-cross-check", "phi-skew")


# ---------------------------------------------------------------- emitters

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return f"{x:.17g}"


def to_canonical_json(value) -> str:
    """Hand-rolled JSON with %.17g floats; dict order is emission order."""
    out: list[str] = []
    _emit_json(value, "", out)
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii  # exactly json.dumps(str)


def _emit_json(value, pad: str, out: list[str]) -> None:
    """Append value's JSON to out, in one pass over the tree."""
    if type(value) is float:  # builtins first; only numpy scalars reach the numbers ABCs
        out.append(_fmt(value))
    elif type(value) is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{\n"
        for k, v in value.items():
            out += (sep, inner, _quote(str(k)), ": ")
            _emit_json(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "[\n"
        for v in value:
            out += (sep, inner)
            _emit_json(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}]" if len(value) else "[]")
    elif isinstance(value, numbers.Integral):
        out.append(str(int(value)))
    elif isinstance(value, numbers.Real):
        out.append(_fmt(float(value)))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _md_scalar(v) -> str:
    return v if isinstance(v, str) else to_canonical_json(v)


def _md_block(value, indent: int, lines: list[str]):
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and len(v):
                lines.append(f"{pad}- {k}:")
                _md_block(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {k}: {_md_scalar(v)}")
    else:
        for v in value:
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _md_block(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_md_scalar(v)}")


def _md_table(rows: list[dict], lines: list[str]):
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("|" + "|".join(" --- " for _ in cols) + "|")
    for row in rows:  # a | inside a cell is escaped, or it would split the cell
        lines.append("| " + " | ".join(
            (_md_scalar(row[k]) if k in row else "").replace("|", "\\|") for k in cols) + " |")


def to_markdown(report: dict) -> str:
    lines = [f"# hyperlab report: {report['command']}", ""]
    for key in ("schema", "version", "timestamp"):
        if key in report:
            lines.append(f"- {key}: {report[key]}")
    lines.append("")
    for key, value in report.items():
        if key in ("schema", "version", "timestamp", "command"):
            continue
        if isinstance(value, (dict, list)) and value:  # an empty one is a scalar: `- key: []`
            if lines[-1]:
                lines.append("")
            lines += [f"## {key}", ""]
            if isinstance(value, list) and all(isinstance(r, dict) for r in value):
                _md_table(value, lines)
            else:
                _md_block(value, 0, lines)
            lines.append("")
        else:
            lines.append(f"- {key}: {_md_scalar(value)}")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


# ------------------------------------------------------------ config layer

# Namespace entries a file must not set: the parser's own, and config, read only from argv.
_PARSER_KEYS = ("command", "oracle_command", "config")


def _as_bool(raw: str, key: str, path: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key} = {raw!r} in {path} is not a boolean")


def _finite(raw: str) -> float:
    """The type of every float option, from a flag or from a config file."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    """The type of --tolerance: a finite value above zero."""
    value = _finite(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    """The type of --seed: numpy's generators take only non-negative integers."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return value


def load_config(path: str) -> dict[str, str]:
    """Flat `key = value` UTF-8 file, a leading byte-order mark dropped; blank lines
    and # comments skipped, an empty or repeated key refused."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, raw = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = raw
    return out


def _required(args: argparse.Namespace, *keys: str):
    for key in keys:
        if getattr(args, key) is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which run() reports on one line, and
    reads -1e50, -inf and -nan as values, as argparse reads -1.5 (its pattern has
    neither an exponent nor the non-finite spellings, which _finite then refuses)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """A fresh hyperlab parser."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "markdown"), default="json")
    common.add_argument("--out", help="write the report to a file")
    common.add_argument("--config", help="flat key = value defaults file")
    common.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp for byte-identical reports")
    checking = _Parser(add_help=False)  # for the commands that test residuals against it
    checking.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL,
                          help=f"check tolerance (default {DEFAULT_TOL:g})")

    parser = _Parser(
        prog="hyperlab",
        description="verification engine for real hypersurfaces in complex space forms")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common], help="list the model catalog")

    ver = sub.add_parser("verify", parents=[common, checking],
                         help="run condition checks on one catalog model")
    ver.add_argument("--ambient", choices=AMBIENTS)
    ver.add_argument("--n", type=int, help="complex dimension, >= 2")
    ver.add_argument("--family", choices=FAMILIES)
    ver.add_argument("--c", type=_finite, help="holomorphic curvature (default +4 CP / -4 CH)")
    ver.add_argument("--radius", type=_finite)
    ver.add_argument("--k", type=int, help="core complex dimension")
    ver.add_argument("--flip-normal", dest="flip_normal", action="store_true")
    ver.add_argument("--seed", type=_seed, default=0, help="frame seed (default 0)")
    ver.add_argument("--samples", type=int, default=25,
                     help="sampled pairs for the codazzi row (default 25)")
    ver.add_argument("--checks", default="all", help="comma-separated row names, or 'all'")
    ver.add_argument("--emit-structure", dest="emit_structure", action="store_true",
                     help="embed the realized tensors in the report")

    rnd = sub.add_parser("random", parents=[common, checking],
                         help="property sweeps over randomized structures")
    rnd.add_argument("--dim", type=int, default=5, help="odd tangent dimension >= 3")
    rnd.add_argument("--samples", type=int, default=1000, help="default 1000")
    rnd.add_argument("--seed", type=_seed, default=0, help="default 0")
    rnd.add_argument("--property", default="all", choices=RANDOM_PROPERTIES + ("all",))

    orc = sub.add_parser("oracle", help="numerical oracles")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    ric = orc_sub.add_parser("riccati", parents=[common],
                             help="integrate the radial shape equation")
    ric.add_argument("--kappa", type=_finite, help="normal curvature of the branch (c or c/4)")
    ric.add_argument("--r", type=_finite, help="target radius")
    ric.add_argument("--r0", type=_finite, default=0.01, help="anchor radius (default 0.01)")
    ric.add_argument("--lambda0", type=_finite,
                     help="anchor value (default: tube asymptote at r0)")
    ric.add_argument("--step", type=_finite, default=DEFAULT_STEP,
                     help=f"integration step (default {DEFAULT_STEP:g})")

    jet = sub.add_parser("jet", parents=[common, checking],
                         help="scalar residual rows for a tilted local jet")
    jet.add_argument("--alpha", type=_finite)
    jet.add_argument("--beta", type=_finite)
    jet.add_argument("--c", type=_finite)
    jet.add_argument("--kappa3", type=_finite, default=0.0)
    return parser


# the parser every run() in a process reuses, built on first use; nothing changes it
_shared_parser = functools.cache(build_parser)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv; with --config, the file's values are parsed as flags given first.

    Each file value becomes `--key=raw` (a switch, an option the first parse
    read as a bool, is read with _as_bool: the bare flag when true, nothing
    when false) between the subcommand words and the user's flags, so it passes
    the same type, finiteness and choices checks as a flag, and a flag, read
    later, still wins.  A file key must be an option of the subcommand other
    than config, or for jet a raw jet key, set on the namespace as read.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _shared_parser().parse_args(argv)
    if args.config is not None:
        config = load_config(args.config)
        options = set(vars(args)).difference(_PARSER_KEYS)
        known = options
        if args.command == "jet":
            from .lemma_lab import _MAPPING_KEYS
            known = options | set(_MAPPING_KEYS)
        unknown = sorted(set(config) - known)
        if unknown:
            raise ValueError(f"unknown {args.command} keys in {args.config}: {', '.join(unknown)}")
        switches = {key for key in options if isinstance(getattr(args, key), bool)}
        flags = [f"--{key.replace('_', '-')}" + ("" if key in switches else f"={raw}")
                 for key, raw in config.items()
                 if key in options and (key not in switches or _as_bool(raw, key, args.config))]
        head = 2 if args.command == "oracle" else 1
        args = _shared_parser().parse_args(argv[:head] + flags + argv[head:])
        vars(args).update({key: raw for key, raw in config.items() if key not in options})
    return args


# ------------------------------------------------------------- assembly

def _skeleton(command: str, config: dict, args: argparse.Namespace) -> dict:
    """The report head; format and deterministic close every command's config."""
    config.update(format=args.format, deterministic=args.deterministic)
    return {"schema": SCHEMA, "version": __version__, "command": command,
            "config": config}


def _finalize(report: dict, reports: list[ConditionReport], args: argparse.Namespace,
              control: bool = False) -> int:
    """Serialise the check rows sorted by (check, subspace); on a negative control
    a row expected to fail is one whose (check, subspace) is in CONTROL_FAILS."""
    rows = [{**rep.to_jsonable(), "expected": not (control and (rep.name, rep.subspace)
                                                   in CONTROL_FAILS)}
            for rep in sorted(reports, key=lambda r: (r.name, r.subspace))]
    report["checks"] = rows
    unexpected = sum(1 for r in rows if r["pass"] != r["expected"])
    report["summary"] = {"rows": len(rows), "unexpected": unexpected,
                         "all_ok": unexpected == 0}
    if not args.deterministic:
        from datetime import datetime, timezone
        report["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return 0 if unexpected == 0 else 1


def _emit(report: dict, args: argparse.Namespace):
    text = (to_canonical_json(report) if args.format == "json"
            else to_markdown(report)) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- commands

def cmd_catalog(args: argparse.Namespace) -> tuple[dict, int]:
    report = _skeleton("catalog", {}, args)
    report["catalog"] = catalog_rows()
    return report, _finalize(report, [], args)


def _default_anchor(kappa: float, r0: float) -> float:
    """Small-radius tube asymptote: 1/r - kappa r/3 - kappa^2 r^3/45."""
    try:
        value = 1.0 / r0 - kappa * r0 / 3.0 - kappa * kappa * r0 ** 3 / 45.0
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"the default anchor 1/r0 - kappa r0/3 - kappa^2 r0^3/45 is not finite "
                         f"at --kappa {kappa!r}, --r0 {r0!r}; give --lambda0")
    return value


def cmd_oracle_riccati(args: argparse.Namespace) -> tuple[dict, int]:
    _required(args, "kappa", "r")
    kappa, r, r0, step = args.kappa, args.r, args.r0, args.step
    lambda0 = args.lambda0
    if lambda0 is None:
        lambda0 = _default_anchor(kappa, r0)
    config = {"kappa": kappa, "r": r, "r0": r0, "lambda0": lambda0, "step": step}
    report = _skeleton("oracle riccati", config, args)
    try:
        value = riccati_shape_evolution(kappa, r, (r0, lambda0), step=step)
    except FocalPointError as exc:
        report["oracle"] = {"error": str(exc)}
        _finalize(report, [], args)
        report["summary"]["all_ok"] = False
        return report, 1
    report["oracle"] = {"value": value}
    return report, _finalize(report, [], args)


def cmd_jet(args: argparse.Namespace) -> tuple[dict, int]:
    """The self-consistent jet, or the jet a config file's raw jet keys describe."""
    from .lemma_lab import (_MAPPING_KEYS, consistent_jet, contradiction_certificate,
                            jet_from_mapping, jet_residuals)

    _required(args, "alpha", "beta", "c")
    alpha, beta, c, kappa3, tol = args.alpha, args.beta, args.c, args.kappa3, args.tolerance
    mapping = {key: value for key, value in vars(args).items() if key in _MAPPING_KEYS}
    if set(mapping) - {"alpha", "beta", "c", "kappa3"}:
        jet = jet_from_mapping(mapping)
    else:
        jet = consistent_jet(alpha, beta, c, kappa3=kappa3)
    config = {"alpha": alpha, "beta": beta, "c": c, "kappa3": kappa3, "tolerance": tol}
    report = _skeleton("jet", config, args)
    report["jet"] = jet.to_jsonable()
    report["certificate"] = contradiction_certificate(
        c, alpha, beta, w1_norm_sq=jet.w1_norm_sq).to_jsonable()
    return report, _finalize(report, jet_residuals(jet, tol), args)


# ------------------------------------------------------------- entry points

_COMMANDS = {"catalog": cmd_catalog, "oracle": cmd_oracle_riccati, "jet": cmd_jet}


def run(argv: list[str] | None = None) -> int:
    """Exit 1 only where a check failed; every error class a command raises
    for bad input or configuration is a ValueError (or an OSError), and verify
    and random without numpy raise ModuleNotFoundError: exit 2."""
    try:
        args = _parse(argv)
        if args.command in _COMMANDS:
            command = _COMMANDS[args.command]
        else:  # verify and random: the array engine, numpy with it
            from . import cli
            command = getattr(cli, f"cmd_{args.command}")
        report, code = command(args)
        _emit(report, args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except (OracleMismatchError, FocalPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModuleNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    raise SystemExit(run())
