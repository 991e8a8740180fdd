"""Seeded op streams for the four benchmark workloads, and the per-op gate.

An op is one CLI invocation.  Every stream is a pure function of the seed:
categories are visited in a reshuffled cycle, and each continuous parameter
of a category walks a Weyl sequence from a seeded offset.  That keeps the
mix of a 25-second run nearly the same on every seed while no two ops share
a ModelSpec (radii and curvatures are continuous), so a cache spanning
calls gains nothing, as in real use where every model is a fresh process.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-catalog", "verify-large-n", "random-sweep", "cli-cold")

VERDICT_TYPE_A = "type-A-compatible"
VERDICT_HYPOTHESIS_FAILS = "phi-l-hypothesis-fails"
NEGATIVE_CONTROL_ROWS = frozenset({("shape-phi-commute", "all"),
                                   ("phi-l-commute", "ker-eta")})

# Two defects of the seed commit, each confined to a band of the s*r domain.
# Timed ops draw s*r from the domain without the bands, so no op of a
# workload fails.  The defects stay measured: a fixed probe of ops drawn
# inside the bands (probe_ops) runs untimed after every timed loop, and
# run.py reports how many of them fail.
# 1. Absolute tolerances near either end of the s*r domain, where a
#    principal curvature grows like 1/distance: the oracle bound of ROADMAP
#    item 3 refuses valid models within about 0.0028 of an end, and the
#    l-A-commute row fails on A2 models within about 0.008 (both measured
#    for n <= 60 and 1 <= |c| <= 16).
EDGE_BAND = 0.01
EDGE_DEFECT = "near-edge absolute tolerance"
# 2. CH family B: s coth(sr) - s tanh(sr) = 2s / sinh(2sr) drops below the
#    check tolerance from s*r ~ 10.25 on (measured for n <= 30, 1 <= |c| <= 9),
#    so the negative-control rows pass where they must fail.
CH_B_DEGENERATE_SR = 10.0
CH_B_DEFECT = "CH B negative control numerically type A"
CP_EDGE = {"A1": math.pi / 2.0, "A2": math.pi / 2.0, "B": math.pi / 4.0}
# The oracle's cost grows with the radius, so CH radii reach past 10.
CH_SR_MAX = 12.0
PROBE_REPEATS = 2

CATALOG_PAIRS = (("CP", "A1", None), ("CP", "A2", None), ("CP", "B", None),
                 ("CH", "A0", None), ("CH", "A1", "sphere"),
                 ("CH", "A1", "hyperplane"), ("CH", "A2", None), ("CH", "B", None))
LARGE_N_PAIRS = (("CP", "A1", None), ("CP", "A2", None),
                 ("CH", "A1", "sphere"), ("CH", "A2", None))
# cli-cold makes only about 14 verify ops of each format per run, so they
# visit the pairs in one fixed order that alternates cheap CP and A0 pairs
# with costly CH radius pairs, and all pairs of a format share one radius
# sequence: every run then has the same share of costly ops, with radii
# spread alike.
CLI_VERIFY_PAIRS = (("CP", "A1", None), ("CH", "A1", "sphere"), ("CP", "A2", None),
                    ("CH", "A2", None), ("CP", "B", None), ("CH", "B", None),
                    ("CH", "A0", None), ("CH", "A1", "hyperplane"))
CLI_KINDS = ("catalog", "jet-flags", "jet-config", "oracle-value",
             "oracle-focal", "verify-json", "verify-markdown")


@dataclass
class Op:
    argv: list[str]
    exit: int
    command: str
    fmt: str = "json"
    verdict: str | None = None
    negative_rows: frozenset = frozenset()
    rows: int | None = None
    band: str | None = None
    config_text: str | None = field(default=None, repr=False)


def _num(x: float) -> str:
    return repr(float(x))


class _Weyl:
    """Low-discrepancy draws in (0, 1), one sequence per (category, name).

    Each parameter name steps by the square root of its own prime, so the
    parameters of one category are jointly, not just singly, well spread.
    The radius, which sets the cost of a verify op, steps by the golden
    ratio instead, so that its draws are well spread in short runs and also
    in every other draw, which is what cli-cold's costly pairs receive.
    """

    STEPS = {name: math.sqrt(p) % 1.0 for name, p in zip(
        ("n", "c", "k", "alpha", "sa", "beta", "sc", "k3", "kappa", "sign"),
        (2, 3, 7, 11, 13, 17, 19, 23, 29, 31))}
    STEPS["r"] = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.state: dict[tuple, float] = {}

    def __call__(self, category, name: str) -> float:
        key = (category, name)
        if key not in self.state:
            self.state[key] = self.rng.random()
        u = (self.state[key] + self.STEPS[name]) % 1.0
        self.state[key] = u
        return u if u > 0.0 else 0.5


def _cycle(rng: random.Random, items):
    """Yield items forever, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def workload_sr(ambient: str, family: str) -> tuple[float, float]:
    """The s*r interval of timed ops: the open domain without the defect bands."""
    if ambient == "CP":
        return EDGE_BAND, CP_EDGE[family] - EDGE_BAND
    return EDGE_BAND, CH_B_DEGENERATE_SR if family == "B" else CH_SR_MAX


def _verify_op(draw, rng, pair, n_lo, n_hi, sr_range=None, fmt="json", band=None,
               category=None) -> Op:
    """A verify op with s*r drawn from sr_range, by default workload_sr.

    Its parameters walk the sequences of category, by default the pair.
    """
    ambient, family, variant = pair
    category = category or pair
    lo = max(n_lo, 3) if family == "A2" else n_lo
    n = lo + min(int(draw(category, "n") * (n_hi - lo + 1)), n_hi - lo)
    argv = ["verify", "--ambient", ambient, "--n", str(n), "--family", family]
    if family == "A0":
        # The horosphere has no radius, so its curvature varies to keep
        # every ModelSpec distinct; other families keep the default |c| = 4,
        # so their cost depends on the radius alone and stratifies well.
        c = -1.0 - 8.0 * draw(category, "c")
        argv += ["--c", _num(c)]
    else:
        c = 4.0
        sr_lo, sr_hi = sr_range or workload_sr(ambient, family)
        sr = sr_lo + draw(category, "r") * (sr_hi - sr_lo)
        argv += ["--radius", _num(sr / (math.sqrt(abs(c)) / 2.0))]
    if family == "A2":
        argv += ["--k", str(1 + min(int(draw(category, "k") * (n - 2)), n - 3))]
    elif variant == "hyperplane":
        argv += ["--k", str(n - 1)]
    if rng.random() < 0.5:
        argv.append("--flip-normal")
    argv += ["--seed", str(rng.randrange(2 ** 31)), "--format", fmt, "--deterministic"]
    negative = family == "B"
    return Op(argv, 0, "verify", fmt,
              verdict=VERDICT_HYPOTHESIS_FAILS if negative else VERDICT_TYPE_A,
              negative_rows=NEGATIVE_CONTROL_ROWS if negative else frozenset(),
              band=band)


def _jet_config(draw) -> tuple[list[str], str]:
    """Raw derivatives of a tilted jet on the surface c = 4 alpha^2 + 2 beta^2.

    There the k3 dichotomy factor vanishes, so a nonzero k3 satisfies every
    row.  The values are written out from the formulas of the scalar chain,
    independently of the program's own consistent_jet.
    """
    a = (0.3 + 1.7 * draw("jet-config", "alpha")) * (1 if draw("jet-config", "sa") < 0.5 else -1)
    b = 0.1 + 1.9 * draw("jet-config", "beta")
    k3 = 0.1 + 1.9 * draw("jet-config", "k3")
    c = 4.0 * a * a + 2.0 * b * b
    q = c / (4.0 * a)
    k1 = -4.0 * a
    values = {
        "kappa3": k3,
        "dalpha_xi": 4.0 * a * a * b * k3 / c,
        "dalpha_U": 4.0 * a * b * b * k3 / c,
        "dalpha_phiU": 3.0 * b * q + a * b + k1 * b,
        "dalpha_phiW2": k3 * (16.0 * a * b ** 3 / c + b * (b * b / a - q)),
        "dalpha_W3": 3.0 * b * (q - a) * k3,
        "dbeta_xi": 4.0 * a * b * b * k3 / c,
        "dbeta_U": (b + 4.0 * b ** 3 / c) * k3,
        "dbeta_phiU": q * (b * b / a - q) + b * b + k1 * b * b / a,
        "dbeta_phiW1": 4.0 * a * k3 * (b + 4.0 * b ** 3 / c),
        "d2beta_phiU_xi": b * k3 * (3.0 * q + b * b / a - 4.0 * a - 36.0 * a * b * b / c),
        "d2alpha_phiU_U": b * k3 * (7.0 * q - 8.0 * a - 36.0 * a * b * b / c - b * b / a),
    }
    w1 = (12.0 * (5.0 * a * a + b * b) * c + 64.0 * a ** 4 - 3.0 * c * c
          - 48.0 * a * a * b * b) / (16.0 * a * a)
    if w1 >= 0.0:
        values["w1_norm_sq"] = w1
    text = "".join(f"{k} = {_num(v)}\n" for k, v in values.items())
    return ["--alpha", _num(a), "--beta", _num(b), "--c", _num(c)], text


def _cli_op(kind: str, draw, rng, verify_pairs) -> Op:
    det = ["--deterministic"]
    if kind == "catalog":
        return Op(["catalog"] + det, 0, "catalog", rows=7)
    if kind == "jet-flags":
        a = (0.3 + 2.7 * draw(kind, "alpha")) * (1 if draw(kind, "sa") < 0.5 else -1)
        b = 0.1 + 2.9 * draw(kind, "beta")
        c = (0.5 + 7.5 * draw(kind, "c")) * (1 if draw(kind, "sc") < 0.5 else -1)
        return Op(["jet", "--alpha", _num(a), "--beta", _num(b), "--c", _num(c)] + det,
                  0, "jet")
    if kind == "jet-config":
        flags, text = _jet_config(draw)
        return Op(["jet"] + flags + det, 0, "jet", config_text=text)
    if kind == "oracle-value":
        kappa = 1.0 + 8.0 * draw(kind, "kappa")
        if draw(kind, "sign") < 0.5:
            r = (0.15 + 0.7 * draw(kind, "r")) * math.pi / math.sqrt(kappa)
        else:
            kappa, r = -kappa, 0.15 + 2.85 * draw(kind, "r")
        return Op(["oracle", "riccati", "--kappa", _num(kappa), "--r", _num(r)] + det,
                  0, "oracle riccati")
    if kind == "oracle-focal":
        kappa = 2.0 + 7.0 * draw(kind, "kappa")
        r = (1.1 + 0.4 * draw(kind, "r")) * math.pi / math.sqrt(kappa)
        return Op(["oracle", "riccati", "--kappa", _num(kappa), "--r", _num(r)] + det,
                  1, "oracle riccati")
    fmt = "json" if kind == "verify-json" else "markdown"
    return _verify_op(draw, rng, next(verify_pairs[fmt]), 3, 3, fmt=fmt, category=kind)


def op_stream(workload: str, seed: int):
    """Yield the workload's ops forever; the same seed gives the same ops."""
    rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
    draw = _Weyl(rng)
    if workload == "verify-catalog":
        for pair in _cycle(rng, CATALOG_PAIRS):
            yield _verify_op(draw, rng, pair, 2, 5)
    elif workload == "verify-large-n":
        for pair in _cycle(rng, LARGE_N_PAIRS):
            yield _verify_op(draw, rng, pair, 30, 60, sr_range=(EDGE_BAND, 0.5))
    elif workload == "random-sweep":
        seed0 = rng.randrange(2 ** 30)
        i = 0
        for dim, lo, hi in _cycle(rng, ((5, 20, 60), (41, 2, 6))):
            samples = lo + min(int(draw(dim, "n") * (hi - lo + 1)), hi - lo)
            yield Op(["random", "--dim", str(dim), "--samples", str(samples),
                      "--seed", str(seed0 + 104729 * i), "--deterministic"],
                     0, "random", rows=5)
            i += 1
    elif workload == "cli-cold":
        pairs = {fmt: itertools.cycle(CLI_VERIFY_PAIRS) for fmt in ("json", "markdown")}
        for kind in _cycle(rng, CLI_KINDS):
            yield _cli_op(kind, draw, rng, pairs)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def probe_ops(seed: int) -> list[Op]:
    """PROBE_REPEATS verify ops drawn inside each defect band.

    Every radius family of the catalog is probed near s*r = 0, each CP
    family near the top of its domain, and CH B past CH_B_DEGENERATE_SR.
    """
    rng = random.Random(seed)
    draw = _Weyl(rng)
    bands = [(pair, (0.0, EDGE_BAND), EDGE_DEFECT) for pair in CATALOG_PAIRS
             if pair[1] != "A0"]
    bands += [(pair, (CP_EDGE[pair[1]] - EDGE_BAND, CP_EDGE[pair[1]]), EDGE_DEFECT)
              for pair in CATALOG_PAIRS if pair[0] == "CP"]
    bands.append((("CH", "B", None), (CH_B_DEGENERATE_SR, CH_SR_MAX), CH_B_DEFECT))
    return [_verify_op(draw, rng, pair, 2, 5, sr_range=sr, band=defect)
            for _ in range(PROBE_REPEATS) for pair, sr, defect in bands]


WARMUP = {
    "verify-catalog": [["verify", "--ambient", "CP", "--n", "3", "--family", "A2",
                        "--k", "1", "--radius", "0.7770001", "--deterministic"],
                       ["verify", "--ambient", "CH", "--n", "4", "--family", "B",
                        "--radius", "0.5550001", "--deterministic"]],
    "verify-large-n": [["verify", "--ambient", "CP", "--n", "31", "--family", "A1",
                        "--radius", "0.3330001", "--deterministic"]],
    "random-sweep": [["random", "--dim", "5", "--samples", "5", "--seed", str(2 ** 40),
                      "--deterministic"],
                     ["random", "--dim", "41", "--samples", "1", "--seed", str(2 ** 40),
                      "--deterministic"]],
    "cli-cold": [["catalog", "--deterministic"]],
}


# ------------------------------------------------------------------ gate

def _parse_markdown(text: str) -> dict:
    """The fields the gate reads, pulled out of a markdown report."""
    out: dict = {"summary": {}, "checks": [], "theorem": {}}
    section, header = None, None
    for line in text.splitlines():
        if line.startswith("## "):
            section, header = line[3:].strip(), None
            continue
        if section in ("summary", "theorem") and line.startswith("- "):
            key, _, value = line[2:].partition(": ")
            out[section][key] = {"true": True, "false": False}.get(value, value)
        elif section == "checks" and line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if header is None:
                header = cells
            elif cells[0] != "---":
                row = dict(zip(header, cells))
                for key in ("pass", "expected"):
                    row[key] = {"true": True, "false": False}[row[key]]
                out["checks"].append(row)
    if "all_ok" not in out["summary"]:
        raise ValueError("no summary block")
    return out


def check(op: Op, code, stdout: str) -> str | None:
    """None when the op did what the generator expected, else the reason."""
    if code != op.exit:
        return f"exit {code}, expected {op.exit}"
    try:
        rep = json.loads(stdout) if op.fmt == "json" else _parse_markdown(stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable {op.fmt} report: {exc}"
    if op.fmt == "json" and rep.get("command") != op.command:
        return f"command {rep.get('command')!r}, expected {op.command!r}"
    if rep["summary"].get("all_ok") is not (op.exit == 0):
        return f"summary.all_ok is {rep['summary'].get('all_ok')}"
    rows = rep["checks"]
    bad = [f"{r['check']}/{r['subspace']}" for r in rows if r["pass"] != r["expected"]]
    if bad:
        return "rows with pass != expected: " + ", ".join(bad)
    if op.rows is not None and len(rep.get("catalog", rows)) != op.rows:
        return f"{len(rep.get('catalog', rows))} rows, expected {op.rows}"
    if op.command == "oracle riccati":
        want = "value" if op.exit == 0 else "error"
        if want not in rep["oracle"]:
            return f"oracle block lacks {want!r}"
    if op.verdict is not None:
        th = rep["theorem"]
        if not th.get("verdict") == th.get("expected_verdict") == op.verdict:
            return (f"verdict {th.get('verdict')!r}, report expects "
                    f"{th.get('expected_verdict')!r}, generator expects {op.verdict!r}")
        negative = {(r["check"], r["subspace"]) for r in rows if not r["expected"]}
        if negative != op.negative_rows:
            return f"negative-control rows {sorted(negative)}"
    return None
