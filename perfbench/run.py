"""hyperlab benchmark: four workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 25 --trace 0

It drives the program only from outside, through `hyperlab.cli.run(argv)`
in a runner process or as `python -m hyperlab` subprocesses, with one
client in a closed loop and OpenBLAS pinned to one thread.

--trace 0 prints the end-to-end metrics.  Set-up is timed on several fresh
runner processes; the middle one runs the timed loop, so that set-up is
sampled both before and after it.
--trace 1 prints the per-layer metrics.  A fixed number of ops runs once
untraced and once under the outside tracer, each in a fresh process, so
calls_per_op repeats exactly for a seed and the ratio of the two
throughputs is the tracing overhead.

Lines starting with "#" describe the run (environment, report digest,
failed ops, the defect-band probe); the last line is the JSON result.
Exit 1 means an op failed, or a probe op failed other than by exit 1;
exit 2 means the program to benchmark is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from tracer import SPAN_NAMES
from workloads import WORKLOADS

# Odd, so that the timed runner is the middle one.
SETUP_RUNS = 9
RUNNER_TIMEOUT_S = 150
IMPORTTIME_RUNS = 5
# The cores are shared, and the speed of a fixed kernel drifted by +-25%
# between 25-second runs; op times are scaled by the kernel's speed around
# each op so that such drift cancels while a change in hyperlab does not.
CALIBRATION_REF_MS = 1.5
TRACE_OPS = {"verify-catalog": 64, "verify-large-n": 40, "random-sweep": 80,
             "cli-cold": 70}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def runner(args: list[str]) -> tuple[float, dict | None]:
    """Start a fresh runner; return its set-up seconds and its result."""
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), *args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            if ready.strip() != "ready":
                raise RuntimeError(f"runner did not start: {' '.join(cmd)}")
            out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def import_times() -> tuple[float, float]:
    """Median numpy and hyperlab-own import ms from `python -X importtime`."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperlab.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cum.setdefault(parts[2], int(parts[1]) / 1e3)
        numpy_ms.append(cum["numpy"])
        own_ms.append(cum["hyperlab.cli"] - cum["numpy"])
    return statistics.median(numpy_ms), statistics.median(own_ms)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_latencies(res: dict) -> list[float]:
    """Each op's wall ms, scaled to a machine on which the kernel takes CALIBRATION_REF_MS.

    The kernel is timed before the first op and after every op; op i is
    scaled by the median of the six timings around it, cal[i-2 .. i+3].
    """
    cal = res["calibration_ms"]
    return [ms * CALIBRATION_REF_MS / statistics.median(cal[max(0, i - 2):i + 4])
            for i, ms in enumerate(res["latency_ms"])]


def end_to_end(workload: str, seed: int, seconds: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [runner(base + ["--setup-only"])[0] for _ in range(SETUP_RUNS // 2)]
    setup, res = runner(base + ["--seconds", str(seconds), "--probe"])
    setups.append(setup)
    setups += [runner(base + ["--setup-only"])[0] for _ in range(SETUP_RUNS // 2)]
    raw, lat = res["latency_ms"], scaled_latencies(res)
    metrics = {
        "ops_per_s": metric(len(lat) * 1e3 / sum(lat), "1/s"),
        "op_ms_p50": metric(statistics.median(lat), "ms"),
        "op_ms_p90": metric(statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    print(f"# latency samples: {len(lat)}; unscaled wall: {res['ops'] / res['wall_s']:.4f} ops/s, "
          f"p50 {statistics.median(raw):.3f} ms, p90 {statistics.quantiles(raw, n=10)[-1]:.3f} ms; "
          f"calibration kernel median {statistics.median(res['calibration_ms']):.4f} ms")
    print("# setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    return res, metrics


def per_layer(workload: str, seed: int):
    base = ["--workload", workload, "--seed", str(seed), "--ops", str(TRACE_OPS[workload]),
            "--in-process"]
    _, plain = runner(base)
    _, res = runner(base + ["--trace", "--probe"])
    n = res["ops"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, _ = res["trace"][name]
        metrics[f"{name}.calls_per_op"] = metric(calls / n, "calls/op")
        metrics[f"{name}.self_ms_per_op"] = metric(self_s * 1e3 / n, "ms/op")
    errors = res["trace"]["model_catalog.riccati_shape_evolution"][2]
    metrics["model_catalog.riccati_shape_evolution.errors_per_op"] = metric(errors / n, "errors/op")
    probe_failed = sum(p["reason"] is not None for p in res["probe"])
    metrics["defects.band_failed_frac"] = metric(probe_failed / len(res["probe"]), "fraction")
    numpy_ms, own_ms = import_times()
    metrics["import.numpy_ms"] = metric(numpy_ms, "ms")
    metrics["import.hyperlab_ms"] = metric(own_ms, "ms")
    overhead = 1.0 - sum(scaled_latencies(plain)) / sum(scaled_latencies(res))
    metrics["trace.overhead_frac"] = metric(overhead, "fraction")
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperlab", "cli.py")):
        print(f"error: no hyperlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.trace:
        res, metrics = per_layer(args.workload, args.seed)
    else:
        res, metrics = end_to_end(args.workload, args.seed, args.seconds)
    failures = res["failures"]
    # Ops drawn inside the known defect bands may fail by exit 1; any other
    # failure there (a traceback, a usage error) is new.
    new_in_probe = [p for p in res["probe"] if p["reason"] is not None and p["exit"] != 1]
    correct = not failures and not new_in_probe
    print("# environment: " + json.dumps(res["environment"], sort_keys=True))
    print(f"# report sha256 over the first {res['digest_ops']} ops: {res['digest']}")
    print(f"# failed_frac: {len(failures) / res['ops']:.6f} ({len(failures)} of {res['ops']} ops)")
    for f in failures:
        print(f"# failed op {f['op']}: {f['reason']}; "
              f"argv: {' '.join(f['argv'])}; stderr: {f['stderr']}")
    for band in sorted({p["band"] for p in res["probe"]}):
        probed = [p for p in res["probe"] if p["band"] == band]
        failed = [p for p in probed if p["reason"] is not None]
        print(f"# defect-band probe, {band}: {len(failed)} of {len(probed)} ops fail")
        for p in failed:
            tag = "" if p["exit"] == 1 else "NEW FAILURE: "
            print(f"#   {tag}{p['reason']}; argv: {' '.join(p['argv'])}; stderr: {p['stderr']}")
    print(json.dumps({"correct": correct, "attempted": res["ops"],
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
