"""One benchmark runner process: import, warm up, then a closed loop of ops.

Started by run.py, never by hand.  It prints "ready" once hyperlab.cli is
imported and the warm-up ops are done (run.py times that as set-up), then
runs ops one after another with a single client: each starts when the
previous one has returned.  It ends with one JSON line of raw results.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import workloads

# p90 needs ten samples beyond it, so a timed run lasts at least MIN_OPS ops.
MIN_OPS = 100
REPLAY_EVERY = 10
REPLAY_MAX = 10
DIGEST_OPS = 50
SUBPROCESS_TIMEOUT_S = 60


def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"exception {type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def run_subprocess(argv):
    try:
        proc = subprocess.run([sys.executable, "-m", "hyperlab", *argv],
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", f"no exit within {SUBPROCESS_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def calibrate(np) -> float:
    """Milliseconds taken by a fixed kernel of interpreter and small numpy work.

    The kernel shares no code with hyperlab, so its time tracks only how
    fast the shared machine runs at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    a = np.full((8, 8), 0.01)
    for _ in range(200):
        a = a @ a + 0.01
    return (time.perf_counter() - start) * 1e3


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0, help="fixed op count instead of --seconds")
    ap.add_argument("--in-process", action="store_true",
                    help="replay cli-cold argv through cli.run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="afterwards run the defect-band probe, untimed and in process")
    args = ap.parse_args()

    import numpy as np
    import hyperlab.cli as cli

    subprocess_ops = args.workload == "cli-cold" and not args.in_process

    def execute(argv):
        return run_subprocess(argv) if subprocess_ops else run_in_process(cli, argv)

    for argv in workloads.WARMUP[args.workload]:
        execute(argv)
    print("ready", flush=True)
    if args.setup_only:
        return

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        stream = workloads.op_stream(args.workload, args.seed)
        ops, results, latencies, calibration = [], [], [], [calibrate(np)]
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            while True:
                op = next(stream)
                if op.config_text is not None:
                    path = os.path.join(tmp, f"jet-{len(ops)}.cfg")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(op.config_text)
                    op.argv += ["--config", path]
                t0 = time.perf_counter()
                result = execute(op.argv)
                t1 = time.perf_counter()
                ops.append(op)
                results.append(result)
                latencies.append((t1 - t0) * 1e3)
                calibration.append(calibrate(np))
                done = (len(ops) >= args.ops if args.ops
                        else t1 - start >= args.seconds and len(ops) >= MIN_OPS)
                if done:
                    break
        finally:
            if tracer is not None:
                tracer.restore()
        wall = time.perf_counter() - start
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

        failures = []
        for i, (op, (code, out, err)) in enumerate(zip(ops, results)):
            reason = workloads.check(op, code, out)
            if reason is None and i % REPLAY_EVERY == 0 and i < REPLAY_EVERY * REPLAY_MAX:
                if execute(op.argv)[:2] != (code, out):
                    reason = "replay is not byte-identical"
            if reason is not None:
                failures.append({"op": i, "argv": op.argv, "reason": reason,
                                 "stderr": _last_line(err)})

    probe = []
    if args.probe:
        for op in workloads.probe_ops(args.seed):
            code, out, err = run_in_process(cli, op.argv)
            probe.append({"band": op.band, "argv": op.argv, "exit": code,
                          "reason": workloads.check(op, code, out),
                          "stderr": _last_line(err)})

    digest = hashlib.sha256("".join(out for _, out, _ in results[:DIGEST_OPS])
                            .encode("utf-8")).hexdigest()
    print(json.dumps({
        "ops": len(ops), "wall_s": wall, "calibration_ms": calibration, "latency_ms": latencies,
        "peak_rss_mb": max(usage) / 1024.0, "failures": failures, "probe": probe,
        "digest": digest, "digest_ops": min(DIGEST_OPS, len(ops)),
        "environment": _environment(np),
        "trace": tracer.stats if tracer is not None else None,
    }), flush=True)


if __name__ == "__main__":
    main()
