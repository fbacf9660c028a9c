#!/usr/bin/env python3
"""Benchmark gridctl on the paper's three studies.

    python3 bench/run.py --workload dispatch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gridctl is imported from its ``src``. One
run repeats the workload's fixed list of operations in whole passes until
``--seconds`` of pass time and at least MIN_OPS operations are measured,
checks every output after each pass, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer ones. See
README.md in this directory.
"""

import os

# one BLAS thread, before numpy loads: the benchmark measures one core's work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 5  # timed set-ups per run; setup_s is their median
MIN_OPS = 100  # operations per run, so that p90 has ten samples beyond it
TAIL_PERCENTILE = 90


def import_program():
    """Put the checkout's src first on the path and import gridctl from it."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import gridctl
    except ImportError as exc:
        sys.exit(f"cannot import gridctl from {src}: {exc}")
    if not os.path.abspath(gridctl.__file__).startswith(src + os.sep):
        sys.exit(f"gridctl was imported from {gridctl.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("dispatch", "placement", "loadscale"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args) -> float:
    """Wall seconds from starting a fresh process to its first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        sys.exit(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return float(lines[1]) - start


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of the order statistics. Operation times cluster by
    case and model with gaps between the clusters, so a single order
    statistic jumps from one cluster to the next when an input or the machine
    moves one operation across; this estimate moves smoothly.
    """
    # imported here so that the set-up probes load nothing the program does not
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def run_pass(workload, checker, log):
    cpu0, t0 = time.process_time(), time.perf_counter()
    results = workload.run_pass(log)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    checker.check(results, log)
    return wall, cpu


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS, PassLog

    if args.probe_setup:
        WORKLOADS[args.workload](args.seed).warm_up()
        print("ready", repr(time.time()))
        return 0

    tracer = None
    setups = []
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe_setup(args)  # unmeasured: fills the page cache and writes bytecode
        setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if tracer:
        tracer.uninstall()
    from checks import CHECKS
    checker = CHECKS[args.workload](workload)

    logs, untraced, traced = [], [], []  # traced: (pass number, wall, counter deltas)
    while True:
        k = len(logs)
        trace_this = tracer is not None and k % 2 == 1
        if trace_this:
            tracer.pass_no = k
            before = Counter(tracer.counts)
            tracer.install()
        log = PassLog()
        try:
            wall, cpu = run_pass(workload, checker, log)
        finally:
            if trace_this:
                tracer.uninstall()
        logs.append(log)
        if trace_this:
            traced.append((k, wall, tracer.counts - before))
        else:
            untraced.append((wall, cpu))
        measured = sum(w for w, _c in untraced) + sum(w for _k, w, _d in traced)
        n_ops = sum(len(x.ops) for x in logs)
        if measured >= args.seconds and n_ops >= MIN_OPS and (tracer is None or traced):
            break

    ops = [op for x in logs for op in x.ops]
    failed = [op for op in ops if op.error is not None]
    times = [op.seconds for op in ops if op.error is None]
    correct = not any(x.wrong_output for x in logs) and bool(times)

    if tracer is None:
        metrics = {
            "study_s": (statistics.median(w for w, _c in untraced), "s"),
            "op_p50_ms": (1e3 * quantile(times, 0.5), "ms"),
            "op_tail_ms": (1e3 * quantile(times, TAIL_PERCENTILE / 100), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(traced)
        metrics["process.cpu_s"] = (statistics.median(c for _w, c in untraced), "s")
        metrics["trace.overhead_s"] = (statistics.median(w for _k, w, _d in traced)
                                       - statistics.median(w for w, _c in untraced), "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "passes": len(logs),
              "pass_seconds": [w for w, _c in untraced] + [w for _k, w, _d in traced],
              "setup_probes_s": setups,
              "labels": [op.label for op in logs[0].ops],
              "op_seconds": [[op.seconds for op in x.ops] for x in logs],
              "errors": [[op.label, op.error] for op in ops if op.error is not None][:100]}
    if tracer:
        tracer.write(os.path.join(OUT_DIR, f"trace-{stem}.json"), detail)
        if tracer.absent:
            print("absent from the program (reported as 0):", ", ".join(tracer.absent))
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload}: {len(logs)} passes, {len(ops)} operations, {len(failed)} failed, "
          f"{len(times)} timed; tail = p{TAIL_PERCENTILE}, {len(times) - math.ceil(len(times) * TAIL_PERCENTILE / 100)} beyond")
    for op in failed[:10]:
        print(f"  FAILED {op.label}: {op.error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
