"""Benchmark entry point.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 12 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A full record (metadata, per-op-kind latencies, the decomposition) is
written to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="graph-size factor (the smoke test runs at toy scale)",
    )
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no program sources under {SRC}")
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import common, report, workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})"
        )
    base = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(
        base, "runs", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(run_dir, exist_ok=True)
    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": args.scale,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": platform.machine(),
        "spin_before_s": common.spin_witness(),
    }
    started = time.perf_counter()
    ctx = workloads.Context(args.workload, args.seed, args.seconds,
                            bool(args.trace), run_dir, scale=args.scale)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except common.BenchError as exc:
        return _fail(f"{args.workload} failed: {exc}")
    meta["spin_after_s"] = common.spin_witness()
    meta["wall_s"] = time.perf_counter() - started
    meta.update(outcome.meta)
    record = report.build(outcome, meta, bool(args.trace))
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        # Keep the spans beside the record; drop bulky inputs.
        spans = os.path.join(results, name[:-5] + "-spans")
        shutil.rmtree(spans, ignore_errors=True)
        shutil.move(os.path.join(run_dir, "spans"), spans)
    shutil.rmtree(run_dir, ignore_errors=True)
    report.print_human(record)
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
