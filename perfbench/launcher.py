"""Program-side entry point of the benchmark.

``launcher.py serve ARGS``    runs ``repro serve ARGS`` (fleet workers it
                              starts come back through ``worker``);
``launcher.py worker OPTS``   runs one fleet worker;
``launcher.py anytime CONF``  runs the in-process anySCAN workload.

With ``PERFBENCH_TRACE_DIR`` set, the layer wrappers of
:mod:`perfbench.trace` are installed before the program starts, and the
server process writes its spans to ``<dir>/spans-<pid>.json`` on
SIGUSR1, which the benchmark sends before it stops the server; the
``anytime`` process writes them when its op stream ends.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import trace  # noqa: E402

TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")


class _SubprocessShim:
    """``subprocess`` as seen by ``repro.service.fleet``: worker spawns
    are redirected through this launcher so they get the wrappers too."""

    def __getattr__(self, attr):
        return getattr(subprocess, attr)

    @staticmethod
    def Popen(args, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        if len(args) >= 4 and args[1] == "-c" and "worker_main" in args[2]:
            args = [args[0], os.path.abspath(__file__), "worker", *args[3:]]
        return subprocess.Popen(args, **kwargs)


def _arm_tracing(role: str, **meta: object) -> None:
    trace.preload_service()
    trace.install()
    import repro.service.fleet as fleet

    fleet.subprocess = _SubprocessShim()
    path = os.path.join(TRACE_DIR, f"spans-{os.getpid()}.json")

    def dump(*_args) -> None:
        trace.TRACER.dump(path, role=role, **meta)

    signal.signal(signal.SIGUSR1, dump)


def _serve(argv) -> int:
    if TRACE_DIR:
        _arm_tracing("server")
    from repro.service.server import serve_main

    return serve_main(argv)


def _worker(argv) -> int:
    if TRACE_DIR:
        options = json.loads(argv[0])
        _arm_tracing("worker", process_index=int(options["process_index"]))
    from repro.service.fleet import worker_main

    return worker_main(argv)


def _anytime(argv) -> int:
    """Set up ``setups`` times, then run the seeded preview/exact op stream
    for ``seconds`` (in whole cycles of ``cycle`` ops); writes timings and
    exact labels to ``out``."""
    import gc

    import numpy as np

    conf = json.loads(argv[0])
    if TRACE_DIR:
        trace.install()
    from repro.core.anyscan import AnySCAN
    from repro.core.config import AnyScanConfig
    from repro.graph.io import load_edge_list
    from repro.similarity.weighted import SimilarityOracle

    setup_s = []
    for _ in range(int(conf["setups"])):
        gc.collect()
        started = time.perf_counter()
        graph, _ = load_edge_list(conf["graph"])
        oracle = SimilarityOracle(graph)
        setup_s.append(time.perf_counter() - started)

    def run_op(kind: str, eps: float, mu: int):
        """One preview (first snapshot) or exact run; timestamps in ns."""
        config = AnyScanConfig(
            mu=mu, epsilon=eps, alpha=1024, beta=1024, record_costs=False
        )
        start = time.perf_counter_ns()
        algo = AnySCAN(graph, config, oracle=oracle)
        algo.advance()
        first = time.perf_counter_ns()
        if kind == "preview":
            return start, first, first, None
        while algo.advance() is not None:
            pass
        labels = algo.result().labels
        return start, first, time.perf_counter_ns(), labels

    for eps, mu in conf["warmup"]:
        run_op("preview", eps, mu)
    ops = []
    gc.collect()
    # Start together with the other users of the run.
    open(conf["ready"], "w").close()
    while not os.path.exists(conf["go"]):
        time.sleep(0.001)
    evals_before = oracle.counters.sigma_evaluations
    phase_start = time.perf_counter_ns()
    deadline = phase_start + int(float(conf["seconds"]) * 1e9)
    for index, (kind, eps, mu) in enumerate(conf["ops"]):
        if index % conf["cycle"] == 0 and time.perf_counter_ns() >= deadline:
            break  # whole cycles of the op pattern only
        op_id = conf["id_base"] + index
        trace.TRACER.op = op_id
        start, first, end, labels = run_op(kind, eps, mu)
        trace.TRACER.op = None
        record = {"id": op_id, "kind": kind, "eps": eps, "mu": mu,
                  "start": start, "first": first, "end": end}
        if labels is not None:
            record["labels"] = os.path.join(conf["dir"], f"exact-{op_id}.npy")
            np.save(record["labels"], labels)
        ops.append(record)
    phase_end = time.perf_counter_ns()
    with open(f"/proc/{os.getpid()}/status", encoding="utf-8") as handle:
        hwm = next(
            int(line.split()[1]) for line in handle
            if line.startswith("VmHWM:")
        )
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "phase": [phase_start, phase_end],
        "sigma_evaluations": oracle.counters.sigma_evaluations - evals_before,
        "peak_rss_mb": hwm / 1024.0,
    }
    with open(conf["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if TRACE_DIR:
        trace.TRACER.dump(
            os.path.join(TRACE_DIR, f"spans-{os.getpid()}.json"),
            role="anytime",
        )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    modes = {"serve": _serve, "worker": _worker, "anytime": _anytime}
    if not argv or argv[0] not in modes:
        print("usage: launcher.py {serve|worker|anytime} ...", file=sys.stderr)
        return 2
    return modes[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
