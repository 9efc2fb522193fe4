"""Service throughput/latency under concurrent clients.

The service layer's claim (DESIGN.md §8, §11): once a graph's σ index
and result cache are warm, interactive clustering queries are
wire-bound — the server sustains high query throughput with low tail
latency, and repeat queries perform **zero** σ evaluations.  This
experiment stands up a real :class:`~repro.service.server.ClusteringServer`
(HTTP over localhost), drives it with concurrent stdlib clients at ≥2
concurrency levels, and reports sustained throughput plus exact
client-side p50/p99 latency per level for two request mixes:

* ``cached`` — repeat (ε, μ) queries answered from the LRU result
  cache (the steady state of a dashboard polling fixed settings);
* ``indexed-job`` — distinct (ε, μ) per request, each scheduled as an
  anytime job whose σ phase is threshold passes over the prebuilt
  index (the interactive-exploration state).

Both mixes then repeat against a **multi-process fleet** (``repro
serve --processes N`` machinery): N worker processes sharing the graph
and its indexes zero-copy through named shared-memory segments, all
accepting on one pre-forked listening socket.  Every row carries ``process_count`` /
``worker_count`` / ``cpu_count`` so the single-vs-fleet comparison is
interpretable: on a multi-core runner the 4-shard indexed mix should
sustain ≥2× the single-process aggregate throughput; on a 1-CPU
container the fleet rows measure only the coordination overhead.

Writes ``BENCH_service.json`` (to ``$REPRO_BENCH_DIR`` or the working
directory) so CI archives the numbers per commit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentResult
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.service.client import ServiceClient
from repro.service.server import ClusteringServer

__all__ = ["service"]

_GRAPH = "bench"
# Warmed (ε, μ) settings the cached mix cycles over.
_WARM = ((0.5, 4), (0.6, 3), (0.65, 5), (0.7, 2))

#: Shard count for the fleet section (the acceptance comparison point).
_FLEET_PROCESSES = 4


def _percentile(samples: List[float], p: float) -> float:
    """Exact percentile by nearest-rank over the sorted samples."""
    ordered = sorted(samples)
    rank = max(1, int(round(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _drive(
    url: str,
    concurrency: int,
    requests_per_client: int,
    make_call,
    warmup: Optional[Callable[[ServiceClient], None]] = None,
) -> Tuple[float, List[float]]:
    """Run ``make_call(client, i)`` from ``concurrency`` threads.

    Returns (wall seconds, per-request latencies).  Each worker keeps
    its own latency list; they are merged after the join, so no shared
    state is written concurrently.  ``warmup`` runs per client *before*
    the start barrier — against a fleet, the keep-alive connection pins
    the client to one shard, so warming through it warms exactly the
    shard the timed requests will hit.
    """
    buckets: List[List[float]] = [[] for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)

    def worker(slot: int) -> None:
        client = ServiceClient(url, timeout=120.0)
        if warmup is not None:
            warmup(client)
        barrier.wait()
        for i in range(requests_per_client):
            started = time.perf_counter()
            make_call(client, slot * requests_per_client + i)
            buckets[slot].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return elapsed, [sample for bucket in buckets for sample in bucket]


def _warm_cache(client: ServiceClient) -> None:
    for epsilon, mu in _WARM:
        client.cluster(_GRAPH, mu, epsilon, wait=300.0, labels=False)


def _cached_call(client: ServiceClient, i: int) -> None:
    epsilon, mu = _WARM[i % len(_WARM)]
    body = client.cluster(_GRAPH, mu, epsilon, labels=False)
    if not body.get("cached"):
        raise AssertionError(
            "warm query missed the cache; bench is mismeasuring"
        )


def _job_call(client: ServiceClient, i: int) -> None:
    epsilon = 0.30 + 0.004 * (i % 100)
    mu = 2 + (i % 5)
    body = client.cluster(_GRAPH, mu, epsilon, wait=300.0, labels=False)
    if body.get("state") != "done":
        raise AssertionError(f"job did not finish in time: {body}")


def service(scale: str = "bench", quick: bool = False) -> List[ExperimentResult]:
    """Concurrent-client throughput and p50/p99 latency over HTTP."""
    if quick:
        params = LFRParams(n=300, average_degree=8, max_degree=30, seed=7)
        single_levels = (1, _FLEET_PROCESSES)
        fleet_levels = (_FLEET_PROCESSES,)
        cached_requests = 40
        job_requests = 3
    else:
        params = LFRParams(
            n=4_000, average_degree=12, max_degree=60, seed=7
        )
        single_levels = (1, _FLEET_PROCESSES, 8)
        fleet_levels = (_FLEET_PROCESSES, 8)
        cached_requests = 300
        job_requests = 8
    graph, _ = lfr_graph(params)
    scheduler_workers = 2
    cpu_count = os.cpu_count() or 1

    table = ExperimentResult(
        exp_id="service",
        title=(
            f"service throughput (LFR n={graph.num_vertices:,}, "
            f"m={graph.num_edges:,}, σ index + result cache warm, "
            f"{cpu_count} cpus)"
        ),
        headers=[
            "mix",
            "procs",
            "concurrency",
            "requests",
            "throughput req/s",
            "p50 ms",
            "p99 ms",
        ],
    )
    json_levels: List[Dict[str, object]] = []

    def run_mix(
        url: str,
        mix: str,
        process_count: int,
        concurrency: int,
        requests_per_client: int,
        make_call,
        warmup=None,
    ) -> Dict[str, object]:
        elapsed, latencies = _drive(
            url, concurrency, requests_per_client, make_call, warmup
        )
        throughput = len(latencies) / elapsed if elapsed > 0 else 0.0
        p50 = _percentile(latencies, 50.0) * 1e3
        p99 = _percentile(latencies, 99.0) * 1e3
        table.add_row(
            mix, process_count, concurrency, len(latencies),
            throughput, p50, p99,
        )
        row: Dict[str, object] = {
            "mix": mix,
            "process_count": process_count,
            "worker_count": scheduler_workers,
            "cpu_count": cpu_count,
            "concurrency": concurrency,
            "requests": len(latencies),
            "throughput_rps": throughput,
            "p50_ms": p50,
            "p99_ms": p99,
        }
        json_levels.append(row)
        return row

    # ------------------------------------------------------------------
    # single-process server (the baseline configuration)
    # ------------------------------------------------------------------
    single_indexed_c4: Optional[Dict[str, object]] = None
    with ClusteringServer(
        workers=scheduler_workers, slice_iterations=4
    ) as server:
        client = ServiceClient(server.url, timeout=120.0)
        client.load_graph(_GRAPH, graph=graph, build_index=True)
        _warm_cache(client)  # fill the cache once

        for concurrency in single_levels:
            run_mix(
                server.url, "cached", 1, concurrency,
                cached_requests, _cached_call,
            )
            row = run_mix(
                server.url, "indexed-job", 1, concurrency,
                job_requests, _job_call,
            )
            if concurrency == _FLEET_PROCESSES:
                single_indexed_c4 = row
        metrics = client.metrics()

    # ------------------------------------------------------------------
    # multi-process fleet: N shards, zero-copy shared store
    # ------------------------------------------------------------------
    from repro.service.fleet import ServiceSupervisor
    from repro.service.server import ClusteringService

    fleet_indexed_c4: Optional[Dict[str, object]] = None
    writer = ClusteringService(
        workers=scheduler_workers, slice_iterations=4
    )
    supervisor = ServiceSupervisor(
        writer,
        processes=_FLEET_PROCESSES,
        worker_options={
            "workers": scheduler_workers,
            "slice_iterations": 4,
        },
    )
    try:
        supervisor.start().wait_ready()
        client = ServiceClient(supervisor.url, timeout=120.0)
        client.load_graph(_GRAPH, graph=graph, build_index=True)
        for concurrency in fleet_levels:
            # Cache warming is per-shard: each drive client warms the
            # shard its keep-alive connection pinned it to.
            run_mix(
                supervisor.url, "cached", _FLEET_PROCESSES, concurrency,
                cached_requests, _cached_call, warmup=_warm_cache,
            )
            row = run_mix(
                supervisor.url, "indexed-job", _FLEET_PROCESSES,
                concurrency, job_requests, _job_call,
            )
            if concurrency == _FLEET_PROCESSES:
                fleet_indexed_c4 = row
        fleet_metrics = client.fleet_metrics()
    finally:
        supervisor.close()
        writer.close()

    counters = dict(metrics.get("counters", {}))
    table.notes.append(
        "cached mix asserts every request is a cache hit "
        f"(hits={counters.get('cache_hits', 0)}, "
        f"sigma_evaluations={counters.get('sigma_evaluations', 0)} "
        "total across all jobs)"
    )
    table.notes.append(
        "indexed-job mix runs one anytime job per request over the "
        "prebuilt edge-similarity index"
    )
    speedup = None
    if single_indexed_c4 and fleet_indexed_c4:
        base = float(single_indexed_c4["throughput_rps"])  # type: ignore[arg-type]
        if base > 0:
            speedup = float(fleet_indexed_c4["throughput_rps"]) / base  # type: ignore[arg-type]
            table.notes.append(
                f"fleet speedup (indexed-job, c={_FLEET_PROCESSES}, "
                f"{_FLEET_PROCESSES} shards vs 1 process): "
                f"{speedup:.2f}x on {cpu_count} cpus"
                + (
                    " — needs >=4 cores to show the >=2x criterion"
                    if cpu_count < 4
                    else ""
                )
            )

    payload = {
        "quick": bool(quick),
        "graph": {
            "n": int(graph.num_vertices),
            "m": int(graph.num_edges),
        },
        "cpu_count": cpu_count,
        "fleet_processes": _FLEET_PROCESSES,
        "fleet_speedup_indexed": speedup,
        "levels": json_levels,
        "counters": counters,
        "fleet_counters": dict(fleet_metrics.get("counters", {})),
    }
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    out_path = os.path.join(out_dir, "BENCH_service.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    table.notes.append(f"json written to {out_path}")
    return [table]
