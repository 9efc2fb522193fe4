"""The clustering service: endpoint handlers + stdlib HTTP hosting.

:class:`ClusteringService` composes the pieces the previous layers
built — the :class:`~repro.service.store.GraphStore` (named graphs,
each with at most one clustering index), the
:class:`~repro.service.store.ResultCache`, the
:class:`~repro.service.jobs.JobScheduler` (anytime slices over a worker
pool) and :class:`~repro.service.metrics.ServiceMetrics` — behind the
wire protocol of :mod:`repro.service.api`.  The HTTP layer is a plain
``ThreadingHTTPServer`` (no dependencies beyond the stdlib): each
request thread parses JSON, dispatches to a ``handle_*`` method, and
records the endpoint's latency.

The cache discipline implements the issue's interactivity story:

* a `cluster` request first consults the LRU under the full query
  identity (graph fingerprint, σ semantics, μ, ε) — a hit answers with
  **zero** σ evaluations and no job;
* a miss on a graph with a clustering index is answered by the index
  directly — any (ε, μ), zero σ evaluations, no worker time; a miss on
  an un-indexed graph schedules an anytime anySCAN job;
* `update-edges` patches the CSR arrays, refreshes the affected rows
  of the clustering index, and invalidates exactly the entries keyed by
  the pre-update fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.core.anyscan import AnySCAN
from repro.core.config import AnyScanConfig
from repro.errors import ConfigError, GraphFormatError
from repro.faults import FaultInjected, fault_point
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.parallel.processes import (
    DegradationEvent,
    add_degradation_listener,
    remove_degradation_listener,
)
from repro.service import api
from repro.service.api import (
    ServiceError,
    clustering_payload,
    get_bool,
    get_float,
    get_int,
    get_str,
    snapshot_payload,
)
from repro.service.jobs import JobRecord, JobScheduler, JobState
from repro.service.metrics import ServiceMetrics, merge_metric_snapshots
from repro.local import local_cluster
from repro.service.store import (
    CachedLocalResult,
    CachedResult,
    GraphStore,
    ResultCache,
    make_cache_key,
    make_local_cache_key,
)
from repro.similarity.weighted import SimilarityConfig
from repro.validation import check_eps_mu

__all__ = ["ClusteringServer", "ClusteringService", "serve_main"]

_SIMILARITY_FIELDS = (
    "kind",
    "closed",
    "self_weight",
    "count_self",
    "pruning",
)

#: Remembered (graph, idempotency_key) → job_id pairs; old ones roll off.
_IDEMPOTENCY_LIMIT = 4096


def _similarity_from_payload(spec: object) -> Optional[SimilarityConfig]:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ServiceError("field 'similarity' must be an object")
    unknown = sorted(set(spec) - set(_SIMILARITY_FIELDS))
    if unknown:
        raise ServiceError(
            f"unknown similarity fields {unknown}; "
            f"allowed: {sorted(_SIMILARITY_FIELDS)}"
        )
    config = SimilarityConfig(**spec)
    config.validate()
    return config


class ClusteringService:
    """Endpoint implementations over store + cache + scheduler."""

    def __init__(
        self,
        *,
        workers: int = 2,
        slice_iterations: int = 4,
        cache_capacity: int = 128,
        default_alpha: int = 1024,
        default_beta: int = 1024,
        request_timeout: float = 30.0,
        max_pending_jobs: Optional[int] = None,
        store: Optional[GraphStore] = None,
        job_id_prefix: str = "job",
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if default_alpha < 1 or default_beta < 1:
            raise ConfigError("default block sizes must be >= 1")
        if request_timeout <= 0:
            raise ConfigError("request_timeout must be positive")
        if max_pending_jobs is not None and max_pending_jobs < 1:
            raise ConfigError("max_pending_jobs must be >= 1 (or None)")
        self.default_alpha = int(default_alpha)
        self.default_beta = int(default_beta)
        #: Socket read/write budget per HTTP request (stalled clients).
        self.request_timeout = float(request_timeout)
        #: Active-job ceiling; above it `cluster` answers 503+Retry-After.
        self.max_pending_jobs = (
            None if max_pending_jobs is None else int(max_pending_jobs)
        )
        # A caller-supplied registry lets recovery witness events land in
        # the same snapshot the /metrics endpoint serves.
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # Fleet workers inject an AttachedGraphStore (zero-copy reader
        # over the writer's shared-memory segments); standalone servers
        # own a plain in-process store.
        self.store = store if store is not None else GraphStore(
            metrics=self.metrics
        )
        if store is not None and getattr(store, "metrics", None) is None:
            store.metrics = self.metrics
        self.cache = ResultCache(capacity=cache_capacity)
        self.scheduler = JobScheduler(
            workers=workers,
            slice_iterations=slice_iterations,
            on_done=self._job_finished,
            id_prefix=job_id_prefix,
        )
        #: The :class:`repro.service.fleet.WriterFleet` (worker table +
        #: merged metrics) on a fleet's writer service; ``/fleet/*``
        #: handlers consult it.
        self.fleet = None
        #: Set by :func:`open_service` with a ``data_dir``: the
        #: :class:`~repro.service.durability.DurabilityManager` whose
        #: WAL the store journals to, whose checkpoint cadence
        #: :meth:`_durability_note` drives and which :meth:`close`
        #: checkpoints one last time.
        self.durability = None
        self.shutdown_event = threading.Event()
        # Replayed submissions: (graph, key) → the job already scheduled.
        self._idempotency: "OrderedDict[Tuple[str, str], str]" = OrderedDict()
        # Replayed mutations: (graph, key) → the update-edges response
        # already applied.  Keys are journaled with the batch, so the
        # table survives a crash (bodies degrade to replay markers).
        self._update_idempotency: "OrderedDict[Tuple[str, str], Dict[str, object]]" = (
            OrderedDict()
        )
        self._idempotency_lock = threading.Lock()
        # Execution-tier degradations (a local-cluster tier falling back
        # to the next) land in the metrics audit trail so operators see
        # them without log scraping.
        self._degradation_listener = add_degradation_listener(
            self._backend_degraded
        )
        self.metrics.register_gauge("jobs", self.scheduler.state_counts)
        self.metrics.register_gauge("cache", self.cache.stats)
        self.metrics.register_gauge("graphs", lambda: len(self.store))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        remove_degradation_listener(self._degradation_listener)
        self.scheduler.close()
        durability, self.durability = self.durability, None
        if durability is not None:
            # The scheduler is drained; the final checkpoint keeps the
            # jobs that stayed paused/pending for `--recover` to revive.
            durability.checkpoint(self.durability_snapshot())
            durability.close()
        if self.fleet is not None:
            self.fleet.publisher.close()  # unlinks the writer's segments

    def _backend_degraded(self, event: DegradationEvent) -> None:
        self.metrics.increment("backend_degradations")
        self.metrics.record_event("degradation", event.to_dict())

    def _job_finished(self, job: JobRecord) -> None:
        """Scheduler callback: account terminal jobs, fill the cache.

        Index-served jobs (born DONE via ``submit_completed``) carry no
        algorithm; their cost accounting travels in ``job.meta["stats"]``
        instead — by construction 0 σ evaluations.  Both kinds fill the
        same cache keyspace, so invalidation and hits are uniform.
        """
        if job.state is JobState.DONE and job.result is not None:
            if job.algorithm is not None:
                stats = job.algorithm.statistics()
            else:
                meta_stats = job.meta.get("stats")
                stats = (
                    dict(meta_stats)
                    if isinstance(meta_stats, dict)
                    else {"sigma_evaluations": 0, "compute_seconds": 0.0}
                )
            evaluations = int(stats["sigma_evaluations"])
            self.metrics.increment("jobs_completed")
            self.metrics.increment("sigma_evaluations", evaluations)
            key = job.meta.get("cache_key")
            fingerprint = job.meta.get("fingerprint")
            if key is not None and isinstance(fingerprint, str):
                # Guarded fill: the graph may have been unloaded or
                # mutated while the job ran; the store re-checks the
                # fingerprint under its lock so a finished-late job
                # cannot resurrect an already-invalidated entry.
                filled = self.store.fill_cache_if_current(
                    self.cache,
                    job.graph_name,
                    fingerprint,
                    key,
                    CachedResult(
                        labels=job.result.labels.copy(),
                        num_clusters=job.result.num_clusters,
                        sigma_evaluations=evaluations,
                        compute_seconds=float(stats["compute_seconds"]),
                    ),
                )
                if not filled:
                    self.metrics.increment("cache_fills_skipped_stale")
        elif job.state is JobState.FAILED:
            self.metrics.increment("jobs_failed")
        elif job.state is JobState.CANCELLED:
            self.metrics.increment("jobs_cancelled")

    # ------------------------------------------------------------------
    # graph endpoints
    # ------------------------------------------------------------------
    def handle_load_graph(self, payload: Dict[str, object]) -> Dict[str, object]:
        name = get_str(payload, "name")
        if "build_index" in payload:
            # The edge-only index mode is gone; refuse loudly rather
            # than hand an old client an unindexed graph.
            raise ServiceError(
                "field 'build_index' is no longer supported; pass "
                "'build_cluster_index' to index the graph"
            )
        edges = payload.get("edges")
        if not isinstance(edges, list):
            raise ServiceError("field 'edges' must be a list of [u, v(, w)]")
        max_vertex = -1
        for spec in edges:
            if not isinstance(spec, (list, tuple)) or len(spec) not in (2, 3):
                raise ServiceError(
                    "edges entries must be [u, v] or [u, v, weight]"
                )
            max_vertex = max(max_vertex, int(spec[0]), int(spec[1]))
        num_vertices = get_int(payload, "num_vertices", max_vertex + 1)
        assert num_vertices is not None
        if num_vertices <= max_vertex:
            raise ServiceError(
                f"num_vertices={num_vertices} but edges reference vertex "
                f"{max_vertex}"
            )
        builder = GraphBuilder(num_vertices)
        for spec in edges:
            weight = float(spec[2]) if len(spec) == 3 else 1.0
            builder.add_edge(int(spec[0]), int(spec[1]), weight)
        graph = builder.build(dedup="error")
        entry = self.store.add(
            name,
            graph,
            similarity=_similarity_from_payload(payload.get("similarity")),
            build_cluster_index=get_bool(payload, "build_cluster_index"),
            replace=get_bool(payload, "replace"),
        )
        self.metrics.increment("graphs_loaded")
        self._durability_note()
        return entry.info()

    def handle_list_graphs(self, payload: Dict[str, object]) -> Dict[str, object]:
        return {"graphs": self.store.infos()}

    def handle_graph_info(
        self, payload: Dict[str, object], name: str
    ) -> Dict[str, object]:
        return self.store.get(name).info()

    def handle_build_index(
        self, payload: Dict[str, object], name: str
    ) -> Dict[str, object]:
        """Build the graph's GS*-style clustering index (a graph that
        already has one keeps it).

        Subsequent ``cluster`` requests for this graph short-circuit to
        index extraction: any (ε, μ), zero σ evaluations.
        """
        self.store.ensure_cluster_index(name)
        self.metrics.increment("cluster_indexes_built")
        self._durability_note()
        return self.store.get(name).info()

    def handle_update_edges(
        self, payload: Dict[str, object], name: str
    ) -> Dict[str, object]:
        insert = payload.get("insert", [])
        delete = payload.get("delete", [])
        if not isinstance(insert, list) or not isinstance(delete, list):
            raise ServiceError("'insert' and 'delete' must be lists")
        add_vertices = get_int(payload, "add_vertices", 0)
        assert add_vertices is not None
        idem_key = payload.get("idempotency_key")
        if idem_key is not None and not isinstance(idem_key, str):
            raise ServiceError("field 'idempotency_key' must be a string")
        if idem_key:
            map_key = (name, idem_key)
            # Held across lookup + apply: two concurrent retries of the
            # same batch must not both mutate, and the store journals
            # the key inside this window, so a checkpoint snapshot can
            # never capture the mutation without its dedupe entry.
            with self._idempotency_lock:
                replay = self._update_idempotency.get(map_key)
                if replay is not None:
                    self._update_idempotency.move_to_end(map_key)
                    self.metrics.increment("update_idempotent_replays")
                    return dict(replay, replayed=True)
                body = self._apply_update_edges(
                    name,
                    insert,
                    delete,
                    add_vertices,
                    idempotency_key=idem_key,
                )
                self._update_idempotency[map_key] = dict(body)
                while len(self._update_idempotency) > _IDEMPOTENCY_LIMIT:
                    self._update_idempotency.popitem(last=False)
        else:
            body = self._apply_update_edges(
                name, insert, delete, add_vertices
            )
        self._durability_note()
        return body

    def _apply_update_edges(
        self,
        name: str,
        insert: list,
        delete: list,
        add_vertices: int,
        *,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        stats = self.store.update_edges(
            name,
            insert=insert,
            delete=delete,
            add_vertices=add_vertices,
            idempotency_key=idempotency_key,
        )
        return self._migrate_cache(
            {
                "graph": name,
                "fingerprint": stats.new_fingerprint,
                "previous_fingerprint": stats.old_fingerprint,
                "vertices_added": stats.vertices_added,
                "inserted": stats.inserted,
                "deleted": stats.deleted,
                "sigma_recomputations": stats.sigma_recomputations,
                "index_rows_refreshed": stats.index_rows_refreshed,
                "affected_vertices": [
                    int(v) for v in stats.affected_vertices
                ],
            }
        )

    def _migrate_cache(self, body: Dict[str, object]) -> Dict[str, object]:
        """Carry this process's cache across the update ``body`` reports.

        Local-query entries first: those whose read set is disjoint
        from the update survive (re-keyed to the new fingerprint); only
        results whose cluster was actually touched are evicted.  The
        global invalidation then sweeps whatever remains under the old
        fingerprint.  Fleet workers run this on the writer's answer.
        """
        old = str(body["previous_fingerprint"])
        migration = self.cache.migrate_local(
            old,
            str(body["fingerprint"]),
            list(body["affected_vertices"]),
            renumbered=int(body["vertices_added"]) > 0,
        )
        invalidated = self.cache.invalidate_fingerprint(old)
        self.metrics.increment("edge_updates")
        self.metrics.increment("cache_invalidated", invalidated)
        self.metrics.increment(
            "local_results_migrated", migration["moved"]
        )
        self.metrics.increment(
            "local_results_evicted", migration["evicted"]
        )
        return dict(
            body,
            cache_entries_invalidated=invalidated,
            local_results_migrated=migration["moved"],
            local_results_evicted=migration["evicted"],
        )

    # ------------------------------------------------------------------
    # seeded local clustering
    # ------------------------------------------------------------------
    def _ensure_local_indexes(self, name: str, entry):
        """Rebuild a dropped clustering index (mirrors
        ``_submit_cluster_job``).

        Overridden in fleet workers, whose attached store is read-only:
        they serve with whatever tier the writer last published.
        """
        if entry.auto_cluster_index and entry.cluster_index is None:
            entry = self.store.ensure_cluster_index(name)
        return entry

    def handle_local_cluster(
        self, payload: Dict[str, object], name: str
    ) -> Dict[str, object]:
        """The seed vertex's exact cluster, at output-proportional cost.

        Synchronous (no job machinery): local queries are the latency-
        sensitive per-user fast path, and their cost scales with the
        answer, not the graph.  Responses are cached under the seed-
        aware keyspace (:func:`make_local_cache_key`); the boundary is
        always computed before caching so one cache line serves both
        ``boundary`` settings.
        """
        seed = get_int(payload, "seed")
        mu = get_int(payload, "mu")
        epsilon = get_float(payload, "epsilon")
        if epsilon is None:
            epsilon = get_float(payload, "eps")
        if seed is None or mu is None or epsilon is None:
            raise ServiceError(
                "fields 'seed', 'mu' and 'epsilon' (or 'eps') are "
                "required"
            )
        check_eps_mu(mu=mu, epsilon=epsilon)
        order_seed = get_int(payload, "order_seed", 0) or 0
        include_boundary = get_bool(payload, "boundary", True)
        entry = self.store.get(name)
        key = make_local_cache_key(
            entry.fingerprint, entry.similarity, mu, epsilon, seed,
            order_seed,
        )
        self.metrics.increment("local_queries")
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.increment("local_cache_hits")
            body = dict(cached.payload)
            if not include_boundary:
                body.pop("boundary", None)
            body.update({"graph": name, "cached": True})
            return body
        self.metrics.increment("local_cache_misses")
        entry = self._ensure_local_indexes(name, entry)
        started = time.perf_counter()
        result = local_cluster(
            entry.graph,
            seed,
            epsilon,
            mu,
            cluster_index=entry.cluster_index,
            similarity_config=entry.similarity,
            order_seed=order_seed,
            classify_boundary=True,
        )
        elapsed = time.perf_counter() - started
        stats = result.stats
        # Per-request tier stats are the single accounting source here:
        # the index tiers' shared SimilarityCounters are deliberately
        # not re-read, so the short-circuit path cannot double-count.
        tier_counter = "local_tier_" + stats.tier.replace("-", "_")
        self.metrics.increment(tier_counter)
        self.metrics.increment(
            "local_sigma_evaluations", stats.sigma_evaluations
        )
        self.metrics.increment("local_touched_edges", stats.touched_edges)
        if stats.degraded_from:
            self.metrics.increment(
                "local_tier_degradations", len(stats.degraded_from)
            )
        payload_body = result.to_dict()
        payload_body["compute_seconds"] = elapsed
        self.store.fill_cache_if_current(
            self.cache,
            name,
            entry.fingerprint,
            key,
            CachedLocalResult(
                payload=dict(payload_body),
                touched=result.touched,
                sigma_evaluations=int(stats.sigma_evaluations),
                compute_seconds=elapsed,
            ),
        )
        body = payload_body
        if not include_boundary:
            body = dict(payload_body)
            body.pop("boundary", None)
        body.update({"graph": name, "cached": False})
        return body

    # ------------------------------------------------------------------
    # clustering endpoints
    # ------------------------------------------------------------------
    def handle_cluster(self, payload: Dict[str, object]) -> Dict[str, object]:
        name = get_str(payload, "graph")
        mu = get_int(payload, "mu")
        epsilon = get_float(payload, "epsilon")
        if mu is None or epsilon is None:
            raise ServiceError("fields 'mu' and 'epsilon' are required")
        check_eps_mu(mu=mu, epsilon=epsilon)
        wait = get_float(payload, "wait", 0.0)
        assert wait is not None
        include_labels = get_bool(payload, "labels", True)
        entry = self.store.get(name)
        key = make_cache_key(entry.fingerprint, entry.similarity, mu, epsilon)
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.increment("cache_hits")
            body = clustering_payload(
                cached.labels, include_labels=include_labels
            )
            body.update(
                {
                    "graph": name,
                    "state": "done",
                    "cached": True,
                    "job_id": None,
                    "sigma_evaluations": 0,
                }
            )
            return body
        self.metrics.increment("cache_misses")
        idem_key = payload.get("idempotency_key")
        if idem_key is not None and not isinstance(idem_key, str):
            raise ServiceError("field 'idempotency_key' must be a string")
        if idem_key:
            map_key = (name, idem_key)
            # Held across lookup + submit: two concurrent retries of the
            # same request must not both schedule a job.
            with self._idempotency_lock:
                job_id = self._idempotency.get(map_key)
                # A key whose job retention already dropped submits
                # afresh rather than pointing at an unknown id.
                if job_id is None or job_id not in self.scheduler:
                    self._admit_or_reject()
                    job_id = self._submit_cluster_job(
                        payload, entry, name, mu, epsilon, key
                    )
                    self._idempotency[map_key] = job_id
                    while len(self._idempotency) > _IDEMPOTENCY_LIMIT:
                        self._idempotency.popitem(last=False)
                else:
                    self._idempotency.move_to_end(map_key)
                    self.metrics.increment("idempotent_replays")
        else:
            self._admit_or_reject()
            job_id = self._submit_cluster_job(
                payload, entry, name, mu, epsilon, key
            )
        if wait > 0:
            info = self.scheduler.wait(job_id, timeout=wait)
            if info["state"] == JobState.DONE.value:
                return self._result_body(
                    job_id, name, include_labels=include_labels
                )
            return dict(info, cached=False)
        return dict(self.scheduler.info(job_id), cached=False)

    def _admit_or_reject(self) -> None:
        """Backpressure: refuse new jobs while the scheduler is saturated.

        A 503 with ``Retry-After`` is cheap and honest; accepting the
        job would only grow an unbounded queue the client interprets as
        a hang.
        """
        if self.max_pending_jobs is None:
            return
        active = self.scheduler.active_count()
        if active >= self.max_pending_jobs:
            self.metrics.increment("backpressure_rejections")
            raise ServiceError(
                f"scheduler is saturated ({active} active jobs, limit "
                f"{self.max_pending_jobs}); retry later",
                status=503,
                retry_after=1.0,
            )

    def _submit_cluster_job(
        self,
        payload: Dict[str, object],
        entry,
        name: str,
        mu: int,
        epsilon: float,
        key,
    ) -> str:
        if entry.auto_cluster_index and entry.cluster_index is None:
            # The clustering index went stale after update-edges (and
            # could not be patched in place); rebuild lazily.
            entry = self.store.ensure_cluster_index(name)
        if entry.cluster_index is not None:
            # Default query path: the GS*-style index extracts the
            # exact clustering directly — zero σ evaluations, no worker
            # time.  The answer still registers as a (born-DONE) job so
            # polling, accounting, and the cache fill are uniform.
            started = time.perf_counter()
            result = entry.cluster_index.query(
                epsilon, mu, seed=get_int(payload, "seed", 0) or 0
            )
            elapsed = time.perf_counter() - started
            job_id = self.scheduler.submit_completed(
                result,
                graph_name=name,
                mu=mu,
                epsilon=epsilon,
                priority=get_int(payload, "priority", 0) or 0,
                meta={
                    "cache_key": key,
                    "fingerprint": entry.fingerprint,
                    "served_by": "cluster-index",
                    "stats": {
                        "sigma_evaluations": 0,
                        "compute_seconds": elapsed,
                    },
                },
                sigma_evaluations=0,
                compute_seconds=elapsed,
            )
            self.metrics.increment("index_served_queries")
            self.metrics.increment("jobs_submitted")
            return job_id
        config = AnyScanConfig(
            mu=mu,
            epsilon=epsilon,
            alpha=get_int(payload, "alpha", self.default_alpha) or 1,
            beta=get_int(payload, "beta", self.default_beta) or 1,
            seed=get_int(payload, "seed", 0) or 0,
            similarity=entry.similarity,
            record_costs=False,
        )
        algorithm = AnySCAN(
            entry.graph, config, oracle=self.store.oracle_for(entry)
        )
        job_id = self.scheduler.submit(
            algorithm,
            graph_name=name,
            mu=mu,
            epsilon=epsilon,
            priority=get_int(payload, "priority", 0) or 0,
            meta={"cache_key": key, "fingerprint": entry.fingerprint},
        )
        self.metrics.increment("jobs_submitted")
        return job_id

    def _result_body(
        self, job_id: str, graph_name: str, *, include_labels: bool
    ) -> Dict[str, object]:
        labels = self.scheduler.result(job_id).labels
        snap = self.scheduler.snapshot(job_id)
        body = clustering_payload(labels, include_labels=include_labels)
        body.update(
            {
                "graph": graph_name,
                "job_id": job_id,
                "state": "done",
                "cached": False,
                "sigma_evaluations": int(snap.sigma_evaluations),
            }
        )
        return body

    # ------------------------------------------------------------------
    # job endpoints
    # ------------------------------------------------------------------
    def handle_list_jobs(self, payload: Dict[str, object]) -> Dict[str, object]:
        return {"jobs": self.scheduler.list_jobs()}

    def handle_job_status(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        return self.scheduler.info(job_id)

    def handle_job_snapshot(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        include_labels = get_bool(payload, "labels", True)
        snap = self.scheduler.snapshot(job_id)
        body = snapshot_payload(snap, include_labels=include_labels)
        body["job_id"] = job_id
        body.update(
            state=self.scheduler.info(job_id)["state"],
        )
        return body

    def handle_job_result(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        wait = get_float(payload, "wait")
        include_labels = get_bool(payload, "labels", True)
        if wait is not None:
            info = self.scheduler.wait(job_id, timeout=wait)
        else:
            info = self.scheduler.info(job_id)
        if info["state"] == JobState.DONE.value:
            return self._result_body(
                job_id, str(info["graph"]), include_labels=include_labels
            )
        if info["state"] == JobState.FAILED.value:
            raise ServiceError(
                f"job {job_id} failed: {info['error']}", status=500
            )
        raise ServiceError(
            f"job {job_id} is {info['state']}; result not available",
            status=409,
        )

    def handle_pause_job(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        return self.scheduler.pause(job_id)

    def handle_resume_job(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        return self.scheduler.resume(job_id)

    def handle_cancel_job(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        return self.scheduler.cancel(job_id)

    def handle_set_priority(
        self, payload: Dict[str, object], job_id: str
    ) -> Dict[str, object]:
        priority = get_int(payload, "priority")
        if priority is None:
            raise ServiceError("field 'priority' is required")
        return self.scheduler.reprioritize(job_id, priority)

    def forward_job(
        self,
        job_id: str,
        method: str,
        path: str,
        payload: Dict[str, object],
    ) -> Optional[Dict[str, object]]:
        """Job-route hook: the owner's answer for a job owned by another
        process, or ``None`` to serve it here (always, outside a fleet;
        see :meth:`repro.service.fleet.WorkerService.forward_job`)."""
        return None

    # ------------------------------------------------------------------
    # durability (WAL + checkpoints; see repro.service.durability)
    # ------------------------------------------------------------------
    def seed_update_keys(self, keys) -> None:
        """Prime the update-edges dedupe table from recovered WAL keys.

        Replay bodies after a restart are markers, not the original
        responses — the durable contract is exactly-once application,
        so a batch retried across the crash answers ``replayed`` /
        ``recovered`` instead of double-applying.
        """
        with self._idempotency_lock:
            for name, key in keys:
                self._update_idempotency[(str(name), str(key))] = {
                    "graph": str(name),
                    "idempotency_key": str(key),
                    "recovered": True,
                }
            while len(self._update_idempotency) > _IDEMPOTENCY_LIMIT:
                self._update_idempotency.popitem(last=False)

    def import_recovered_jobs(self, blobs) -> int:
        """Revive checkpointed paused/pending jobs; returns the count."""
        revived = 0
        for blob in blobs:
            try:
                self.scheduler.import_job(blob)
            except Exception as exc:  # pickle payloads fail arbitrarily
                self.metrics.record_event(
                    "recovery_job_import_failed",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
                continue
            revived += 1
        if revived:
            self.metrics.increment("jobs_recovered", revived)
        return revived

    def durability_snapshot(self) -> Dict[str, object]:
        """One coherent checkpoint input: entries + keys + paused jobs.

        Lock order matters: the idempotency lock is taken first (same
        order as the keyed update path), then the store lock inside
        ``checkpoint_snapshot`` — so every journaled mutation at or
        below the returned ``wal_seq`` is reflected in the entries and
        every key journaled with those mutations is in the table.
        """
        with self._idempotency_lock:
            update_keys = list(self._update_idempotency.keys())
            entries, wal_seq = self.store.checkpoint_snapshot()
        job_blobs = []
        for info in self.scheduler.list_jobs():
            if info["state"] in (
                JobState.PAUSED.value,
                JobState.PENDING.value,
            ):
                try:
                    job_blobs.append(
                        self.scheduler.export_job(str(info["job_id"]))
                    )
                except Exception as exc:
                    # The job raced into RUNNING (or its algorithm does
                    # not pickle); the WAL still covers the mutations,
                    # only this job's resumability is lost.
                    self.metrics.record_event(
                        "checkpoint_job_skipped",
                        {
                            "job_id": info["job_id"],
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
        return {
            "wal_seq": wal_seq,
            "entries": entries,
            "job_blobs": job_blobs,
            "update_keys": update_keys,
        }

    def _durability_note(self) -> None:
        """Tick the checkpoint cadence after an applied mutation."""
        if self.durability is not None:
            self.durability.note_applied(self.durability_snapshot)

    # ------------------------------------------------------------------
    # observability + shutdown
    # ------------------------------------------------------------------
    def handle_health(self, payload: Dict[str, object]) -> Dict[str, object]:
        return {
            "status": "ok",
            "graphs": len(self.store),
            "jobs": sum(self.scheduler.state_counts().values()),
        }

    def handle_metrics(self, payload: Dict[str, object]) -> Dict[str, object]:
        return self.metrics.snapshot()

    def handle_shutdown(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.shutdown_event.set()
        return {"status": "shutting-down"}

    # ------------------------------------------------------------------
    # fleet endpoints (overridden / activated by repro.service.fleet)
    # ------------------------------------------------------------------
    def handle_fleet_register(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        if self.fleet is None:
            raise ServiceError(
                "this server is not a fleet supervisor; "
                "start it with `repro serve --processes N`",
                status=400,
            )
        return self.fleet.register_worker(payload)

    def handle_fleet_metrics(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """Fleet-wide merged metrics; degenerate single-shard merge
        when no fleet is attached, so the response shape is uniform."""
        if self.fleet is not None:
            return self.fleet.merged_metrics()
        return merge_metric_snapshots([self.metrics.snapshot()])


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        handler,
        service: ClusteringService,
        *,
        sock: Optional[socket.socket] = None,
    ) -> None:
        if sock is None:
            super().__init__(address, handler)
        else:
            # Adopt an already-listening socket (fleet workers: the
            # supervisor's inherited pre-fork socket) instead of binding
            # a new one.  Non-blocking, because several servers accept
            # on it: socketserver selects, then accepts, and a blocking
            # accept() that loses the race to another process would
            # hang here — and with it shutdown() — until the next
            # connection arrives.  Losing now raises BlockingIOError,
            # which socketserver skips.
            sock.setblocking(False)
            super().__init__(address, handler, bind_and_activate=False)
            placeholder = self.socket
            self.socket = sock
            placeholder.close()
            host, port = sock.getsockname()[:2]
            self.server_address = (host, port)
            self.server_name = host
            self.server_port = port
        self.service = service
        self.request_timeout = service.request_timeout


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms per
    # keep-alive response).  ``StreamRequestHandler.setup`` sets
    # TCP_NODELAY on the connection when this is true.
    disable_nagle_algorithm = True

    # The metrics histograms carry the traffic story; per-request stderr
    # lines would swamp test output.
    def log_message(self, format: str, *args: object) -> None:
        pass

    def setup(self) -> None:
        # Bound every socket read/write: a stalled client must not pin
        # a handler thread forever (StreamRequestHandler applies
        # ``timeout`` to the connection in ``setup``).
        self.timeout = getattr(self.server, "request_timeout", 30.0)
        super().setup()

    def do_GET(self) -> None:
        self._serve("GET")

    def do_POST(self) -> None:
        self._serve("POST")

    def _serve(self, method: str) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        started = time.perf_counter()
        payload: Dict[str, object] = {}
        status = 400
        endpoint = "unmatched"
        body: Dict[str, object]
        try:
            fault_point("http.request")
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length > 0 else b""
        except (TimeoutError, OSError, FaultInjected):
            # The client stalled or reset mid-body; there is no one
            # left to answer, so drop the connection and account it.
            service.metrics.increment("request_read_failures")
            self.close_connection = True
            return
        try:
            if raw:
                decoded = json.loads(raw)
                if not isinstance(decoded, dict):
                    raise ValueError("request body must be a JSON object")
                payload = decoded
        except ValueError as exc:
            service.metrics.increment("bad_request_bodies")
            body = {"error": f"invalid JSON body: {exc}", "type": "BadRequest"}
        else:
            status, body, endpoint = api.dispatch(
                service, method, self.path, payload
            )
        data = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            retry_after = body.get("retry_after")
            if isinstance(retry_after, (int, float)):
                # Lift the body hint into the standard backoff header.
                self.send_header("Retry-After", f"{float(retry_after):g}")
            self.end_headers()
            self.wfile.write(data)
        except (TimeoutError, OSError):
            # The client went away while we answered; nothing to send
            # the error to, so count it and close.
            service.metrics.increment("response_write_failures")
            self.close_connection = True
        service.metrics.observe_latency(
            endpoint, time.perf_counter() - started
        )
        service.metrics.increment("requests_total")
        if status >= 400:
            service.metrics.increment("errors_total")


class ClusteringServer:
    """One service bound to a listening socket, served from a thread."""

    def __init__(
        self,
        service: Optional[ClusteringService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: Optional[socket.socket] = None,
        **service_kwargs: object,
    ) -> None:
        self.service = service or ClusteringService(**service_kwargs)
        self._httpd = _ServiceHTTPServer(
            (host, port), _Handler, self.service, sock=sock
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusteringServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "ClusteringServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# `repro serve` / `anyscan serve`
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Interactive anytime-clustering server (JSON over HTTP).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8421, help="0 picks a free port"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="server processes; >1 starts a sharded fleet sharing the "
        "graph store zero-copy through named shared-memory segments; "
        "every process accepts on one pre-forked listening socket",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="scheduler worker threads"
    )
    parser.add_argument(
        "--slice-iterations",
        type=int,
        default=4,
        help="anytime iterations one job runs before yielding the worker",
    )
    parser.add_argument("--cache-capacity", type=int, default=128)
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request socket read/write budget in seconds",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="active-job ceiling before `cluster` answers 503 with "
        "Retry-After; 0 disables backpressure",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN.json",
        help="arm a serialized fault plan at startup (chaos testing)",
    )
    parser.add_argument(
        "--alpha", type=int, default=1024, help="default block size α"
    )
    parser.add_argument(
        "--beta", type=int, default=1024, help="default block size β"
    )
    parser.add_argument(
        "--graph",
        action="append",
        default=None,
        metavar="NAME=PATH",
        help="preload an edge-list file (repeatable)",
    )
    parser.add_argument(
        "--weighted",
        action="store_true",
        help="read the third edge-list column as weight when preloading",
    )
    parser.add_argument(
        "--build-cluster-index",
        action="store_true",
        help="build the GS*-style clustering index for preloaded graphs "
        "(cluster requests then answer from the index: any (ε, μ), "
        "zero σ evaluations)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="PATH",
        help="durable mode: journal every accepted mutation to a "
        "write-ahead log under PATH; checkpoint periodically and on "
        "SIGTERM (graphs, indexes, idempotency keys, paused jobs)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="restore the newest checkpoint under --data-dir and replay "
        "the WAL tail before serving; without it a data directory that "
        "holds state is refused (exit 2), with or without --processes",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="checkpoint after this many applied mutations (durable "
        "mode); the WAL is compacted back to the oldest retained "
        "checkpoint after each one",
    )
    return parser


def _worker_options(args) -> Dict[str, object]:
    return {
        "workers": args.workers,
        "slice_iterations": args.slice_iterations,
        "cache_capacity": args.cache_capacity,
        "default_alpha": args.alpha,
        "default_beta": args.beta,
        "request_timeout": args.request_timeout,
        "max_pending_jobs": args.max_pending or None,
        "fault_plan": args.fault_plan,
    }


def _preload_specs(args) -> Optional[List[List[object]]]:
    """``--graph`` preloads as JSON-ready rows: ``[name, path, weighted,
    build_cluster_index]``; ``None`` after a malformed spec."""
    rows: List[List[object]] = []
    for spec in args.graph or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"--graph expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return None
        rows.append(
            [name, path, bool(args.weighted), bool(args.build_cluster_index)]
        )
    return rows


def preload_graphs(service: ClusteringService, specs) -> None:
    """Load each :func:`_preload_specs` row's edge list into the store.

    A graph that recovery already restored is skipped: re-adding it
    would journal it twice.  Every other add journals and publishes
    like any other mutation.  An unreadable or malformed edge list
    raises :class:`ConfigError` naming the spec.  Every serve mode preloads through
    :func:`open_service`, before its writer publishes anything.
    """
    from repro.graph.io import load_edge_list

    hosted = set(service.store.names())
    for spec in specs:
        name, path, weighted, build_cluster_index = spec
        if name in hosted:
            service.metrics.record_event("preload_skipped", {"graph": name})
            print(
                f"skipping preload of {name!r}: already recovered",
                file=sys.stderr,
            )
            continue
        try:
            graph, _ = load_edge_list(path, weighted=weighted)
        except (OSError, GraphFormatError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(
                f"cannot load --graph {name}={path}: {reason}"
            ) from exc
        service.store.add(
            name, graph, build_cluster_index=build_cluster_index
        )
        print(
            f"loaded {name}: {graph.num_vertices:,d} vertices, "
            f"{graph.num_edges:,d} edges",
            file=sys.stderr,
        )


def arm_fault_plan(options: Dict[str, object]) -> Dict[str, object]:
    """Arm the options' ``fault_plan`` file (every ``repro serve``
    process does); returns the other :class:`ClusteringService` kwargs."""
    options = dict(options)
    path = options.pop("fault_plan", None)
    if path:
        from repro.faults import FaultPlan, arm

        with open(str(path), "r", encoding="utf-8") as handle:
            plan = arm(FaultPlan.from_json(handle.read()))
        print(
            f"fault plan {plan.name or 'unnamed'!r} armed "
            f"({len(plan.rules)} rules) from {path}",
            file=sys.stderr,
        )
    return options


def open_service(
    options: Dict[str, object],
    graphs: List[List[object]],
    *,
    data_dir: Optional[str] = None,
    recover: bool = False,
    checkpoint_every: int = 64,
) -> ClusteringService:
    """The writer service of every ``repro serve`` mode, built from
    :class:`ClusteringService` kwargs, with the :func:`preload_graphs`
    rows ``graphs`` loaded.  With ``data_dir`` the store is recovered
    (checkpoint + WAL tail) and journals every mutation; a data dir
    holding state is refused unless ``recover`` is set."""
    if data_dir is None:
        service = ClusteringService(**options)
    else:
        from repro.service.durability import DurabilityManager

        metrics = ServiceMetrics()
        durability = DurabilityManager(
            data_dir, checkpoint_every=checkpoint_every, metrics=metrics
        )
        recovered = durability.recover()
        if not recover and (recovered.last_seq or len(recovered.store)):
            durability.close()
            raise ConfigError(
                f"data dir {data_dir!r} holds existing state "
                f"(WAL seq {recovered.last_seq}, {len(recovered.store)} "
                "graphs); pass --recover to restore it"
            )
        if recover:
            print(
                f"recovered {len(recovered.store)} graph(s) from "
                f"checkpoint seq {recovered.checkpoint_seq} + "
                f"{recovered.replayed_records} replayed WAL record(s); "
                f"{len(recovered.job_blobs)} suspended job(s)",
                file=sys.stderr,
            )
        service = ClusteringService(
            store=recovered.store, metrics=metrics, **options
        )
        service.seed_update_keys(recovered.update_keys)
        service.import_recovered_jobs(recovered.job_blobs)
        service.store.attach_journal(durability)
        service.durability = durability
    try:
        preload_graphs(service, graphs)
    except BaseException:
        service.close()  # the scheduler's threads, the journal
        raise
    return service


def serve_main(argv=None) -> int:
    """Entry point behind ``repro serve`` (and ``anyscan serve``).

    Every mode opens its writer through :func:`open_service` — here, or
    in the durable fleet's writer subprocess — and shares one tail:
    banner, SIGTERM drains, wait for shutdown, close.
    """
    args = _build_parser().parse_args(argv)
    # Shared-memory hygiene: a server signalled before it serves must
    # not leak segments.
    from repro.parallel.processes import install_signal_cleanup

    install_signal_cleanup()
    specs = _preload_specs(args)
    if specs is None:
        return 2
    options = _worker_options(args)
    durable = {
        "data_dir": args.data_dir,
        "recover": args.recover,
        "checkpoint_every": args.checkpoint_every,
    }
    host = None
    try:
        service_options = arm_fault_plan(options)
        if args.processes > 1:
            from repro.service.fleet import ServiceSupervisor

            # The durable fleet's writer is its own subprocess, so the
            # supervisor can survive its SIGKILL and respawn it onto the
            # live manifest; otherwise the writer runs in this process.
            host = ServiceSupervisor(
                None if args.data_dir
                else open_service(service_options, specs),
                host=args.host,
                port=args.port,
                processes=args.processes,
                worker_options=options,
                writer_graphs=specs,
                **durable,
            )
            shutdown = host.shutdown_event
            # Connections queue on the shared listener until a worker
            # accepts them; announce the port once every worker
            # registered.
            host.start().wait_ready()
            writer = "durable writer, " if args.data_dir else ""
            banner = (
                f"serving on {host.url} ({args.processes} processes, "
                f"{writer}control {host.control_url})"
            )
        else:
            service = open_service(service_options, specs, **durable)
            host = ClusteringServer(service, host=args.host, port=args.port)
            host.start()
            shutdown = service.shutdown_event
            banner = f"serving on {host.url}"
        print(banner, flush=True)
        wait_for_shutdown(shutdown)
    except ConfigError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    finally:
        if host is not None:
            host.close()
    return 0


def wait_for_shutdown(event, *, supervised: bool = False) -> None:
    """Serve until ``event`` is set, SIGTERM arrives or ^C.

    SIGTERM drains every serving process instead of killing it
    mid-request: the caller's close then takes the durable writer's
    final checkpoint and unlinks the segments.  A ``supervised`` fleet
    subprocess also stops once its supervisor died without reaping it
    (it was re-parented to init), rather than serve or journal for a
    fleet nobody manages.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: event.set())
    try:
        while not event.wait(timeout=0.2):
            if supervised and os.getppid() == 1:
                break
    except KeyboardInterrupt:  # repro: allow[swallow] - ^C is the shutdown signal
        print("interrupted; shutting down", file=sys.stderr)
