"""Service integration of the clustering index (the default query path).

Pins the contracts ISSUE 7 calls out:

* index-served answers register as born-DONE jobs and populate the
  **same** ``(fingerprint, σ-config, μ, ε)`` cache keyspace as
  scheduler-run jobs — a result computed by either path is a cache hit
  for the other;
* ``update-edges`` invalidation covers index-backed entries, including
  after a **mid-batch failure** (the stale-index regression): the
  partially-applied graph must never be answered by the old index or
  the old cache;
* a failed in-place index refresh degrades to drop-and-rebuild, never
  to a stale read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.service.jobs import JobScheduler
from repro.service.server import ClusteringService


def _edges(graph):
    owners = np.repeat(
        np.arange(graph.num_vertices), np.diff(graph.indptr)
    )
    mask = owners < graph.indices
    return [
        [int(u), int(v)]
        for u, v in zip(owners[mask].tolist(), graph.indices[mask].tolist())
    ]


@pytest.fixture()
def service():
    svc = ClusteringService(workers=2)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(90, 320, seed=13)


def _load(service, graph, name="g", **kwargs):
    payload = {
        "name": name,
        "num_vertices": graph.num_vertices,
        "edges": _edges(graph),
    }
    payload.update(kwargs)
    return service.handle_load_graph(payload)


def _cluster(service, name, mu, epsilon, **kwargs):
    payload = {"graph": name, "mu": mu, "epsilon": epsilon, "wait": "30"}
    payload.update(kwargs)
    return service.handle_cluster(payload)


# ----------------------------------------------------------------------
# the shared cache keyspace
# ----------------------------------------------------------------------
def test_index_and_scheduler_paths_share_cache_keys(service, graph):
    """A result computed by the anySCAN job path is a cache hit for the
    index path and vice versa — one keyspace, not two."""
    _load(service, graph)  # no index of any kind yet
    first = _cluster(service, "g", 3, 0.5)
    assert first["state"] == "done" and not first["cached"]

    # Building the index must not fork the keyspace: the job-computed
    # entry still answers.
    service.handle_build_index({}, "g")
    hit = _cluster(service, "g", 3, 0.5)
    assert hit["cached"] is True
    assert hit["labels"] == first["labels"]

    # A *new* (ε, μ) is served by the index and fills the same cache.
    miss = _cluster(service, "g", 4, 0.6)
    assert miss["state"] == "done" and not miss["cached"]
    again = _cluster(service, "g", 4, 0.6)
    assert again["cached"] is True
    assert again["labels"] == miss["labels"]
    counters = service.metrics.snapshot()["counters"]
    assert counters["index_served_queries"] >= 1
    assert counters["cache_hits"] >= 2


def test_index_served_jobs_are_real_jobs(service, graph):
    _load(service, graph, build_cluster_index=True)
    body = _cluster(service, "g", 2, 0.45, wait="0")
    job_id = body["job_id"]
    info = service.scheduler.info(job_id)
    assert info["state"] == "done"
    snap = service.scheduler.snapshot(job_id)
    assert snap.step == "index"
    assert snap.sigma_evaluations == 0
    result = service.scheduler.result(job_id)
    reference = scan(service.store.get("g").graph, 2, 0.45, seed=0)
    np.testing.assert_array_equal(result.labels, reference.labels)


def test_index_served_labels_match_reference_and_seed(service, graph):
    _load(service, graph, build_cluster_index=True)
    for mu, epsilon, seed in ((2, 0.4, 0), (4, 0.55, 9)):
        body = _cluster(service, "g", mu, epsilon, seed=seed)
        reference = scan(
            service.store.get("g").graph, mu, epsilon, seed=seed
        )
        np.testing.assert_array_equal(
            np.asarray(body["labels"]), reference.labels
        )


def test_submit_completed_requires_valid_parameters(graph):
    from repro.result import Clustering

    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    with JobScheduler(workers=1) as scheduler:
        with pytest.raises(ReproError):
            scheduler.submit_completed(
                Clustering(labels=labels), graph_name="g", mu=0, epsilon=0.5
            )
        job = scheduler.submit_completed(
            Clustering(labels=labels), graph_name="g", mu=2, epsilon=0.5
        )
        assert scheduler.info(job)["state"] == "done"
        assert scheduler.wait(job, timeout=5.0)["state"] == "done"


# ----------------------------------------------------------------------
# invalidation, including the mid-batch-failure regression
# ----------------------------------------------------------------------
def test_update_edges_invalidates_index_backed_cache_entries(
    service, graph
):
    _load(service, graph, build_cluster_index=True)
    assert _cluster(service, "g", 3, 0.5)["state"] == "done"
    assert _cluster(service, "g", 3, 0.5)["cached"] is True

    out = service.handle_update_edges(
        {"insert": [[0, graph.num_vertices - 1, 1.0]]}, "g"
    )
    assert out["cache_entries_invalidated"] >= 1
    assert out["index_rows_refreshed"] > 0

    after = _cluster(service, "g", 3, 0.5)
    assert after["cached"] is False
    reference = scan(service.store.get("g").graph, 3, 0.5, seed=0)
    np.testing.assert_array_equal(
        np.asarray(after["labels"]), reference.labels
    )


def test_no_stale_index_reads_after_mid_batch_failure(service, graph):
    """Regression: a batch that fails on its *second* op leaves the
    graph partially updated; the index and cache must follow the
    partial graph, not the pre-batch one."""
    _load(service, graph, build_cluster_index=True)
    assert _cluster(service, "g", 3, 0.5)["state"] == "done"
    assert _cluster(service, "g", 3, 0.5)["cached"] is True
    old_fingerprint = service.store.get("g").fingerprint

    # First insert applies; deleting a non-existent edge then fails.
    with pytest.raises(ReproError):
        service.handle_update_edges(
            {
                "insert": [[1, graph.num_vertices - 2, 1.0]],
                "delete": [[1, 1]],
            },
            "g",
        )
    entry = service.store.get("g")
    assert entry.fingerprint != old_fingerprint, "first op did apply"

    body = _cluster(service, "g", 3, 0.5)
    assert body["cached"] is False, "pre-batch cache entry survived"
    reference = scan(entry.graph, 3, 0.5, seed=0)
    np.testing.assert_array_equal(
        np.asarray(body["labels"]), reference.labels
    )
    # The index was patched in place (or rebuilt) for the partial graph.
    assert entry.cluster_index is not None
    assert entry.cluster_index.fingerprint == entry.fingerprint


def test_refresh_fault_degrades_to_rebuild_not_stale(service, graph):
    """An injected failure inside the refresh path drops the index; the
    next query rebuilds it lazily and still answers for the new graph."""
    _load(service, graph, build_cluster_index=True)
    assert _cluster(service, "g", 2, 0.5)["state"] == "done"

    plan = FaultPlan([FaultRule(site="store.index_refresh")])
    with armed(plan):
        out = service.handle_update_edges(
            {"insert": [[2, graph.num_vertices - 3, 1.0]]}, "g"
        )
    assert out["index_rows_refreshed"] == 0  # the patch was faulted away
    assert service.store.get("g").cluster_index is None
    # The degraded-mode decision lands on the metrics audit trail.
    assert service.metrics.events("index_refresh_failed")

    body = _cluster(service, "g", 2, 0.5)
    assert body["state"] == "done" and body["cached"] is False
    entry = service.store.get("g")
    reference = scan(entry.graph, 2, 0.5, seed=0)
    np.testing.assert_array_equal(
        np.asarray(body["labels"]), reference.labels
    )
    # auto_cluster_index entries rebuild on the next submission.
    assert entry.cluster_index is not None
    counters = service.metrics.snapshot()["counters"]
    assert counters["index_served_queries"] >= 2


def test_graph_info_reports_index_state(service, graph):
    _load(service, graph, build_cluster_index=True, mu_cap=7)
    info = service.handle_graph_info({}, "g")
    assert info["cluster_indexed"] is True
    assert info["auto_cluster_index"] is True
    assert "mu_cap" not in info  # an old payload field, ignored
