"""E2E acceptance over the wire: one live server, real HTTP clients.

Covers the issue's service-level criteria end to end:

* a served clustering equals the sequential ``scan`` baseline exactly
  (canonical labels — raw ids are scheduler-dependent by design);
* a repeated query is answered from the result cache with **zero** σ
  evaluations, asserted both on the response body and on the
  ``/metrics`` counters;
* a near-miss query (new ε, μ on an indexed graph) is answered by the
  clustering index as a fresh job that also performs zero σ
  evaluations;
* ``update-edges`` invalidates exactly the affected cache entries;
* two concurrent jobs run interleaved; a mid-run snapshot reports
  ``assigned_fraction`` strictly inside (0, 1);
* domain errors map to 400/404/409 with JSON bodies (409 for results
  not yet available and for job transitions a finished job refuses);
* servers sharing one listening socket (the fleet's pre-forked accept)
  stop promptly.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.result import Clustering
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import ClusteringServer

pytestmark = pytest.mark.timeout(120)

_WAIT = 60.0


@pytest.fixture(scope="module")
def server():
    with ClusteringServer(workers=2, slice_iterations=2) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=_WAIT)


def _lfr(n, seed):
    graph, _ = lfr_graph(
        LFRParams(n=n, average_degree=8, max_degree=30, seed=seed)
    )
    return graph


def _canonical(labels):
    return Clustering(labels=np.asarray(labels, dtype=np.int64)).canonical()


def test_health_and_graph_listing(client):
    assert client.health()["status"] == "ok"
    graph = _lfr(120, seed=21)
    info = client.load_graph("listing", graph=graph)
    assert info["num_vertices"] == graph.num_vertices
    assert info["num_edges"] == graph.num_edges
    assert "listing" in [g["name"] for g in client.graphs()]
    assert client.graph_info("listing")["fingerprint"] == info["fingerprint"]


def test_keepalive_round_trips_skip_the_delayed_ack_stall(client):
    """Headers and body leave the server in two writes; with Nagle on,
    each keep-alive response would wait ~40 ms for the client's delayed
    ACK.  TCP_NODELAY keeps a trivial round trip far below that."""
    client.health()  # open the persistent connection
    trips = []
    for _ in range(20):
        started = time.perf_counter()
        client.health()
        trips.append(time.perf_counter() - started)
    assert float(np.median(trips)) < 0.020, trips


def test_load_graph_from_raw_edges(client):
    info = client.load_graph(
        "triangle", edges=[[0, 1], [1, 2], [0, 2], [2, 3, 0.5]]
    )
    assert info["num_vertices"] == 4
    assert info["num_edges"] == 4
    with pytest.raises(ServiceClientError) as excinfo:
        client.load_graph("bad", edges=[[0, 5]], num_vertices=2)
    assert excinfo.value.status == 400


def test_load_payload_with_build_index_is_refused(client):
    """The edge-only index mode is gone: an old client that still sends
    ``build_index`` gets a 400 naming ``build_cluster_index`` instead
    of a silently unindexed graph."""
    for value in (True, False):
        with pytest.raises(ServiceClientError) as excinfo:
            client.request(
                "POST",
                "/graphs",
                {"name": "old", "edges": [[0, 1], [1, 2]],
                 "build_index": value},
            )
        assert excinfo.value.status == 400
        assert "build_cluster_index" in str(excinfo.value)
    assert "old" not in [g["name"] for g in client.graphs()]


def test_payloads_still_carrying_mu_cap_answer_200(client, server):
    """Older clients send ``mu_cap`` on ``POST /graphs`` and
    ``POST /graphs/{name}/index``; the field is ignored, the graph is
    indexed, and a query above any old cap stays exact."""
    graph = _lfr(120, seed=23)
    edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]
    for path, payload in (
        ("/graphs", {"name": "capped", "edges": edges,
                     "num_vertices": graph.num_vertices, "mu_cap": 4}),
        ("/graphs/capped/index", {"mu_cap": 9}),
    ):
        request = urllib.request.Request(
            server.url + path,
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=_WAIT) as response:
            assert response.status == 200
            info = json.loads(response.read().decode("utf-8"))
        assert "mu_cap" not in info
    assert info["cluster_indexed"] is True
    body = client.cluster("capped", 17, 0.2, wait=_WAIT)
    expected = scan(graph, 17, 0.2).canonical()
    assert np.array_equal(_canonical(body["labels"]).labels, expected.labels)


def test_served_result_matches_sequential_scan(client):
    graph = _lfr(300, seed=22)
    client.load_graph("exact", graph=graph)
    body = client.cluster("exact", 3, 0.6, wait=_WAIT)
    assert body["state"] == "done" and body["cached"] is False
    expected = scan(graph, 3, 0.6).canonical()
    got = _canonical(body["labels"])
    assert np.array_equal(got.labels, expected.labels)
    assert body["num_clusters"] == expected.num_clusters


def test_repeat_query_hits_cache_with_zero_sigma_evaluations(client, server):
    graph = _lfr(250, seed=23)
    client.load_graph("warm", graph=graph, build_cluster_index=True)
    first = client.cluster("warm", 3, 0.6, wait=_WAIT)
    assert first["state"] == "done" and first["cached"] is False

    before = client.metrics()["counters"]
    second = client.cluster("warm", 3, 0.6, wait=_WAIT)
    after = client.metrics()["counters"]

    assert second["cached"] is True
    assert second["sigma_evaluations"] == 0
    assert second["job_id"] is None
    assert np.array_equal(second["labels"], first["labels"])
    assert after["cache_hits"] - before.get("cache_hits", 0) == 1
    # The zero-σ acceptance check, on the server's own accounting.
    assert after.get("sigma_evaluations", 0) == before.get(
        "sigma_evaluations", 0
    )
    assert after.get("jobs_submitted", 0) == before.get("jobs_submitted", 0)


def test_near_miss_on_indexed_graph_runs_without_sigma_evaluations(client):
    """New (ε, μ) on an indexed graph: fresh job, zero σ evaluations."""
    graph = _lfr(250, seed=24)
    client.load_graph("indexed", graph=graph, build_cluster_index=True)
    before = client.metrics()["counters"]
    body = client.cluster("indexed", 4, 0.55, wait=_WAIT)
    after = client.metrics()["counters"]
    assert body["state"] == "done" and body["cached"] is False
    assert body["sigma_evaluations"] == 0
    assert after.get("sigma_evaluations", 0) == before.get(
        "sigma_evaluations", 0
    )
    assert after.get("jobs_completed", 0) > before.get("jobs_completed", 0)
    expected = scan(graph, 4, 0.55).canonical().labels
    assert np.array_equal(_canonical(body["labels"]).labels, expected)


def test_two_concurrent_jobs_interleave(client, server):
    # Large enough that neither job can run to completion inside the
    # submission gap (one HTTP round-trip, which can stretch to tens
    # of milliseconds late in a long suite run) — the interleaving
    # assertions below need the jobs' lifetimes to actually overlap.
    g1 = _lfr(2000, seed=25)
    g2 = _lfr(2000, seed=26)
    client.load_graph("conc-a", graph=g1)
    client.load_graph("conc-b", graph=g2)
    job_a = client.cluster("conc-a", 3, 0.6, alpha=16, beta=16)["job_id"]
    job_b = client.cluster("conc-b", 3, 0.6, alpha=16, beta=16)["job_id"]
    assert job_a and job_b and job_a != job_b
    body_a = client.result(job_a, wait=_WAIT)
    body_b = client.result(job_b, wait=_WAIT)
    assert body_a["state"] == "done" and body_b["state"] == "done"
    for graph, body in ((g1, body_a), (g2, body_b)):
        expected = scan(graph, 3, 0.6).canonical().labels
        assert np.array_equal(_canonical(body["labels"]).labels, expected)
    # Both jobs took multiple slices through the shared worker pool.
    jobs = {j["job_id"]: j for j in client.jobs()}
    assert jobs[job_a]["slices"] >= 2 and jobs[job_b]["slices"] >= 2
    log = server.service.scheduler.slice_log
    positions_a = [i for i, j in enumerate(log) if j == job_a]
    positions_b = [i for i, j in enumerate(log) if j == job_b]
    # Interleaved: job B got a slice before job A finished (and vice
    # versa) rather than running head-of-line.
    assert min(positions_b) < max(positions_a)
    assert min(positions_a) < max(positions_b)


def test_mid_run_snapshot_over_http(client):
    graph = _lfr(800, seed=27)
    client.load_graph("big", graph=graph)
    job_id = client.cluster("big", 3, 0.5, alpha=16, beta=16)["job_id"]
    observed = None
    deadline = time.monotonic() + _WAIT
    while time.monotonic() < deadline:
        snap = client.snapshot(job_id)
        if 0.0 < snap["assigned_fraction"] < 1.0 and not snap["final"]:
            observed = snap
            break
        if client.status(job_id)["finished"]:
            break
    assert observed is not None, "job finished without a partial snapshot"
    assert len(observed["labels"]) == graph.num_vertices
    assert observed["num_clusters"] >= 0
    body = client.result(job_id, wait=_WAIT, labels=False)
    assert body["state"] == "done"
    assert "labels" not in body  # labels=false suppresses the payload


def test_update_edges_invalidates_exactly_affected_entries(client):
    ga = _lfr(150, seed=28)
    gb = _lfr(150, seed=29)
    client.load_graph("upd-a", graph=ga)
    client.load_graph("upd-b", graph=gb)
    for epsilon in (0.5, 0.6):
        assert client.cluster("upd-a", 3, epsilon, wait=_WAIT)["state"] == "done"
    assert client.cluster("upd-b", 3, 0.5, wait=_WAIT)["state"] == "done"
    assert client.cluster("upd-b", 3, 0.5)["cached"] is True

    # Connect a brand-new vertex: guaranteed not already an edge.
    outcome = client.update_edges(
        "upd-a", insert=[[ga.num_vertices, 0]], add_vertices=1
    )
    assert outcome["cache_entries_invalidated"] == 2
    assert outcome["inserted"] == 1
    assert outcome["fingerprint"] != outcome["previous_fingerprint"]
    # No index to refresh: the update does no σ work.
    assert outcome["sigma_recomputations"] == 0

    # The other graph's entries survived; upd-a's are gone.
    assert client.cluster("upd-b", 3, 0.5)["cached"] is True
    fresh = client.cluster("upd-a", 3, 0.5, wait=_WAIT)
    assert fresh["cached"] is False and fresh["state"] == "done"
    assert client.graph_info("upd-a")["updates_applied"] == 1


def test_update_edges_refreshes_the_cluster_index(client):
    graph = _lfr(150, seed=31)
    client.load_graph("upd-c", graph=graph, build_cluster_index=True)
    outcome = client.update_edges(
        "upd-c", insert=[[graph.num_vertices, 0]], add_vertices=1
    )
    # The new vertex, vertex 0 and 0's neighbors are recomputed; their
    # slots are the σ work reported.
    rows = {graph.num_vertices, 0} | set(graph.neighbors(0).tolist())
    assert outcome["index_rows_refreshed"] == len(rows)
    slots = sum(graph.degree(v) for v in rows if v < graph.num_vertices)
    assert outcome["sigma_recomputations"] == slots + 2
    assert client.graph_info("upd-c")["cluster_indexed"] is True


def test_update_edges_rejects_non_finite_weights(client, server):
    graph = _lfr(150, seed=32)
    client.load_graph("upd-nan", graph=graph)
    before = client.graph_info("upd-nan")["fingerprint"]
    u, v = next(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if not graph.has_edge(u, v)
    )
    for weight in ("NaN", "Infinity"):
        request = urllib.request.Request(
            server.url + "/graphs/upd-nan/update-edges",
            data=f'{{"insert": [[{u}, {v}, {weight}]]}}'.encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(request, timeout=_WAIT)
        assert http_error.value.code == 400
        body = json.loads(http_error.value.read().decode("utf-8"))
        assert "finite" in body["error"]
    assert client.graph_info("upd-nan")["fingerprint"] == before


def test_pause_resume_priority_cancel_endpoints(client):
    graph = _lfr(700, seed=30)
    client.load_graph("ctl", graph=graph)
    job_id = client.cluster("ctl", 3, 0.5, alpha=16, beta=16)["job_id"]
    paused = client.pause(job_id)
    assert paused["state"] in ("paused", "running", "done")
    deadline = time.monotonic() + _WAIT
    while client.status(job_id)["state"] not in ("paused", "done"):
        assert time.monotonic() < deadline
    status = client.status(job_id)
    if status["state"] == "paused":
        # A paused job's result is a 409, not an error page.
        with pytest.raises(ServiceClientError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409
        assert client.set_priority(job_id, 9)["priority"] == 9
        assert client.resume(job_id)["state"] in ("pending", "running")
    assert client.result(job_id, wait=_WAIT)["state"] == "done"

    victim = client.cluster("ctl", 4, 0.45, alpha=16, beta=16)["job_id"]
    cancelled = client.cancel(victim)
    assert cancelled["state"] in ("cancelled", "running", "done")
    deadline = time.monotonic() + _WAIT
    while not client.status(victim)["finished"]:
        assert time.monotonic() < deadline


def test_refused_job_transitions_answer_409(client):
    """Pausing, resuming or reprioritizing a finished job is a state
    conflict (409), not a malformed request (400)."""
    client.load_graph("settled", graph=_lfr(120, seed=31))
    job_id = client.cluster("settled", 3, 0.5, wait=_WAIT)["job_id"]
    assert client.status(job_id)["state"] == "done"
    for call in (
        client.pause,
        client.resume,
        lambda job: client.set_priority(job, 2),
    ):
        with pytest.raises(ServiceClientError) as excinfo:
            call(job_id)
        assert excinfo.value.status == 409
        assert "done" in str(excinfo.value)


def test_error_statuses(client, server):
    with pytest.raises(ServiceClientError) as excinfo:
        client.cluster("no-such-graph", 3, 0.5)
    assert excinfo.value.status == 400
    with pytest.raises(ServiceClientError) as excinfo:
        client.status("job-404000")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("GET", "/no/such/route")
    assert excinfo.value.status == 404

    # Malformed JSON body → 400 with a JSON error payload.
    request = urllib.request.Request(
        server.url + "/cluster",
        data=b"{not json",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as http_error:
        urllib.request.urlopen(request, timeout=_WAIT)
    assert http_error.value.code == 400
    body = json.loads(http_error.value.read().decode("utf-8"))
    assert "invalid JSON body" in body["error"]


def test_metrics_report_latency_histograms(client):
    client.health()
    snapshot = client.metrics()
    assert snapshot["latency"]["health"]["count"] >= 1
    assert snapshot["latency"]["health"]["p99_s"] >= 0.0
    assert "jobs" in snapshot["gauges"]
    assert "cache" in snapshot["gauges"]
    assert snapshot["counters"]["requests_total"] >= 1


def test_shutdown_endpoint_sets_the_event(client, server):
    assert not server.service.shutdown_event.is_set()
    assert client.shutdown()["status"] == "shutting-down"
    assert server.service.shutdown_event.is_set()


def test_servers_sharing_one_listener_close_promptly():
    """Two servers accepting on one listening socket, as fleet workers
    do, both stop within a deadline after serving: the server that
    loses an accept race must not sit in a blocking ``accept()`` that
    only the next connection would end."""
    for _ in range(4):
        listener = socket.create_server(("127.0.0.1", 0), backlog=16)
        port = listener.getsockname()[1]
        servers = [
            ClusteringServer(
                workers=1,
                sock=socket.socket(fileno=os.dup(listener.fileno())),
            ).start()
            for _ in range(2)
        ]
        try:
            for _ in range(5):
                with ServiceClient(
                    f"http://127.0.0.1:{port}", timeout=_WAIT
                ) as probe:
                    assert probe.health()["status"] == "ok"
            for live in servers:
                closer = threading.Thread(target=live.close, daemon=True)
                closer.start()
                closer.join(timeout=3.0)
                assert not closer.is_alive(), "close() hung in accept()"
        finally:
            listener.close()
