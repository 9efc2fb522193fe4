"""Failure-hardening acceptance at the service boundary (DESIGN.md §9).

Covers the HTTP-layer robustness contract end to end:

* a saturated scheduler answers 503 with a ``Retry-After`` hint and a
  ``backpressure_rejections`` counter, instead of queueing unboundedly;
* resubmitting a ``cluster`` POST with the same idempotency key replays
  the already-scheduled job — no duplicate work — unless job retention
  already dropped that job, when the retry submits afresh;
* the client retries transient failures on idempotent GETs (connection
  refused, 503) with backoff, and honors the server's ``Retry-After``;
* malformed request bodies surface as 400 + a ``bad_request_bodies``
  counter, and injected request-read faults never kill the server;
* a backend :class:`DegradationEvent` lands in the service metrics as a
  counter and a structured event record.
"""

from __future__ import annotations

import http.server
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.processes import DegradationEvent, emit_degradation
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import _TERMINAL_JOB_LIMIT
from repro.service.server import ClusteringServer

pytestmark = pytest.mark.timeout(120)


@pytest.fixture()
def server():
    with ClusteringServer(
        workers=1, slice_iterations=1, max_pending_jobs=1
    ) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=30.0, max_retries=0)


def _load(client, name="g", seed=7):
    client.load_graph(name, graph=gnm_random_graph(80, 240, seed=seed))


def _counter(client, name):
    return client.metrics()["counters"].get(name, 0)


class TestBackpressure:
    def test_saturation_yields_503_with_retry_after(self, server, client):
        _load(client)
        # Slow slices keep the first job active while the second arrives.
        plan = FaultPlan(
            [FaultRule(site="jobs.slice", kind="delay", delay=0.2, times=None)]
        )
        with armed(plan):
            first = client.cluster("g", 2, 0.5)
            with pytest.raises(ServiceClientError) as excinfo:
                client.cluster("g", 2, 0.6)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0
        assert _counter(client, "backpressure_rejections") >= 1
        deadline = time.monotonic() + 60.0
        while client.snapshot(first["job_id"], labels=False)["state"] != "done":
            assert time.monotonic() < deadline, "first job never finished"
            time.sleep(0.01)

    def test_capacity_frees_after_completion(self, server, client):
        _load(client)
        first = client.cluster("g", 2, 0.5, wait=60.0)
        assert first["state"] == "done"
        second = client.cluster("g", 2, 0.6, wait=60.0)
        assert second["state"] == "done"


class TestIdempotency:
    def test_same_key_replays_the_same_job(self, server, client):
        _load(client)
        # Slow slices so the job is still live when the retry arrives
        # (a finished job would be answered from the result cache).
        plan = FaultPlan(
            [FaultRule(site="jobs.slice", kind="delay", delay=0.1, times=None)]
        )
        with armed(plan):
            first = client.cluster("g", 2, 0.5, idempotency_key="req-1")
            # Replays bypass backpressure too: the job already exists.
            replay = client.cluster("g", 2, 0.5, idempotency_key="req-1")
        assert replay["job_id"] == first["job_id"]
        assert _counter(client, "idempotent_replays") >= 1
        done = client.result(first["job_id"], wait=60.0, labels=False)
        assert done["state"] == "done"

    def test_different_keys_schedule_fresh_jobs(self, server, client):
        _load(client)
        first = client.cluster("g", 2, 0.5, wait=60.0, idempotency_key="a")
        second = client.cluster("g", 2, 0.5, wait=60.0, idempotency_key="b")
        assert first["job_id"] != second["job_id"]

    def test_key_of_a_dropped_job_submits_afresh(self):
        with ClusteringServer(workers=1, cache_capacity=1) as live:
            client = ServiceClient(live.url, timeout=30.0, max_retries=0)
            client.load_graph(
                "g", graph=gnm_random_graph(80, 240, seed=7),
                build_cluster_index=True,
            )
            first = client.cluster("g", 2, 0.5, wait=30.0, idempotency_key="k")
            # Fresh (ε, μ) answers push the keyed job out of retention
            # and its result out of the one-entry cache.
            for i in range(_TERMINAL_JOB_LIMIT):
                client.cluster("g", 2, 0.3 + i / 1000, wait=30.0)
            with pytest.raises(ServiceClientError) as excinfo:
                client.status(first["job_id"])
            assert excinfo.value.status == 400
            assert "unknown job" in str(excinfo.value)
            retry = client.cluster("g", 2, 0.5, wait=30.0, idempotency_key="k")
            assert retry["job_id"] != first["job_id"]
            assert retry["labels"] == first["labels"]
            assert client.status(retry["job_id"])["state"] == "done"
            assert _counter(client, "idempotent_replays") == 0

    def test_non_string_key_is_rejected(self, server, client):
        _load(client)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request(
                "POST",
                "/cluster",
                {"graph": "g", "mu": 2, "epsilon": 0.5, "idempotency_key": 7},
            )
        assert excinfo.value.status == 400


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Answers 503 (with Retry-After) until ``failures`` runs out."""

    failures = 2
    hits = 0

    def do_GET(self):  # noqa: N802 - http.server naming
        cls = type(self)
        cls.hits += 1
        if cls.failures > 0:
            cls.failures -= 1
            body = json.dumps({"error": "warming up"}).encode()
            self.send_response(503)
            self.send_header("Retry-After", "0.01")
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # noqa: D102 - silence test noise
        pass


class TestClientRetries:
    def test_get_retries_through_transient_503(self):
        _FlakyHandler.failures = 2
        _FlakyHandler.hits = 0
        httpd = http.server.HTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_port}",
                timeout=5.0,
                max_retries=3,
                retry_backoff=0.01,
            )
            assert client.health()["status"] == "ok"
            assert _FlakyHandler.hits == 3
        finally:
            httpd.shutdown()
            thread.join(timeout=5.0)
            httpd.server_close()

    def test_retries_exhausted_surfaces_the_503(self):
        _FlakyHandler.failures = 10
        _FlakyHandler.hits = 0
        httpd = http.server.HTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_port}",
                timeout=5.0,
                max_retries=1,
                retry_backoff=0.01,
            )
            with pytest.raises(ServiceClientError) as excinfo:
                client.health()
            assert excinfo.value.status == 503
            assert _FlakyHandler.hits == 2  # initial try + one retry
        finally:
            httpd.shutdown()
            thread.join(timeout=5.0)
            httpd.server_close()

    def test_connection_refused_is_transient_then_raises(self):
        client = ServiceClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.5,
            max_retries=1,
            retry_backoff=0.01,
        )
        started = time.monotonic()
        with pytest.raises(ServiceClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert time.monotonic() - started < 10.0

    def test_posts_are_never_retried(self, server, client):
        """Non-idempotent verbs go through exactly once even with the
        retry budget available (duplicate submission protection)."""
        _load(client)
        retrying = ServiceClient(server.url, timeout=30.0, max_retries=3)
        before = _counter(client, "jobs_submitted")
        retrying.cluster("g", 2, 0.5, wait=60.0)
        assert _counter(client, "jobs_submitted") == before + 1


class TestMalformedRequests:
    def test_invalid_json_is_a_counted_400(self, server, client):
        request = urllib.request.Request(
            server.url + "/cluster",
            data=b"{nope",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert _counter(client, "bad_request_bodies") >= 1

    def test_injected_request_fault_does_not_kill_the_server(
        self, server, client
    ):
        plan = FaultPlan([FaultRule(site="http.request")])
        with armed(plan):
            with pytest.raises(ServiceClientError):
                client.health()
        # The connection died; the server must still answer new ones.
        assert client.health()["status"] == "ok"
        assert _counter(client, "request_read_failures") >= 1


class TestDegradationBridge:
    def test_backend_degradation_lands_in_service_metrics(self, server, client):
        event = DegradationEvent(
            backend="local-cluster-index",
            reason="unit-test bridge",
            failures=1,
            workers=0,
        )
        emit_degradation(event)
        metrics = client.metrics()
        assert metrics["counters"].get("backend_degradations", 0) >= 1
        recorded = metrics["events"]["degradation"]
        assert event.to_dict() in recorded
