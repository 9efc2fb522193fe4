"""Zero-copy shared-memory store + multi-process fleet (DESIGN.md §11).

Three layers, bottom up:

* :class:`~repro.service.shm.ManifestBlock` — the seqlock protocol in
  isolation: commit parity, torn-write detection, overflow, read-only
  enforcement, and the writer-died timeout;
* :class:`~repro.service.shm.StorePublisher` /
  :class:`~repro.service.shm.AttachedGraphStore` — an in-process
  writer/reader pair over real segments: byte-identical arrays, epoch
  bumps on mutation, unlink-after-commit hygiene, and the read-only
  contract of the attached view;
* the live fleet — :class:`~repro.service.fleet.ServiceSupervisor`
  with real worker subprocesses accepting on one pre-forked listening
  socket: responses byte-identical to a single-process server for the
  same request stream, including after ``update-edges`` routed through
  the writer; every job route answered by the owning shard from any
  shard (410 once the owner left the fleet); merged ``/fleet/metrics``
  of one shape with or without a durable writer; ``--graph`` preloads
  served by a durable fleet and skipped on ``--recover``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.errors import ConfigError
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.io import load_edge_list
from repro.parallel.processes import (
    SegmentRegistry,
    _release_named,
    shared_memory_available,
    untrack_attachment,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.fleet import ServiceSupervisor
from repro.service.server import ClusteringServer, ClusteringService
from repro.service.shm import (
    AttachedGraphStore,
    ManifestBlock,
    StorePublisher,
)
from repro.service.store import GraphStore

pytestmark = [
    pytest.mark.timeout(180),
    pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    ),
]

_WAIT = 60.0
_SETTINGS = ((2, 0.5), (3, 0.6), (4, 0.65))


def _lfr(n=150, seed=23):
    graph, _ = lfr_graph(
        LFRParams(n=n, average_degree=8, max_degree=30, seed=seed)
    )
    return graph


def _segments(pid=None):
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    pattern = f"repro_{pid}_*" if pid is not None else "repro_*"
    return sorted(p.name for p in shm_dir.glob(pattern))


# ----------------------------------------------------------------------
# ManifestBlock: the seqlock protocol
# ----------------------------------------------------------------------
class TestManifestBlock:
    def test_write_read_roundtrip_and_parity(self):
        with SegmentRegistry() as registry:
            shm = registry.create_block("manifest_test", 4096)
            writer = ManifestBlock(shm, writer=True)
            assert writer.generation() == 0
            generation = writer.write({"graphs": {"a": 1}})
            assert generation == 2  # first commit: 0 → 1 (pending) → 2
            reader = ManifestBlock(shm, writer=False)
            got_generation, payload = reader.read()
            assert got_generation == 2
            assert payload == {"graphs": {"a": 1}}
            assert writer.write({"graphs": {}}) == 4  # always even
            assert reader.read() == (4, {"graphs": {}})

    def test_read_only_block_rejects_writes(self):
        with SegmentRegistry() as registry:
            shm = registry.create_block("manifest_ro", 1024)
            ManifestBlock(shm, writer=True).write({"x": 1})
            reader = ManifestBlock(shm, writer=False)
            with pytest.raises(ConfigError, match="read-only"):
                reader.write({"x": 2})

    def test_oversized_payload_raises_before_touching_header(self):
        with SegmentRegistry() as registry:
            shm = registry.create_block("manifest_small", 64)
            writer = ManifestBlock(shm, writer=True)
            writer.write({"k": 1})
            with pytest.raises(ConfigError, match="exceeds"):
                writer.write({"k": "x" * 4096})
            # The failed write must not have torn the committed payload.
            assert ManifestBlock(shm, writer=False).read() == (2, {"k": 1})

    def test_never_written_manifest_times_out(self):
        with SegmentRegistry() as registry:
            shm = registry.create_block("manifest_empty", 1024)
            reader = ManifestBlock(shm, writer=False)
            with pytest.raises(ConfigError, match="never written"):
                reader.read()

    def test_mid_write_generation_times_out_as_writer_death(self):
        import struct

        with SegmentRegistry() as registry:
            shm = registry.create_block("manifest_torn", 1024)
            # Simulate a writer that died mid-update: odd generation.
            struct.Struct("<QQ").pack_into(shm.buf, 0, 3, 0)
            reader = ManifestBlock(shm, writer=False)
            with pytest.raises(ConfigError, match="mid-write"):
                reader.read()


# ----------------------------------------------------------------------
# segment hygiene primitives
# ----------------------------------------------------------------------
class TestSegmentHygiene:
    def test_release_named_owner_pid_guard(self):
        """A forked child inheriting the registry dict must never unlink
        the parent's live segments; only the owning pid releases."""
        shm = shared_memory.SharedMemory(
            name=f"repro_{os.getpid()}_guard_test", create=True, size=64
        )
        try:
            owned = {"guard_test": shm}
            _release_named(dict(owned), owner_pid=os.getpid() + 99_999)
            # Wrong pid: the segment must still exist and be attachable.
            probe = shared_memory.SharedMemory(name=shm.name)
            untrack_attachment(probe)
            probe.close()
        finally:
            _release_named({"guard_test": shm}, owner_pid=os.getpid())
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm.name)

    def test_untrack_attachment_keeps_owner_segment_alive(self):
        """Closing an untracked attachment must not unlink the segment
        (the attacher's resource tracker would otherwise reap it)."""
        with SegmentRegistry() as registry:
            spec = registry.publish("untrack", np.arange(8, dtype=np.int64))
            attached = shared_memory.SharedMemory(name=spec.shm_name)
            untrack_attachment(attached)
            attached.close()
            # Still attachable through the registry after the close.
            view = SegmentRegistry.attach(spec)
            np.testing.assert_array_equal(
                view, np.arange(8, dtype=np.int64)
            )


# ----------------------------------------------------------------------
# publisher ↔ attached store (in-process writer/reader pair)
# ----------------------------------------------------------------------
class TestPublisherAttachment:
    def test_roundtrip_epochs_and_unlink_after_commit(self):
        graph = _lfr()
        store = GraphStore()
        with StorePublisher() as publisher:
            store.attach_publisher(publisher)
            entry = store.add("g", graph, build_cluster_index=True)
            attached = AttachedGraphStore(publisher.manifest_name)
            try:
                assert attached.names() == ["g"]
                assert attached.epochs() == {"g": 1}
                got = attached.get("g")
                assert got.fingerprint == entry.fingerprint
                np.testing.assert_array_equal(
                    got.graph.indptr, graph.indptr
                )
                np.testing.assert_array_equal(
                    got.graph.indices, graph.indices
                )
                np.testing.assert_array_equal(
                    got.graph.weights, graph.weights
                )
                assert got.cluster_index is not None
                np.testing.assert_array_equal(
                    got.cluster_index.edge.sigmas,
                    entry.cluster_index.edge.sigmas,
                )

                epoch1_segments = set(_segments(os.getpid()))
                stats = store.update_edges(
                    "g", insert=[[0, 1, 1.0], [2, 5, 1.0]]
                )
                assert stats is not None
                assert attached.refresh() is True
                assert attached.epochs() == {"g": 2}
                fresh = attached.get("g")
                assert fresh.fingerprint == store.get("g").fingerprint
                np.testing.assert_array_equal(
                    fresh.graph.indices, store.get("g").graph.indices
                )
                # Unlink-after-commit: every epoch-1 graph segment is
                # gone; only the manifest survives from the old set.
                survivors = epoch1_segments & set(_segments(os.getpid()))
                assert all("e1" not in name for name in survivors - {
                    publisher.manifest_name.lstrip("/")
                } if "_g0" in name)

                store.remove("g")
                attached.refresh()
                assert attached.names() == []
            finally:
                attached.close()
        assert _segments(os.getpid()) == []

    def test_attached_store_is_read_only(self):
        graph = _lfr(n=60, seed=5)
        store = GraphStore()
        with StorePublisher() as publisher:
            store.attach_publisher(publisher)
            store.add("ro", graph)
            store.add("ro-indexed", graph, build_cluster_index=True)
            attached = AttachedGraphStore(publisher.manifest_name)
            try:
                with pytest.raises(ConfigError, match="read-only"):
                    attached.add("x", graph)
                with pytest.raises(ConfigError, match="read-only"):
                    attached.remove("ro")
                with pytest.raises(ConfigError, match="read-only"):
                    attached.update_edges("ro", insert=[[0, 1, 1.0]])
                # ensure_cluster_index never builds on a reader; it
                # serves what the writer published.
                assert (
                    attached.ensure_cluster_index("ro").cluster_index
                    is None
                )
                assert (
                    attached.ensure_cluster_index("ro-indexed").cluster_index
                    is not None
                )
            finally:
                attached.close()

    def test_adopted_manifest_keeps_every_graph_until_republished(self):
        """A respawned writer republishes entries one at a time; readers
        must keep seeing the graphs not yet republished, and only the
        retire step drops what was never republished."""
        dead_store = GraphStore()
        dead = StorePublisher(durable=True)
        try:
            dead_store.attach_publisher(dead)
            dead_store.add("a", _lfr(n=60, seed=7))
            dead_store.add("b", _lfr(n=60, seed=8))
            adopted = StorePublisher.adopt(dead.manifest_name)
            try:
                adopted.publish_entry(dead_store.get("a"))
                attached = AttachedGraphStore(adopted.manifest_name)
                try:
                    assert attached.names() == ["a", "b"]
                    assert attached.epochs()["a"] > attached.epochs()["b"]
                    adopted.retire_foreign_segments()
                    attached.refresh()
                    assert attached.names() == ["a"]
                finally:
                    attached.close()
            finally:
                adopted.close()
        finally:
            dead.close()
        assert _segments(os.getpid()) == []

    def test_fill_cache_guard_rejects_stale_fingerprint(self):
        graph = _lfr(n=60, seed=6)
        store = GraphStore()
        with StorePublisher() as publisher:
            store.attach_publisher(publisher)
            store.add("guard", graph)
            attached = AttachedGraphStore(publisher.manifest_name)
            try:
                fingerprint = attached.get("guard").fingerprint

                class _Cache:
                    def __init__(self):
                        self.puts = []

                    def put(self, key, value):
                        self.puts.append((key, value))

                cache = _Cache()
                assert attached.fill_cache_if_current(
                    cache, "guard", fingerprint, "k", "v"
                )
                store.update_edges("guard", insert=[[0, 2, 1.0]])
                assert not attached.fill_cache_if_current(
                    cache, "guard", fingerprint, "k2", "v2"
                )
                assert cache.puts == [("k", "v")]
            finally:
                attached.close()


# ----------------------------------------------------------------------
# the live fleet (worker subprocesses behind one port)
# ----------------------------------------------------------------------
def _start_fleet(processes=2, respawn=True, **worker_options):
    service = ClusteringService(workers=2, slice_iterations=2)
    supervisor = ServiceSupervisor(
        service,
        processes=processes,
        worker_options=dict(
            {"workers": 2, "slice_iterations": 2}, **worker_options
        ),
        respawn=respawn,
    )
    supervisor.start().wait_ready()
    return supervisor


def _query_stream(url, graph, name="fleet", build_cluster_index=False):
    """Load (+ index) + query; returns the comparable response bodies."""
    bodies = []
    client = ServiceClient(url, timeout=_WAIT)
    info = client.load_graph(
        name, graph=graph, build_cluster_index=build_cluster_index
    )
    bodies.append(
        {"fingerprint": info["fingerprint"], "num_edges": info["num_edges"]}
    )
    for mu, epsilon in _SETTINGS:
        body = client.cluster(name, mu, epsilon, wait=_WAIT)
        bodies.append(
            {
                "labels": body["labels"],
                "num_clusters": body["num_clusters"],
                "state": body["state"],
            }
        )
    update = client.update_edges(name, insert=[[0, 1, 1.0], [3, 7, 1.0]])
    bodies.append(
        {
            "fingerprint": update["fingerprint"],
            "cache_entries_invalidated": update["cache_entries_invalidated"],
        }
    )
    mu, epsilon = _SETTINGS[0]
    after = client.cluster(name, mu, epsilon, wait=_WAIT)
    bodies.append(
        {"labels": after["labels"], "num_clusters": after["num_clusters"]}
    )
    client.close()
    return bodies


def test_fleet_differential_byte_identity_with_single_process():
    """Any shard answers the exact bytes a single-process server does —
    including after ``update-edges`` routed through the writer — both
    from a clustering index and from anySCAN jobs."""
    graphs = {"fleet": _lfr(), "fleet-small": _lfr(n=100, seed=9)}
    indexed = {"fleet": True, "fleet-small": False}
    with ClusteringServer(workers=2, slice_iterations=2) as single:
        expected = {
            name: _query_stream(single.url, graph, name, indexed[name])
            for name, graph in graphs.items()
        }
    supervisor = _start_fleet(processes=2)
    try:
        got = {
            name: _query_stream(supervisor.url, graph, name, indexed[name])
            for name, graph in graphs.items()
        }
    finally:
        supervisor.close()
    assert got == expected
    assert _segments(os.getpid()) == []


def test_fleet_job_routing_across_connections():
    """Shard-prefixed job ids resolve from any connection: a client
    whose keep-alive connection lands on shard B can still follow a job
    created on shard A (proxied over the admin channel)."""
    graph = _lfr(n=100, seed=11)
    supervisor = _start_fleet(processes=2)
    try:
        seeder = ServiceClient(supervisor.url, timeout=_WAIT)
        seeder.load_graph("fleet", graph=graph)
        body = seeder.cluster("fleet", 2, 0.5, wait=_WAIT)
        job_id = body["job_id"]
        assert job_id.startswith("w")  # shard-prefixed
        # Several fresh connections: any shard may accept each one.
        for _ in range(4):
            with ServiceClient(supervisor.url, timeout=_WAIT) as probe:
                status = probe.status(job_id)
                assert status["state"] == "done"
                listed = [job["job_id"] for job in probe.jobs()]
                assert job_id in listed
        seeder.close()
    finally:
        supervisor.close()
    assert _segments(os.getpid()) == []


def test_fleet_metrics_merge_and_keepalive():
    """`/fleet/metrics` sums counters across shards + writer, reports
    per-shard gauges, and the client transport reuses its connection."""
    graph = _lfr(n=100, seed=13)
    supervisor = _start_fleet(processes=2)
    try:
        client = ServiceClient(supervisor.url, timeout=_WAIT)
        client.load_graph("fleet", graph=graph, build_cluster_index=True)
        bodies = [
            client.cluster("fleet", 2, 0.5, wait=_WAIT) for _ in range(3)
        ]
        # The keep-alive connection pins the client to one shard, so its
        # repeats are that shard's cache hits: zero σ evaluations.
        assert bodies[0]["cached"] is False
        for body in bodies[1:]:
            assert body["cached"] is True
            assert body["sigma_evaluations"] == 0
            assert body["labels"] == bodies[0]["labels"]
        # Keep-alive: after several requests one persistent connection
        # is still open (the transport never fell back to one-shot).
        assert client._conn is not None
        merged = client.fleet_metrics()
        assert merged["fleet"]["processes"] == 2
        assert sorted(merged["fleet"]["scraped_shards"]) == [0, 1]
        assert merged["counters"]["workers_registered"] == 2
        assert merged["counters"]["requests_total"] >= 4
        assert merged["counters"]["cache_hits"] >= 2
        roles = [
            shard["gauges"]["process"]["role"]
            for shard in merged["shards"]
            if "process" in shard.get("gauges", {})
        ]
        assert roles.count("writer") == 1
        assert roles.count("worker") == 2
        client.close()
    finally:
        supervisor.close()
    assert _segments(os.getpid()) == []


def _answer(client, call):
    """One request's outcome as comparable data: the body, or the
    error status and message."""
    try:
        return 200, call(client)
    except ServiceClientError as exc:
        return exc.status, str(exc)


def _until(predicate, what, timeout=_WAIT):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def test_fleet_forwards_every_job_route_to_the_owner():
    """Every job route sent to the shard that does *not* own the job
    answers exactly what the owner answers, and counts as forwarded."""
    graph = _lfr(n=400, seed=17)
    supervisor = _start_fleet(processes=2)
    try:
        with ServiceClient(supervisor.url, timeout=_WAIT) as client:
            client.load_graph("fleet", graph=graph)
        # The table the writer publishes through the manifest.
        table = supervisor.fleet.worker_table()
        assert [r["process_id"] for r in table] == [0, 1]
        owner = ServiceClient(str(table[0]["admin_url"]), timeout=_WAIT)
        other = ServiceClient(str(table[1]["admin_url"]), timeout=_WAIT)
        # Single-vertex blocks keep the anySCAN job running for many
        # slices, so it can be parked mid-run.
        job_id = owner.cluster("fleet", 3, 0.6, alpha=1, beta=1)["job_id"]
        assert job_id.startswith("w0-")
        owner.pause(job_id)
        _until(lambda: owner.status(job_id)["state"] == "paused", "pause")
        done_id = owner.cluster("fleet", 2, 0.5, wait=_WAIT)["job_id"]

        def forwarded():
            return int(other.metrics()["counters"].get("jobs_proxied", 0))

        before = forwarded()
        stable = [
            lambda c: c.status(job_id),
            lambda c: c.snapshot(job_id),
            lambda c: c.snapshot(job_id, labels=False),
            lambda c: c.result(job_id),  # 409: paused
            lambda c: c.result(done_id),
            lambda c: c.pause(job_id),  # no-op on a paused job
            lambda c: c.set_priority(job_id, 3),
        ]
        for call in stable:
            assert _answer(other, call) == _answer(owner, call)
        assert _answer(owner, lambda c: c.result(job_id))[0] == 409
        # resume and cancel change state: the owner then reports what
        # the forwarded request did.
        resumed = other.resume(job_id)
        assert resumed["job_id"] == job_id
        assert resumed["state"] in ("pending", "running")
        other.cancel(job_id)
        _until(
            lambda: owner.status(job_id)["state"] == "cancelled", "cancel"
        )
        settled = [
            lambda c: c.cancel(job_id),  # no-op on a cancelled job
            lambda c: c.resume(job_id),  # 409: cancelled
            lambda c: c.status(job_id),
        ]
        for call in settled:
            assert _answer(other, call) == _answer(owner, call)
        assert _answer(owner, lambda c: c.resume(job_id))[0] == 409
        assert forwarded() - before == len(stable) + 2 + len(settled)
        # The /jobs union is a fan-out from either shard, not a forward.
        assert other.jobs() == owner.jobs()
        assert forwarded() - before == len(stable) + 2 + len(settled)
        owner.close()
        other.close()
    finally:
        supervisor.close()
    assert _segments(os.getpid()) == []


def test_fleet_job_of_a_departed_shard_answers_410():
    """Once a shard leaves the fleet, the writer drops it from the
    published table, and its jobs answer 410 Gone from any shard."""
    graph = _lfr(n=100, seed=19)
    supervisor = _start_fleet(processes=2, respawn=False)
    try:
        with ServiceClient(supervisor.url, timeout=_WAIT) as client:
            client.load_graph("fleet", graph=graph)
        table = supervisor.fleet.worker_table()
        survivor = ServiceClient(str(table[0]["admin_url"]), timeout=_WAIT)
        with ServiceClient(str(table[1]["admin_url"]), timeout=_WAIT) as gone:
            job_id = gone.cluster("fleet", 2, 0.5, wait=_WAIT)["job_id"]
        assert job_id.startswith("w1-")
        assert survivor.status(job_id)["state"] == "done"
        os.kill(int(table[1]["pid"]), signal.SIGKILL)
        _until(
            lambda: [r["process_id"] for r in supervisor.fleet.worker_table()]
            == [0],
            "the dead shard's record to be dropped",
        )
        _until(
            lambda: _answer(survivor, lambda c: c.status(job_id))[0] == 410,
            "410 from the surviving shard",
        )
        status, message = _answer(survivor, lambda c: c.result(job_id))
        assert status == 410 and "left the fleet" in message
        survivor.close()
    finally:
        supervisor.close()
    assert _segments(os.getpid()) == []


def test_fleet_metrics_have_one_shape_with_a_durable_writer(tmp_path):
    """`/fleet/metrics` answers the same ``fleet`` keys, and shard 0 is
    the writer, whether the writer lives in the supervisor or in a
    durable subprocess."""
    shapes = []
    roles = []
    for data_dir in (None, str(tmp_path / "data")):
        supervisor = ServiceSupervisor(
            None if data_dir else ClusteringService(workers=2),
            processes=2,
            worker_options={"workers": 2, "slice_iterations": 2},
            data_dir=data_dir,
        )
        try:
            supervisor.start().wait_ready()
            with ServiceClient(supervisor.url, timeout=_WAIT) as client:
                merged = client.fleet_metrics()
            shapes.append(merged["fleet"])
            roles.append(merged["shards"][0]["gauges"]["process"]["role"])
        finally:
            supervisor.close()
    assert roles == ["writer", "writer"]
    plain, durable = shapes
    assert sorted(durable) == sorted(plain)
    for fleet in shapes:
        assert fleet["processes"] == 2
        assert sorted(fleet["scraped_shards"]) == [0, 1]
    assert _segments(os.getpid()) == []


def _serve_cli(args):
    """``repro serve ARGS`` as a real subprocess (stdout/stderr piped)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = (
        "import sys; from repro.cli import main; "
        "sys.exit(main(['serve'] + sys.argv[1:]))"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_durable_fleet_preloads_and_recovery_skips_the_preload(tmp_path):
    """`serve --processes 2 --data-dir D --graph g=PATH` serves g; a
    restart with ``--recover`` restores g instead of preloading again."""
    graph = _lfr(n=120, seed=29)
    path = tmp_path / "edges.txt"
    path.write_text(
        "".join(f"{u} {v}\n" for u, v, _w in graph.edges())
    )
    served, _ = load_edge_list(str(path))
    expected = scan(served, 3, 0.5).labels
    base = [
        "--port", "0", "--processes", "2", "--workers", "1",
        "--data-dir", str(tmp_path / "data"), "--graph", f"g={path}",
        "--build-cluster-index",
    ]
    for args in (base, base + ["--recover"]):
        proc = _serve_cli(args)
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on http://"), (
                line or proc.stderr.read()
            )
            url = line.removeprefix("serving on ").split(" ")[0]
            with ServiceClient(url, timeout=_WAIT) as client:
                info = client.graph_info("g")
                assert info["num_vertices"] == graph.num_vertices
                assert info["num_edges"] == graph.num_edges
                body = client.cluster("g", 3, 0.5, wait=_WAIT)
                assert body["state"] == "done"
                np.testing.assert_array_equal(body["labels"], expected)
                client.shutdown()
            assert proc.wait(timeout=_WAIT) == 0
            stderr = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()
        skipped = "skipping preload of 'g': already recovered" in stderr
        assert skipped == ("--recover" in args), stderr
