"""The chaos battery: randomized fault plans against the hardened stack.

Run with ``pytest -m chaos``.  Each battery arms a seeded random
:class:`~repro.faults.FaultPlan` and asserts the invariant the hardened
layers guarantee by construction: injected faults *raise*, *kill
workers*, or *delay* — they never corrupt data — so

* any run that reports success is **byte-identical** to the sequential
  ``scan`` reference;
* any run that fails does so with a structured exception (never a hang);
* no run leaks a ``repro_*`` shared-memory segment (the store
  publisher's segment battery) or leaves a corrupt index file under its
  real name.

Seeds come from ``REPRO_CHAOS_SEEDS`` (comma-separated) so CI can shard
the battery across a seed matrix; every plan is dumped as JSON into
``REPRO_CHAOS_DIR`` (when set) so a failing run ships the exact plan
that broke it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runtime import LockOrderViolation, LockOrderWatch
from repro.baselines.scan import scan
from repro.core.anyscan import AnySCAN
from repro.core.backend_scan import parallel_scan
from repro.core.config import AnyScanConfig
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule, armed
from repro.faults.corruption import CORRUPTION_MODES, corrupt_file
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.processes import shared_memory_available
from repro.parallel.sync import atomic_add, critical, set_lock_order_watch
from repro.parallel.threads import ThreadBackend
from repro.service.jobs import JobScheduler
from repro.service.shm import AttachedGraphStore, StorePublisher
from repro.service.store import GraphStore
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex, IndexIntegrityError
from repro.similarity.weighted import SimilarityConfig

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(180)]


def _seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2,3")
    return [int(part) for part in raw.split(",") if part.strip()]


def _dump_plan(plan, battery):
    """Persist the plan JSON so CI can upload it from a failed run."""
    directory = os.environ.get("REPRO_CHAOS_DIR")
    if directory:
        path = Path(directory) / f"plan_{battery}_{plan.seed}.json"
        path.write_text(plan.to_json())


def _stray_segments():
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return sorted(p.name for p in shm.glob(f"repro_{os.getpid()}_*"))


#: Structured failures a faulted run may legitimately surface.  Anything
#: else (or a hang) is a hardening bug.
_STRUCTURED = (ReproError, OSError, MemoryError, ValueError, TimeoutError)

@pytest.mark.parametrize("seed", _seeds())
def test_thread_backend_differential_under_faults(seed):
    """Battery A: the cross-backend differential holds under faults in
    the thread backend's row blocks — a raise propagates out of the
    pool (never a partial σ array), and a delay-only plan, which
    reorders block completion, must still answer exactly."""
    graph = gnm_random_graph(120, 420, seed=31)
    reference = scan(graph, 2, 0.5, seed=0)
    backend = ThreadBackend(threads=2, chunk_size=16)
    delays = FaultPlan(
        [
            FaultRule(
                site="thread.block",
                kind="delay",
                times=None,
                probability=0.5,
                delay=0.005,
            )
        ],
        seed=seed,
        name=f"delays-{seed}",
    )
    for plan in (FaultPlan.random(seed, sites=["thread.block"]), delays):
        _dump_plan(plan, f"backend_{plan.name}")
        with armed(plan):
            try:
                got = parallel_scan(graph, 2, 0.5, backend=backend, seed=0)
            except _STRUCTURED:
                assert plan is not delays, plan.to_json()
                continue
        np.testing.assert_array_equal(reference.labels, got.labels)
        np.testing.assert_array_equal(reference.roles, got.roles)
    assert delays.fired_total() > 0


@pytest.mark.parametrize("seed", _seeds())
def test_store_publisher_segment_faults_never_leak(seed):
    """Battery A': faults at ``process.segment.create`` while the store
    publisher ships epochs.  A failed publish raises structured and
    releases its half-published epoch; readers keep the last committed
    epoch, byte for byte; ``close`` leaves no segment behind."""
    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    graph = gnm_random_graph(80, 240, seed=41)
    entry = GraphStore().add("chaos", graph, build_cluster_index=True)
    plan = FaultPlan.random(seed, sites=["process.segment.create"])
    _dump_plan(plan, "segments")
    failures = 0
    with StorePublisher() as publisher:
        committed = publisher.publish_entry(entry)
        attached = AttachedGraphStore(publisher.manifest_name)
        try:
            with armed(plan):
                for _ in range(6):
                    before = _stray_segments()
                    try:
                        committed = publisher.publish_entry(entry)
                    except _STRUCTURED:
                        failures += 1
                        assert _stray_segments() == before, plan.to_json()
                    attached.refresh()
                    assert attached.epochs() == {"chaos": committed}
                    got = attached.get("chaos")
                    np.testing.assert_array_equal(
                        got.graph.indices, graph.indices
                    )
                    np.testing.assert_array_equal(
                        got.cluster_index.edge.sigmas,
                        entry.cluster_index.edge.sigmas,
                    )
        finally:
            attached.close()
    assert _stray_segments() == [], plan.to_json()
    assert plan.fired_total() > 0, plan.to_json()


@pytest.mark.parametrize("seed", _seeds())
def test_index_persistence_under_corruption(seed, tmp_path):
    """Battery B: seeded disk rot of a σ archive is detected on load —
    never σ values read from a damaged file.  Quarantine and rebuild
    are Battery B′ (the clustering-index archive)."""
    graph = gnm_random_graph(80, 240, seed=41)
    config = SimilarityConfig()
    fresh = EdgeSimilarityIndex.build(graph, config)
    path = tmp_path / "battery.npz"
    fresh.save(path)
    mode = CORRUPTION_MODES[seed % len(CORRUPTION_MODES)]
    corrupt_file(path, mode=mode, seed=seed)
    with pytest.raises(IndexIntegrityError):
        EdgeSimilarityIndex.load(path, graph, config=config)


@pytest.mark.parametrize("seed", _seeds())
def test_scheduler_jobs_under_slice_faults(seed):
    """Battery C: faulted slices either retry to the exact result or
    fail with the exception chain preserved — the scheduler survives."""
    graph = gnm_random_graph(100, 350, seed=51)
    reference = scan(graph, 2, 0.5, seed=0)
    plan = FaultPlan.random(seed, sites=["jobs.slice"])
    _dump_plan(plan, "jobs")
    config = AnyScanConfig(
        mu=2, epsilon=0.5, alpha=32, beta=32, record_costs=False
    )
    with armed(plan):
        with JobScheduler(workers=1, slice_iterations=2, max_slice_retries=8) as scheduler:
            job = scheduler.submit(AnySCAN(graph, config), graph_name="chaos")
            info = scheduler.wait(job, timeout=120.0)
            if info["state"] == "done":
                got = scheduler.result(job)
                np.testing.assert_array_equal(
                    reference.canonical().labels, got.canonical().labels
                )
            else:
                assert info["state"] == "failed", plan.to_json()
                assert info["error"], "failed jobs must carry an error"
                assert info["error_chain"], plan.to_json()


def test_faulted_index_save_never_tears_the_archive(tmp_path):
    """An injected ``index.save`` fault must leave the previous archive
    intact (atomic replace), not a torn file."""
    graph = gnm_random_graph(60, 150, seed=61)
    config = SimilarityConfig()
    index = EdgeSimilarityIndex.build(graph, config)
    path = tmp_path / "atomic.npz"
    index.save(path)
    plan = FaultPlan([FaultRule(site="index.save", exception="OSError")])
    with armed(plan):
        with pytest.raises(OSError):
            index.save(path)
    reloaded = EdgeSimilarityIndex.load(path, graph, config=config)
    np.testing.assert_array_equal(index.sigmas, reloaded.sigmas)
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.npz"]


@pytest.mark.parametrize("seed", _seeds())
def test_clustering_index_persistence_under_corruption(seed, tmp_path):
    """Battery B': the clustering-index archive survives the same rot
    modes — quarantine, rebuild, and *identical query answers* after."""
    graph = gnm_random_graph(80, 240, seed=41)
    fresh = ClusteringIndex.build(graph)
    path = tmp_path / "battery.gsindex.npz"
    fresh.save(path)
    mode = CORRUPTION_MODES[seed % len(CORRUPTION_MODES)]
    corrupt_file(path, mode=mode, seed=seed)
    with pytest.raises(IndexIntegrityError):
        ClusteringIndex.load(path, graph)
    recovered_index, recovered = ClusteringIndex.load_or_rebuild(
        path, graph
    )
    assert recovered
    quarantined = [
        p.name for p in tmp_path.iterdir() if "quarantined" in p.name
    ]
    assert quarantined, "damaged archive must be preserved for post-mortems"
    np.testing.assert_array_equal(
        fresh.edge.sigmas, recovered_index.edge.sigmas
    )
    for epsilon, mu in ((0.3, 2), (0.55, 4), (0.5, 9)):
        np.testing.assert_array_equal(
            fresh.query(epsilon, mu, seed=seed).labels,
            recovered_index.query(epsilon, mu, seed=seed).labels,
        )
        assert recovered_index.last_query["sigma_evaluations"] == 0


@pytest.mark.parametrize("seed", _seeds())
def test_store_index_refresh_faults_never_leave_stale_reads(seed):
    """Battery F: faults inside the store's index-refresh path must
    degrade (drop the index) — a query after a faulted update-edges
    must match the sequential reference on the *updated* graph."""
    graph = gnm_random_graph(70, 220, seed=71)
    plan = FaultPlan.random(seed, sites=["store.index_refresh"])
    _dump_plan(plan, "index_refresh")
    store = GraphStore()
    store.add("chaos", graph, build_cluster_index=True)
    with armed(plan):
        for step in range(4):
            u = (3 * step) % graph.num_vertices
            v = (11 * step + 17) % graph.num_vertices
            if u == v:
                continue
            try:
                store.update_edges("chaos", insert=[[u, v, 1.0]])
            except _STRUCTURED:
                pass
            entry = store.get("chaos")
            reference = scan(entry.graph, 2, 0.5, seed=0)
            if entry.cluster_index is not None:
                got = entry.cluster_index.query(0.5, 2, seed=0)
                np.testing.assert_array_equal(
                    got.labels, reference.labels, err_msg=plan.to_json()
                )
            else:
                # Degraded mode: the index was dropped, never stale.
                got = parallel_scan(entry.graph, 2, 0.5, seed=0)
                np.testing.assert_array_equal(
                    got.labels, reference.labels
                )


@pytest.mark.parametrize("seed", _seeds())
def test_lock_order_watch_armed_during_faulted_scan(seed):
    """Battery E: the lock-order sanitizer rides a faulted parallel scan.

    Every declared atomic/critical acquisition reports to the watch
    while the thread backend's row blocks run under injected faults;
    the acquisition-order graph observed across the whole run must stay
    acyclic.
    """
    graph = gnm_random_graph(120, 420, seed=31)
    plan = FaultPlan.random(seed, sites=["thread.block"])
    _dump_plan(plan, "lockorder")
    watch = LockOrderWatch()
    previous = set_lock_order_watch(watch)
    try:
        # 15 row blocks: every seed's plan fires.
        backend = ThreadBackend(threads=2, chunk_size=8)
        with armed(plan):
            try:
                parallel_scan(graph, 2, 0.5, backend=backend, seed=0)
            except _STRUCTURED:
                pass
    finally:
        set_lock_order_watch(previous)
    watch.assert_acyclic()


def test_lock_order_watch_flags_injected_abba_cycle():
    """Negative control: a seeded ABBA cycle through the declared
    helpers must trip the sanitizer even though this run never
    deadlocks (the two legs execute sequentially)."""
    watch = LockOrderWatch()
    previous = set_lock_order_watch(watch)
    table = watch.wrap(threading.Lock(), "table-lock")
    arr = np.zeros(4)

    def first_leg():
        with table:  # table-lock then the global lock
            atomic_add(arr, 0, 1.0)

    def second_leg():
        with critical():  # the global lock then table-lock: inverted
            with table:
                arr[1] = 1.0

    try:
        for leg in (first_leg, second_leg):
            thread = threading.Thread(target=leg)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        set_lock_order_watch(previous)
    with pytest.raises(LockOrderViolation, match="table-lock"):
        watch.assert_acyclic()


@pytest.mark.parametrize("seed", _seeds())
def test_fleet_survives_sigkilled_shard(seed):
    """Battery F: SIGKILL one worker of a live fleet mid-service.

    The invariants the sharded fleet guarantees by construction:

    * the supervisor respawns the shard and ``/fleet/metrics`` witnesses
      it (``worker_exits``/``worker_respawns`` counters, both shards
      scraped again);
    * the killed pid leaves **no** ``repro_*`` segment behind — workers
      only ever attach, and attachments are untracked from their local
      resource tracker precisely so a dying reader cannot reap the
      writer's live segments;
    * no stale reads: answers after the kill are byte-identical to the
      answers before it, a mutation routed through any surviving (or
      respawned) shard lands in a fresh epoch, and every new connection
      observes that epoch.
    """
    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    from repro.result import Clustering
    from repro.service.client import ServiceClient
    from repro.service.fleet import ServiceSupervisor
    from repro.service.server import ClusteringService

    graph = gnm_random_graph(120, 420, seed=31)
    mu, epsilon = 2, 0.5
    reference = scan(graph, mu, epsilon, seed=0).canonical()

    service = ClusteringService(workers=2, slice_iterations=2)
    supervisor = ServiceSupervisor(
        service,
        processes=2,
        worker_options={"workers": 2, "slice_iterations": 2},
    )
    try:
        supervisor.start().wait_ready()
        with ServiceClient(supervisor.url, timeout=60.0) as client:
            client.load_graph("chaos", graph=graph, build_cluster_index=True)
            before = client.cluster("chaos", mu, epsilon, wait=60.0)
        got = Clustering(
            labels=np.asarray(before["labels"], dtype=np.int64)
        ).canonical()
        np.testing.assert_array_equal(got.labels, reference.labels)

        registrations = supervisor.fleet.worker_table()
        victim = registrations[seed % len(registrations)]
        os.kill(int(victim["pid"]), signal.SIGKILL)

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with supervisor._lock:
                respawned = supervisor._respawns >= 1
            if respawned and len(supervisor.fleet.worker_table()) == 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("killed shard never respawned")

        # The killed worker owned no segments (readers only attach).
        shm_dir = Path("/dev/shm")
        strays = (
            sorted(
                p.name
                for p in shm_dir.glob(f"repro_{victim['pid']}_*")
            )
            if shm_dir.is_dir()
            else []
        )
        assert strays == []

        # Every fresh connection — whichever shard the kernel picks —
        # answers the exact bytes served before the kill.
        for _ in range(4):
            with ServiceClient(supervisor.url, timeout=60.0) as probe:
                after = probe.cluster("chaos", mu, epsilon, wait=60.0)
                assert after["labels"] == before["labels"]

        # A post-kill mutation commits a fresh epoch visible everywhere.
        inserts = []
        for u in range(graph.num_vertices):
            row = set(
                graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
            )
            for v in range(u + 1, graph.num_vertices):
                if v not in row:
                    inserts.append([u, v, 1.0])
                    break
            if len(inserts) == 2:
                break
        with ServiceClient(supervisor.url, timeout=60.0) as writer:
            update = writer.update_edges("chaos", insert=inserts)
        for _ in range(3):
            with ServiceClient(supervisor.url, timeout=60.0) as probe:
                info = probe.graph_info("chaos")
                assert info["fingerprint"] == update["fingerprint"]

        merged = None
        with ServiceClient(supervisor.url, timeout=60.0) as probe:
            merged = probe.fleet_metrics()
        assert merged["counters"]["worker_exits"] >= 1
        assert merged["counters"]["worker_respawns"] >= 1
        assert sorted(merged["fleet"]["scraped_shards"]) == [0, 1]
    finally:
        supervisor.close()
    assert _stray_segments() == []
