"""Crash-recovery chaos battery (DESIGN.md §13).

Four batteries around the durability plane:

* **A** — in-process fault plans at the new durability fault sites
  (``wal.append``, ``wal.fsync``, ``checkpoint.write``): acked batches
  survive recovery, faulted batches are cleanly absent, and the
  recovered store answers byte-identically to a fresh sequential build
  over the acked stream.
* **B** — ``recovery.replay`` faults: a faulted recovery fails
  structurally (never hangs, never half-applies silently) and a clean
  retry rebuilds the exact store.
* **C** — a real ``repro serve --data-dir`` subprocess SIGKILLed mid
  update-stream: restart with ``--recover``, keyed retries apply
  exactly once, final graph and clustering answers byte-identical to an
  uninterrupted build.
* **D** — the HA fleet: SIGKILL the durable writer twice mid-service;
  the supervisor respawns it onto the live manifest each time (WAL
  replay + adopt), the same shards keep answering reads through both
  gaps, and keyed replay still dedupes across both crashes.

Seeds come from ``REPRO_CHAOS_SEEDS`` (comma-separated) so CI shards
the battery; when ``REPRO_CHAOS_DIR`` is set every battery leaves its
fault plan (and battery C its WAL/data directory) there so a failing
run ships the exact evidence.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.errors import ReproError
from repro.faults import FaultPlan, armed
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.processes import shared_memory_available
from repro.result import Clustering
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.durability import DurabilityManager
from repro.service.fleet import ServiceSupervisor
from repro.service.metrics import ServiceMetrics
from repro.service.store import GraphStore
from repro.similarity.weighted import SimilarityConfig

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(300)]

REPO = Path(__file__).resolve().parents[1]

#: Structured failures a faulted run may legitimately surface.
_STRUCTURED = (ReproError, OSError, MemoryError, ValueError, TimeoutError)

_DURABILITY_SITES = ["wal.append", "wal.fsync", "checkpoint.write"]


def _seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "0,1,2,3")
    return [int(part) for part in raw.split(",") if part.strip()]


def _chaos_dir():
    directory = os.environ.get("REPRO_CHAOS_DIR")
    if directory:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return None


def _dump_plan(plan, battery):
    directory = _chaos_dir()
    if directory is not None:
        (directory / f"plan_{battery}_{plan.seed}.json").write_text(
            plan.to_json()
        )


def _planned_inserts(graph, count, per_batch, seed):
    """``count`` batches of fresh, pairwise-distinct non-edges."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    existing = set()
    for u in range(n):
        for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
            existing.add((min(u, int(v)), max(u, int(v))))
    batches = []
    while len(batches) < count:
        batch = []
        while len(batch) < per_batch:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            key = (min(u, v), max(u, v))
            if u == v or key in existing:
                continue
            existing.add(key)
            batch.append([key[0], key[1], 1.0])
        batches.append(batch)
    return batches


def _reference_store(graph, batches):
    """Fresh sequential build: the base graph plus every batch, once."""
    store = GraphStore()
    store.add(
        "g", graph, similarity=SimilarityConfig(), build_cluster_index=True
    )
    for batch in batches:
        store.update_edges("g", insert=batch)
    return store


def _canonical(labels):
    return Clustering(
        labels=np.asarray(labels, dtype=np.int64)
    ).canonical().labels


# ----------------------------------------------------------------------
# battery A: in-process durability fault sites
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", _seeds())
def test_durability_sites_never_lose_an_acked_batch(seed, tmp_path):
    graph = gnm_random_graph(70, 180, seed=23)
    batches = _planned_inserts(graph, count=12, per_batch=3, seed=seed)
    plan = FaultPlan.random(seed, sites=_DURABILITY_SITES)
    _dump_plan(plan, "durability")

    manager = DurabilityManager(
        tmp_path, checkpoint_every=4, metrics=ServiceMetrics()
    )
    store = manager.recover().store
    store.attach_journal(manager)
    store.add(
        "g", graph, similarity=SimilarityConfig(), build_cluster_index=True
    )
    acked = []

    def _snapshot():
        entries, wal_seq = store.checkpoint_snapshot()
        return {
            "entries": entries,
            "wal_seq": wal_seq,
            "job_blobs": (),
            "update_keys": [("g", key) for key, _ in acked],
        }

    with armed(plan):
        for position, batch in enumerate(batches):
            key = f"batch-{position}"
            try:
                store.update_edges("g", insert=batch, idempotency_key=key)
            except _STRUCTURED:
                continue  # rolled back before apply: cleanly absent
            acked.append((key, batch))
            manager.note_applied(_snapshot)
    live_fingerprint = store.get("g").fingerprint
    manager.close()

    recovered = DurabilityManager(tmp_path, metrics=ServiceMetrics())
    try:
        state = recovered.recover()
        assert state.failed_records == 0, plan.to_json()
        # Acked batches all survive; unacked ones are absent — the
        # recovered store equals the live one at crash time, which
        # equals a fresh sequential build over exactly the acked stream.
        assert state.store.get("g").fingerprint == live_fingerprint
        reference = _reference_store(
            graph, [batch for _, batch in acked]
        )
        entry = reference.get("g")
        assert state.store.get("g").fingerprint == entry.fingerprint
        assert sorted(state.update_keys) == sorted(
            ("g", key) for key, _ in acked
        )
        expected = scan(entry.graph, 2, 0.5).canonical().labels
        got = scan(state.store.get("g").graph, 2, 0.5).canonical().labels
        np.testing.assert_array_equal(got, expected)
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# battery B: faults during replay itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", _seeds())
def test_faulted_recovery_fails_structurally_then_retries_clean(
    seed, tmp_path
):
    graph = gnm_random_graph(60, 150, seed=29)
    batches = _planned_inserts(graph, count=6, per_batch=2, seed=seed)
    manager = DurabilityManager(tmp_path, checkpoint_every=1000)
    store = manager.recover().store
    store.attach_journal(manager)
    store.add("g", graph, similarity=SimilarityConfig())
    for batch in batches:
        store.update_edges("g", insert=batch)
    fingerprint = store.get("g").fingerprint
    manager.close()

    plan = FaultPlan.random(seed, sites=["recovery.replay"])
    _dump_plan(plan, "replay")
    again = DurabilityManager(tmp_path)
    try:
        with armed(plan):
            try:
                state = again.recover()
            except _STRUCTURED:
                state = None  # structured failure: allowed, retry below
        if state is None or plan.fired_total() == 0:
            state = again.recover()
        assert state.store.get("g").fingerprint == fingerprint
    finally:
        again.close()


# ----------------------------------------------------------------------
# battery C: SIGKILL a real durable server mid-stream
# ----------------------------------------------------------------------
def _spawn_serve(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    )
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


def _read_url(proc):
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on http://"), (
        line or proc.stderr.read()
    )
    return line.removeprefix("serving on ")


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    proc.stdout.close()
    proc.stderr.close()


@pytest.mark.parametrize("seed", _seeds())
def test_sigkill_mid_stream_recovers_exactly_once(seed, tmp_path):
    graph = gnm_random_graph(70, 180, seed=37)
    batches = _planned_inserts(graph, count=14, per_batch=3, seed=seed)
    chaos = _chaos_dir()
    data_dir = (
        chaos / f"sigkill-data-{seed}" if chaos is not None
        else tmp_path / "data"
    )
    rng = np.random.default_rng(seed)
    kill_after = float(rng.uniform(0.05, 1.5))
    if chaos is not None:
        (chaos / f"plan_sigkill_{seed}.json").write_text(
            json.dumps({"seed": seed, "kill_after_seconds": kill_after})
        )

    proc = _spawn_serve(
        ["--port", "0", "--workers", "1",
         "--data-dir", str(data_dir), "--checkpoint-every", "5"]
    )
    acked = set()
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=30.0, max_retries=0)
        client.load_graph("g", graph=graph, build_cluster_index=True)
        timer = threading.Timer(
            kill_after, lambda: proc.send_signal(signal.SIGKILL)
        )
        timer.start()
        try:
            for position, batch in enumerate(batches):
                key = f"batch-{position}"
                try:
                    client.update_edges(
                        "g", insert=batch, idempotency_key=key
                    )
                except ServiceClientError:
                    break  # the server died under us
                acked.add(position)
        finally:
            timer.cancel()
        client.close()
    finally:
        _reap(proc)

    # Cold restart with recovery, then retry EVERY batch by key: acked
    # ones must dedupe (exactly-once across the crash), unacked ones
    # apply now — afterwards the graph equals an uninterrupted build.
    proc = _spawn_serve(
        ["--port", "0", "--workers", "1",
         "--data-dir", str(data_dir), "--recover"]
    )
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=60.0)
        replayed = set()
        for position, batch in enumerate(batches):
            body = client.update_edges(
                "g", insert=batch, idempotency_key=f"batch-{position}"
            )
            if body.get("replayed") or body.get("recovered"):
                replayed.add(position)
        # Every acked batch was already applied; re-sending it must not
        # double-apply.  (The converse is not exact: a batch can have
        # been logged+applied right as the kill hit, before the ack.)
        assert acked <= replayed, f"lost acked batches {acked - replayed}"

        reference = _reference_store(graph, batches).get("g")
        info = client.graph_info("g")
        assert info["fingerprint"] == reference.fingerprint
        body = client.cluster("g", 2, 0.5, wait=60.0)
        assert body["state"] == "done"
        expected = scan(reference.graph, 2, 0.5).canonical().labels
        np.testing.assert_array_equal(
            _canonical(body["labels"]), expected
        )
        client.shutdown()
        assert proc.wait(timeout=60) == 0
    finally:
        _reap(proc)


def test_paused_job_survives_restart(tmp_path):
    """Pause → clean shutdown → ``--recover`` → resume → the exact
    result an uninterrupted job produces.

    The job must outlast the pause round trip: at n = 4000 with
    α = β = 16 it runs ~1.8 s on a 2-vCPU host, against ~90 ms for
    ``POST /cluster`` plus ``POST …/pause``.  A pause that still
    arrives after the job finished is refused ("is done; cannot
    pause") and takes the skip branch with the ``done`` state.
    """
    graph = gnm_random_graph(4000, 16000, seed=41)
    data_dir = tmp_path / "data"
    proc = _spawn_serve(
        ["--port", "0", "--workers", "1", "--slice-iterations", "1",
         "--alpha", "16", "--beta", "16", "--data-dir", str(data_dir)]
    )
    job_id = None
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=60.0)
        client.load_graph("g", graph=graph)
        job_id = client.cluster("g", 2, 0.5)["job_id"]
        try:
            client.pause(job_id)
        except ServiceClientError:
            if client.status(job_id)["state"] != "done":
                raise
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            state = client.status(job_id)["state"]
            if state == "paused":
                break
            if state == "done":
                pytest.skip("job finished before the pause landed")
            time.sleep(0.05)
        else:
            pytest.fail("job never paused")
        client.shutdown()  # clean shutdown checkpoints paused jobs
        assert proc.wait(timeout=60) == 0
    finally:
        _reap(proc)

    proc = _spawn_serve(
        ["--port", "0", "--workers", "1", "--slice-iterations", "1",
         "--alpha", "16", "--beta", "16",
         "--data-dir", str(data_dir), "--recover"]
    )
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=60.0)
        jobs = {job["job_id"]: job for job in client.jobs()}
        assert job_id in jobs, f"paused job lost across restart: {jobs}"
        assert jobs[job_id]["state"] == "paused"
        client.resume(job_id)
        body = client.result(job_id, wait=120.0)
        expected = scan(graph, 2, 0.5).canonical().labels
        np.testing.assert_array_equal(
            _canonical(body["labels"]), expected
        )
        client.shutdown()
        assert proc.wait(timeout=60) == 0
    finally:
        _reap(proc)


# ----------------------------------------------------------------------
# battery D: fleet writer failover
# ----------------------------------------------------------------------
def _stray_segments():
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return sorted(p.name for p in shm.glob("repro_*"))


def _writer_respawns(supervisor):
    return supervisor.metrics.counter("writer_respawns")


@pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)
def test_fleet_writer_sigkill_respawns_onto_live_manifest(tmp_path):
    graph = gnm_random_graph(100, 300, seed=43)
    batches = _planned_inserts(graph, count=3, per_batch=2, seed=43)
    before_segments = set(_stray_segments())
    supervisor = ServiceSupervisor(
        None,
        processes=2,
        worker_options={"workers": 2, "slice_iterations": 2},
        data_dir=str(tmp_path / "data"),
        checkpoint_every=8,
    )
    stop = threading.Event()
    answers = []  # (monotonic time, labels) of every reader answer
    reader_errors = []
    try:
        supervisor.start().wait_ready()
        client = ServiceClient(supervisor.url, timeout=60.0)
        client.load_graph("g", graph=graph, build_cluster_index=True)
        # A graph nobody mutates: every read of it, across both
        # failovers, must answer the same bytes.
        client.load_graph(
            "r", graph=gnm_random_graph(120, 400, seed=44),
            build_cluster_index=True,
        )
        expected_read = client.cluster("r", 2, 0.5, wait=60.0)["labels"]
        client.update_edges("g", insert=batches[0], idempotency_key="k0")
        worker_pids = {i: p.pid for i, p in supervisor._procs.items()}

        def read_loop():
            with ServiceClient(supervisor.url, timeout=60.0) as conn:
                while not stop.is_set():
                    try:
                        body = conn.cluster("r", 2, 0.5, wait=60.0)
                    except ServiceClientError as exc:
                        reader_errors.append(exc)
                        return
                    answers.append((time.monotonic(), body["labels"]))

        reader = threading.Thread(target=read_loop, daemon=True)
        reader.start()
        writer_pids = [supervisor._writer_proc.pid]
        for crash in (1, 2):
            # The second kill hits a writer that itself adopted the
            # manifest from a dead predecessor.
            supervisor._writer_proc.send_signal(signal.SIGKILL)
            killed_at = time.monotonic()
            deadline = killed_at + 60
            while (
                time.monotonic() < deadline
                and _writer_respawns(supervisor) < crash
            ):
                time.sleep(0.05)
            assert _writer_respawns(supervisor) == crash, "no respawn"
            respawned_at = time.monotonic()
            writer_pids.append(supervisor._writer_proc.pid)
            assert any(
                killed_at < at < respawned_at for at, _ in answers
            ), "no read answered during the writer gap"

            # Mutations reach the respawned writer, and every keyed
            # batch acked before this crash still dedupes.
            client.update_edges(
                "g", insert=batches[crash], idempotency_key=f"k{crash}"
            )
            for earlier in range(crash):
                replay = client.update_edges(
                    "g", insert=batches[earlier],
                    idempotency_key=f"k{earlier}",
                )
                assert replay.get("replayed") or replay.get("recovered")
        stop.set()
        reader.join(timeout=60)

        assert reader_errors == []
        assert answers
        assert all(labels == expected_read for _, labels in answers)
        assert len(set(writer_pids)) == 3, writer_pids
        assert {
            i: p.pid for i, p in supervisor._procs.items()
        } == worker_pids, "a reader was restarted"

        reference_store = _reference_store(graph, batches).get("g")
        assert (
            client.graph_info("g")["fingerprint"]
            == reference_store.fingerprint
        )
        final = client.cluster("g", 2, 0.5, wait=60.0)
        expected = scan(reference_store.graph, 2, 0.5).canonical().labels
        np.testing.assert_array_equal(
            _canonical(final["labels"]), expected
        )
        # Both shards' registrations survived two adoptions.
        merged = client.fleet_metrics()
        assert merged["fleet"]["scraped_shards"] == [0, 1]
        client.close()
    finally:
        stop.set()
        supervisor.close()
    leaked = set(_stray_segments()) - before_segments
    assert leaked == set(), f"leaked shared-memory segments: {leaked}"
