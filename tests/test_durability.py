"""Unit tests for the durability plane (DESIGN.md §13).

Covers the WAL frame format and its repair/rollback paths, group
commit, compaction, checkpoint round-trips and fallback, recovery
dedupe, the σ-seeded mirror rebuild, and the client-side circuit
breaker — everything below the process-kill chaos battery in
``tests/test_chaos_recovery.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.errors import ConfigError, GraphError
from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.durability import (
    WAL_FILENAME,
    DurabilityError,
    DurabilityManager,
    WriteAheadLog,
    list_checkpoints,
    similarity_from_wire,
    similarity_to_wire,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import ClusteringService
from repro.similarity.index import EdgeSimilarityIndex, graph_fingerprint
from repro.similarity.weighted import SimilarityConfig

pytestmark = pytest.mark.timeout(120)


def _records(wal, after=0):
    return list(wal.records(after=after))


class TestWriteAheadLog:
    def test_round_trip_preserves_order_and_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        try:
            for i in range(5):
                seq = wal.append({"op": "noop", "i": i})
                assert seq == i + 1
            got = _records(wal)
        finally:
            wal.close()
        assert [seq for seq, _ in got] == [1, 2, 3, 4, 5]
        assert [rec["i"] for _, rec in got] == list(range(5))

    def test_reopen_resumes_the_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "noop", "i": 0})
        wal.close()
        wal = WriteAheadLog(path)
        try:
            assert wal.last_seq == 1
            assert wal.append({"op": "noop", "i": 1}) == 2
        finally:
            wal.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for i in range(3):
            wal.append({"op": "noop", "i": i})
        wal.close()
        intact = path.read_bytes()
        # A crash mid-append leaves a partial frame at the tail.
        path.write_bytes(intact + b"\x07garbage-that-is-not-a-frame")
        metrics = ServiceMetrics()
        wal = WriteAheadLog(path, metrics=metrics)
        try:
            assert wal.last_seq == 3
            assert len(_records(wal)) == 3
            assert metrics.events("wal_tail_truncated")
        finally:
            wal.close()
        assert path.read_bytes() == intact

    def test_corrupt_interior_frame_drops_the_suffix(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "noop", "i": 0})
        wal.close()
        first_end = len(path.read_bytes())
        wal = WriteAheadLog(path)
        wal.append({"op": "noop", "i": 1})
        wal.append({"op": "noop", "i": 2})
        wal.close()
        blob = bytearray(path.read_bytes())
        blob[first_end + 4] ^= 0xFF  # flip a byte inside frame 2
        path.write_bytes(bytes(blob))
        wal = WriteAheadLog(path)
        try:
            # Frames from the corruption on are gone; frame 1 survives.
            assert [seq for seq, _ in _records(wal)] == [1]
            assert wal.last_seq == 1
        finally:
            wal.close()

    def test_not_a_wal_file_is_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"definitely not a wal\n")
        with pytest.raises(DurabilityError):
            WriteAheadLog(path)

    def test_failed_fsync_rolls_back_the_record(self, tmp_path):
        path = tmp_path / "wal.log"
        metrics = ServiceMetrics()
        wal = WriteAheadLog(path, metrics=metrics)
        try:
            wal.append({"op": "noop", "i": 0})
            plan = FaultPlan(
                [FaultRule(site="wal.fsync", exception="OSError")]
            )
            with armed(plan):
                with pytest.raises(OSError):
                    wal.append({"op": "noop", "i": 1})
            # The unsynced record was truncated away, not left behind.
            assert wal.last_seq == 1
            assert [rec["i"] for _, rec in _records(wal)] == [0]
            assert metrics.events("wal_rolled_back")
            # The log is still healthy for the next append.
            assert wal.append({"op": "noop", "i": 2}) == 2
        finally:
            wal.close()

    def test_group_commit_from_concurrent_appenders(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        errors = []

        def run(worker):
            try:
                for i in range(8):
                    wal.append({"op": "noop", "worker": worker, "i": i})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join()
        try:
            assert errors == []
            got = _records(wal)
            assert [seq for seq, _ in got] == list(range(1, 33))
            assert wal.synced_seq == 32
        finally:
            wal.close()

    def test_compaction_preserves_sequence_numbers(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        try:
            for i in range(10):
                wal.append({"op": "noop", "i": i})
            assert wal.compact(6) == 6
            assert [seq for seq, _ in _records(wal)] == [7, 8, 9, 10]
            # Appends after compaction continue the original numbering.
            assert wal.append({"op": "noop", "i": 10}) == 11
        finally:
            wal.close()
        wal = WriteAheadLog(path)
        try:
            assert [seq for seq, _ in _records(wal)] == [7, 8, 9, 10, 11]
        finally:
            wal.close()

    def test_oversized_record_is_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        try:
            with pytest.raises(DurabilityError):
                wal.append({"blob": "x" * (65 * 1024 * 1024)})
            assert wal.last_seq == 0
        finally:
            wal.close()


class TestSimilarityWire:
    def test_round_trip_is_exact(self):
        config = SimilarityConfig()
        assert similarity_from_wire(similarity_to_wire(config)) == config

    def test_missing_field_is_refused(self):
        wire = similarity_to_wire(SimilarityConfig())
        wire.pop("kind")
        with pytest.raises(DurabilityError):
            similarity_from_wire(wire)


def _seed_store(manager, *, n=60, m=150, seed=7):
    """Recover an empty store, attach the journal, add one graph."""
    state = manager.recover()
    store = state.store
    store.attach_journal(manager)
    graph = gnm_random_graph(n, m, seed=seed)
    store.add(
        "g",
        graph,
        similarity=SimilarityConfig(),
        build_cluster_index=True,
    )
    return store


def _snapshot(store, manager, update_keys=()):
    entries, wal_seq = store.checkpoint_snapshot()
    return {
        "entries": entries,
        "wal_seq": wal_seq,
        "job_blobs": (),
        "update_keys": list(update_keys),
    }


def _free_pair(store, name, rng):
    """A vertex pair not currently an edge of ``store``'s graph."""
    graph = store.get(name).graph
    n = graph.num_vertices
    while True:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        start, end = graph.indptr[u], graph.indptr[u + 1]
        if v not in graph.indices[start:end]:
            return u, v


class TestDurabilityManager:
    def test_non_finite_weight_fails_identically_on_replay(self, tmp_path):
        """A NaN weight after a valid prefix: live, the prefix applies
        and the batch raises; replay reaches the same fingerprint."""
        manager = DurabilityManager(tmp_path, checkpoint_every=1000)
        store = _seed_store(manager)
        rng = np.random.default_rng(4)
        good = _free_pair(store, "g", rng)
        bad = _free_pair(store, "g", rng)
        with pytest.raises(GraphError, match="finite"):
            store.update_edges(
                "g", insert=[[*good, 1.0], [*bad, float("nan")]]
            )
        entry = store.get("g")
        assert entry.graph.has_edge(*good)
        assert np.isfinite(entry.graph.weights).all()
        fingerprint = entry.fingerprint
        manager.close()

        again = DurabilityManager(tmp_path)
        try:
            state = again.recover()
            assert state.failed_records == 1
            assert state.store.get("g").fingerprint == fingerprint
        finally:
            again.close()

    def test_recovery_replays_the_wal_tail(self, tmp_path):
        manager = DurabilityManager(tmp_path, checkpoint_every=1000)
        store = _seed_store(manager)
        rng = np.random.default_rng(3)
        for i in range(5):
            u, v = _free_pair(store, "g", rng)
            store.update_edges("g", insert=[[u, v, 1.0]], idempotency_key=f"k{i}")
        fingerprint = store.get("g").fingerprint
        manager.close()

        again = DurabilityManager(tmp_path)
        try:
            state = again.recover()
            assert state.checkpoint_seq == 0
            assert state.replayed_records == 6  # add_graph + 5 updates
            assert state.failed_records == 0
            assert state.update_keys == [("g", f"k{i}") for i in range(5)]
            assert state.store.get("g").fingerprint == fingerprint
        finally:
            again.close()

    def test_checkpoint_bounds_replay_and_compacts(self, tmp_path):
        metrics = ServiceMetrics()
        manager = DurabilityManager(
            tmp_path, checkpoint_every=1000, metrics=metrics
        )
        store = _seed_store(manager)
        rng = np.random.default_rng(4)
        for _ in range(3):
            u, v = _free_pair(store, "g", rng)
            store.update_edges("g", insert=[[u, v, 1.0]])
        assert manager.checkpoint(_snapshot(store, manager)) is not None
        u, v = _free_pair(store, "g", rng)
        store.update_edges("g", insert=[[u, v, 1.0]])  # after the checkpoint
        fingerprint = store.get("g").fingerprint
        manager.close()

        assert list_checkpoints(tmp_path)
        again = DurabilityManager(tmp_path)
        try:
            state = again.recover()
            assert state.checkpoint_seq == 4
            assert state.replayed_records == 1  # only the tail
            assert state.store.get("g").fingerprint == fingerprint
        finally:
            again.close()

    def test_damaged_checkpoint_falls_back(self, tmp_path):
        metrics = ServiceMetrics()
        manager = DurabilityManager(
            tmp_path, checkpoint_every=1000, metrics=metrics
        )
        store = _seed_store(manager)
        rng = np.random.default_rng(5)
        u, v = _free_pair(store, "g", rng)
        store.update_edges("g", insert=[[u, v, 1.0]])
        assert manager.checkpoint(_snapshot(store, manager)) is not None
        fingerprint = store.get("g").fingerprint
        manager.close()

        # Rot the newest checkpoint's manifest.
        (seq, path), = list_checkpoints(tmp_path)[:1]
        manifest = os.path.join(path, "manifest.json")
        with open(manifest, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\x00\x00\x00")
        recovery_metrics = ServiceMetrics()
        again = DurabilityManager(tmp_path, metrics=recovery_metrics)
        try:
            state = again.recover()
            # Fallback: pure WAL replay still rebuilds the exact store.
            # (Compaction may have trimmed the prefix only if an older
            # checkpoint retains it; with keep=2 and one checkpoint the
            # full log is still there.)
            assert state.store.get("g").fingerprint == fingerprint
            assert recovery_metrics.events("recovery_checkpoint_skipped")
        finally:
            again.close()

    def test_replay_dedupes_checkpointed_idempotency_keys(self, tmp_path):
        manager = DurabilityManager(tmp_path, checkpoint_every=1000)
        store = _seed_store(manager)
        rng = np.random.default_rng(6)
        u, v = _free_pair(store, "g", rng)
        store.update_edges("g", insert=[[u, v, 1.0]], idempotency_key="once")
        fingerprint = store.get("g").fingerprint
        # Checkpoint *includes* the applied key but reflects an *older*
        # WAL position, so the update record is replayed — and must be
        # recognized as already applied.
        entries, _ = store.checkpoint_snapshot()
        snapshot = {
            "entries": entries,
            "wal_seq": 1,  # pretend only add_graph was covered
            "job_blobs": (),
            "update_keys": [("g", "once")],
        }
        manager.checkpoint(snapshot)
        manager.close()

        metrics = ServiceMetrics()
        again = DurabilityManager(tmp_path, metrics=metrics)
        try:
            state = again.recover()
            assert state.deduped_records == 1
            assert state.store.get("g").fingerprint == fingerprint
            assert metrics.events("recovery_replay_deduped")
        finally:
            again.close()

    def test_note_applied_checkpoints_at_cadence(self, tmp_path):
        manager = DurabilityManager(tmp_path, checkpoint_every=3)
        store = _seed_store(manager)
        rng = np.random.default_rng(7)
        wrote = []
        for _ in range(6):
            u, v = _free_pair(store, "g", rng)
            store.update_edges("g", insert=[[u, v, 1.0]])
            wrote.append(
                manager.note_applied(lambda: _snapshot(store, manager))
            )
        manager.close()
        assert wrote.count(True) == 2
        assert len(list_checkpoints(tmp_path)) == 2

    def test_failed_checkpoint_degrades_to_wal_only(self, tmp_path):
        metrics = ServiceMetrics()
        manager = DurabilityManager(
            tmp_path, checkpoint_every=1000, metrics=metrics
        )
        store = _seed_store(manager)
        rng = np.random.default_rng(8)
        u, v = _free_pair(store, "g", rng)
        store.update_edges("g", insert=[[u, v, 1.0]])
        plan = FaultPlan([FaultRule(site="checkpoint.write")])
        with armed(plan):
            assert manager.checkpoint(_snapshot(store, manager)) is None
        assert metrics.events("checkpoint_failed")
        assert list_checkpoints(tmp_path) == []
        fingerprint = store.get("g").fingerprint
        manager.close()
        again = DurabilityManager(tmp_path)
        try:
            assert again.recover().store.get("g").fingerprint == fingerprint
        finally:
            again.close()

    def test_wal_only_recovery_matches_live_info_after_index_build(
        self, tmp_path
    ):
        """``POST /graphs/{name}/index`` on a durable store: the graph
        info recovered from the WAL alone equals the live one, so a
        recovered graph still rebuilds a dropped index."""
        manager = DurabilityManager(tmp_path, checkpoint_every=1000)
        store = manager.recover().store
        store.attach_journal(manager)
        store.add("g", gnm_random_graph(60, 150, seed=7))
        service = ClusteringService(workers=1, store=store)
        try:
            live = service.handle_build_index({"mu_cap": 5}, "g")
        finally:
            service.close()
        manager.close()
        assert live["auto_cluster_index"] is True

        again = DurabilityManager(tmp_path)
        try:
            state = again.recover()
            assert state.checkpoint_seq == 0
            assert state.store.get("g").info() == live
        finally:
            again.close()

    def test_log_mutation_without_recover_is_refused(self, tmp_path):
        manager = DurabilityManager(tmp_path)
        with pytest.raises(DurabilityError):
            manager.log_mutation({"op": "noop"})

    def test_invalid_cadence_is_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            DurabilityManager(tmp_path, checkpoint_every=0)
        with pytest.raises(ConfigError):
            DurabilityManager(tmp_path, keep_checkpoints=0)


def _old_add_graph_record(graph, **flags):
    """An ``add_graph`` WAL record as the service journaled it."""
    record = {
        "op": "add_graph",
        "name": "g",
        "n": int(graph.num_vertices),
        "edges": [[int(u), int(v), float(w)] for u, v, w in graph.edges()],
        "similarity": similarity_to_wire(SimilarityConfig()),
        "mu_cap": 4,
        "replace": False,
    }
    record.update(flags)
    return record


def _write_old_wal(data_dir, records):
    wal = WriteAheadLog(os.path.join(str(data_dir), WAL_FILENAME))
    try:
        for record in records:
            wal.append(record)
    finally:
        wal.close()


def _write_old_checkpoint(data_dir, graph, *, wal_seq, index_kind="edge"):
    """A checkpoint as older versions wrote it: the graph record carries
    ``mu_cap``.  ``index_kind="edge"`` stores the σ archive and flags an
    edge-only indexed graph was checkpointed with; ``"cluster"`` stores
    a clustering-index archive with its own ``mu_cap`` field."""
    directory = os.path.join(
        str(data_dir), "checkpoints", f"ckpt-{wal_seq:012d}"
    )
    os.makedirs(directory)
    np.savez(
        os.path.join(directory, "graph-0.npz"),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )
    index_path = os.path.join(directory, "index-0.npz")
    edge = EdgeSimilarityIndex.build(graph, SimilarityConfig())
    edge.save(index_path)
    if index_kind == "cluster":
        with np.load(index_path, allow_pickle=False) as archive:
            fields = {name: archive[name] for name in archive.files}
        np.savez_compressed(index_path, mu_cap=np.int64(4), **fields)

    def digest(name):
        with open(os.path.join(directory, name), "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    payload = {
        "format": 1,
        "wal_seq": wal_seq,
        "graphs": [
            {
                "name": "g",
                "file": "graph-0.npz",
                "sha256": digest("graph-0.npz"),
                "fingerprint": graph_fingerprint(graph),
                "similarity": similarity_to_wire(SimilarityConfig()),
                "mu_cap": 4,
                "auto_index": True,
                "auto_cluster_index": False,
                "updates_applied": 0,
                "index_rows_refreshed": 0,
                "index_file": "index-0.npz",
                "index_sha256": digest("index-0.npz"),
                "index_kind": index_kind,
            }
        ],
        "jobs": [],
        "update_keys": [],
    }
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(
            {"payload": payload, "sha256": hashlib.sha256(body).hexdigest()},
            handle,
            sort_keys=True,
        )


class TestOldDataDirectories:
    """Data directories written by older versions recover with one
    clustering index: those that also kept an edge-only σ index, and
    those whose records carry the retired ``mu_cap`` setting (read and
    ignored; queries stay exact at μ above the old cap)."""

    def _recover_indexed(self, data_dir, graph):
        manager = DurabilityManager(data_dir)
        try:
            entry = manager.recover().store.get("g")
        finally:
            manager.close()
        assert entry.cluster_index is not None
        assert entry.auto_cluster_index is True
        assert entry.fingerprint == graph_fingerprint(graph)
        for mu, epsilon in ((2, 0.4), (3, 0.5), (4, 0.6), (6, 0.3)):
            got = entry.cluster_index.query(epsilon, mu, seed=0)
            want = scan(graph, mu, epsilon, seed=0)
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.roles.tobytes() == want.roles.tobytes()
        return entry

    def test_add_graph_with_build_index_recovers_cluster_indexed(
        self, tmp_path
    ):
        graph = gnm_random_graph(60, 180, seed=17)
        _write_old_wal(
            tmp_path, [_old_add_graph_record(graph, build_index=True)]
        )
        entry = self._recover_indexed(tmp_path, graph)
        assert "mu_cap" not in entry.info()

    def test_add_graph_record_with_mu_cap_recovers(self, tmp_path):
        graph = gnm_random_graph(60, 180, seed=20)
        _write_old_wal(
            tmp_path,
            [_old_add_graph_record(graph, build_cluster_index=True, mu_cap=2)],
        )
        self._recover_indexed(tmp_path, graph)

    def test_build_cluster_index_record_with_mu_cap_recovers(
        self, tmp_path
    ):
        graph = gnm_random_graph(60, 180, seed=21)
        _write_old_wal(
            tmp_path,
            [
                _old_add_graph_record(graph, build_cluster_index=False),
                {"op": "build_cluster_index", "name": "g", "mu_cap": 3},
            ],
        )
        self._recover_indexed(tmp_path, graph)

    def test_cluster_checkpoint_record_with_mu_cap_recovers(
        self, tmp_path, sigma_passes
    ):
        graph = gnm_random_graph(60, 180, seed=22)
        _write_old_wal(
            tmp_path,
            [_old_add_graph_record(graph, build_cluster_index=True)],
        )
        _write_old_checkpoint(
            tmp_path, graph, wal_seq=1, index_kind="cluster"
        )
        sigma_passes.clear()
        manager = DurabilityManager(tmp_path)
        try:
            state = manager.recover()
        finally:
            manager.close()
        assert sigma_passes == []
        assert state.checkpoint_seq == 1 and state.replayed_records == 0
        self._recover_indexed(tmp_path, graph)

    def test_build_index_op_recovers_cluster_indexed(self, tmp_path):
        graph = gnm_random_graph(60, 180, seed=18)
        _write_old_wal(
            tmp_path,
            [
                _old_add_graph_record(
                    graph, build_index=False, build_cluster_index=False
                ),
                {"op": "build_index", "name": "g"},
            ],
        )
        self._recover_indexed(tmp_path, graph)

    def test_edge_index_checkpoint_loads_sigma_without_a_pass(
        self, tmp_path, sigma_passes
    ):
        graph = gnm_random_graph(60, 180, seed=19)
        _write_old_wal(
            tmp_path, [_old_add_graph_record(graph, build_index=True)]
        )
        _write_old_checkpoint(tmp_path, graph, wal_seq=1)
        archived = EdgeSimilarityIndex.build(graph, SimilarityConfig())
        sigma_passes.clear()
        manager = DurabilityManager(tmp_path)
        try:
            state = manager.recover()
        finally:
            manager.close()
        assert sigma_passes == []
        assert state.checkpoint_seq == 1 and state.replayed_records == 0
        entry = state.store.get("g")
        assert (
            entry.cluster_index.edge.sigmas.tobytes()
            == archived.sigmas.tobytes()
        )
        self._recover_indexed(tmp_path, graph)


class TestClientCircuitBreaker:
    """Satellite: the client fails fast on a dead endpoint."""

    def _dead_port(self):
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]
        finally:
            probe.close()

    def test_breaker_opens_after_consecutive_transport_failures(self):
        client = ServiceClient(
            f"http://127.0.0.1:{self._dead_port()}",
            timeout=0.5,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=30.0,
        )
        try:
            for _ in range(2):
                with pytest.raises(ServiceClientError) as info:
                    client.health()
                assert info.value.status == 0
            assert client.breaker_open
            # Open breaker: fail-fast, no connect attempt, retry hint.
            with pytest.raises(ServiceClientError) as info:
                client.health()
            assert "circuit breaker open" in str(info.value)
            assert info.value.retry_after is not None
        finally:
            client.close()

    def test_disabled_breaker_never_opens(self):
        client = ServiceClient(
            f"http://127.0.0.1:{self._dead_port()}",
            timeout=0.5,
            max_retries=0,
            breaker_threshold=0,
        )
        try:
            for _ in range(4):
                with pytest.raises(ServiceClientError) as info:
                    client.health()
                assert "circuit breaker" not in str(info.value)
            assert not client.breaker_open
        finally:
            client.close()

    def test_bad_breaker_config_is_refused(self):
        with pytest.raises(ConfigError):
            ServiceClient(
                "http://127.0.0.1:1", breaker_threshold=-1
            )
        with pytest.raises(ConfigError):
            ServiceClient(
                "http://127.0.0.1:1", breaker_cooldown=0.0
            )
