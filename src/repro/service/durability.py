"""Durable mutation log, checkpoints, and crash recovery (DESIGN.md §13).

The serving layer's persistence plane, built from two pieces:

* :class:`WriteAheadLog` — an append-only file of CRC-framed JSON
  records, one per accepted mutation (graph registration, edge-update
  batches with their idempotency keys, index builds).  Records are
  written *before* the mutation is applied and made durable with a
  group-commit ``fsync``: one caller becomes the sync leader and pays
  the barrier for every record written so far, concurrent callers just
  wait for the watermark.  A torn tail (crash mid-write) is detected by
  the frame CRCs on open and truncated; a failed ``fsync`` rolls the
  unsynced suffix back so an unacknowledged record never lingers in the
  file while the live store diverges from it.
* Checkpoints — periodic atomic snapshots (``checkpoints/ckpt-<seq>``)
  holding every graph's CSR arrays, its σ/clustering-index archive, the
  pickled resumable jobs, and the update idempotency-key table, bound
  to the WAL sequence number they reflect.  Recovery is checkpoint-load
  + WAL-tail replay; the WAL is compacted back to the oldest retained
  checkpoint after each successful snapshot.

Recovery invariants (enforced by the ``tests/test_chaos_recovery.py``
battery, which SIGKILLs serving processes at the ``wal.append``,
``wal.fsync``, ``checkpoint.write`` and ``recovery.replay`` fault
sites):

* an acknowledged mutation is always recovered (ack happens only after
  its record is fsynced *and* applied);
* an unacknowledged batch is recovered atomically — fully present or
  fully absent, never partially applied;
* replay dedupes ``update_edges`` records by idempotency key, so a
  keyed client retry that straddles a crash still applies exactly once;
* the recovered store answers byte-identically to a fresh sequential
  build over the same mutation stream (replay *is* such a build).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.faults import fault_point
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.service.store import GraphEntry, GraphStore
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import IndexIntegrityError, graph_fingerprint
from repro.similarity.weighted import SimilarityConfig

__all__ = [
    "DurabilityError",
    "DurabilityManager",
    "RecoveredState",
    "WriteAheadLog",
    "list_checkpoints",
    "similarity_from_wire",
    "similarity_to_wire",
    "write_checkpoint",
]


class DurabilityError(ReproError):
    """Raised when the WAL or a checkpoint cannot uphold durability."""


#: File name of the log inside a data directory.
WAL_FILENAME = "wal.log"
#: Subdirectory holding checkpoints inside a data directory.
CHECKPOINT_DIRNAME = "checkpoints"

_MAGIC = b"REPROWAL1\n"
#: Frame header: record sequence number, payload byte length, CRC32.
_FRAME = struct.Struct("<QII")
#: The CRC covers (seq, length, payload) so a frame cannot be replayed
#: at the wrong position after file surgery.
_CRC_SEED = struct.Struct("<QI")
_MAX_RECORD_BYTES = 64 * 1024 * 1024
_CHECKPOINT_PREFIX = "ckpt-"
_CHECKPOINT_FORMAT = 1

#: Every :class:`SimilarityConfig` field rides the wire — ``pruning``
#: does not change σ, but round-tripping the exact config keeps a
#: recovered store's entries indistinguishable from the originals.
_SIMILARITY_FIELDS = ("kind", "closed", "self_weight", "count_self", "pruning")


def similarity_to_wire(config: SimilarityConfig) -> Dict[str, object]:
    """JSON-ready dict capturing a similarity config exactly."""
    return {name: getattr(config, name) for name in _SIMILARITY_FIELDS}


def similarity_from_wire(data: Dict[str, object]) -> SimilarityConfig:
    """Rebuild the config a :func:`similarity_to_wire` dict captured."""
    if not isinstance(data, dict):
        raise DurabilityError("similarity record must be an object")
    missing = [name for name in _SIMILARITY_FIELDS if name not in data]
    if missing:
        raise DurabilityError(
            f"similarity record is missing fields {missing}"
        )
    return SimilarityConfig(
        **{name: data[name] for name in _SIMILARITY_FIELDS}
    )


def _open_wal(path: str):
    """Open (creating on first use) a log file, unbuffered.

    Unbuffered (``buffering=0``) so there is exactly one durability
    boundary — the explicit ``fsync`` — with no library-level buffer
    whose flush can fail at a surprising moment.  Listed under the
    analyzer's ``handle-factories`` config, so R8 tracks every caller's
    close obligation the way it tracks shared-memory segments.
    """
    try:
        return open(path, "x+b", buffering=0)
    except FileExistsError:
        return open(path, "r+b", buffering=0)


def _write_all(handle, data: bytes) -> None:
    """Loop a raw-file write to completion (raw IO may write short)."""
    view = memoryview(data)
    while view:
        written = handle.write(view)
        if written is None:
            raise DurabilityError("non-blocking write on the WAL handle")
        view = view[written:]


def _fsync_dir(path: str) -> None:
    """Fsync a directory so a rename into it survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Checksummed, fsync-batched, append-only mutation log.

    Thread-safe: appends serialize under one condition variable that
    also coordinates the group commit.  Opening scans the whole file,
    validating frame CRCs and sequence continuity, and truncates the
    first torn/corrupt frame and everything after it (a crash mid-write
    can only damage the tail; anything before the last good frame was
    covered by an earlier fsync barrier).
    """

    def __init__(self, path, *, metrics=None) -> None:
        self.path = os.fspath(path)
        self.metrics = metrics
        self._cond = threading.Condition()
        self._failed = False
        self._leader = False
        self._handle = _open_wal(self.path)
        try:
            self._seq, self._tail = self._scan_and_repair()
        except BaseException:
            self._handle.close()
            raise
        self._synced_seq = self._seq
        self._synced_tail = self._tail

    # ------------------------------------------------------------------
    # open-time scan
    # ------------------------------------------------------------------
    def _scan_and_repair(self) -> Tuple[int, int]:
        handle = self._handle
        handle.seek(0)
        blob = handle.read()
        if not blob:
            _write_all(handle, _MAGIC)
            os.fsync(handle.fileno())
            return 0, len(_MAGIC)
        if not blob.startswith(_MAGIC):
            raise DurabilityError(
                f"{self.path} is not a repro write-ahead log"
            )
        seq, valid_end = _scan_frames(blob)[-1]
        if valid_end < len(blob):
            # Torn tail: a frame the process died inside.  Nothing in it
            # was ever acknowledged (acks wait for the fsync barrier),
            # so dropping it restores the acked-prefix invariant.
            handle.truncate(valid_end)
            os.fsync(handle.fileno())
            if self.metrics is not None:
                self.metrics.record_event(
                    "wal_tail_truncated",
                    {
                        "path": self.path,
                        "dropped_bytes": len(blob) - valid_end,
                        "last_seq": seq,
                    },
                )
        return seq, valid_end

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest written (not necessarily
        synced) record."""
        with self._cond:
            return self._seq

    @property
    def synced_seq(self) -> int:
        """Highest sequence number covered by an fsync barrier."""
        with self._cond:
            return self._synced_seq

    def append(self, record: Dict[str, object], *, sync: bool = True) -> int:
        """Write one record; with ``sync`` (default) block until it is
        durable.  Returns the record's sequence number.

        On any write/fsync failure the unsynced suffix of the file is
        rolled back (truncated) before the exception propagates, so a
        record that was never acknowledged cannot reappear on replay.
        """
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        if len(payload) > _MAX_RECORD_BYTES:
            raise DurabilityError("WAL record exceeds the 64 MiB frame cap")
        with self._cond:
            if self._failed:
                raise DurabilityError(
                    "write-ahead log is failed-stop after an unrecoverable "
                    "rollback; restart the process to re-open it"
                )
            fault_point("wal.append")
            seq = self._seq + 1
            crc = zlib.crc32(_CRC_SEED.pack(seq, len(payload)) + payload)
            frame = _FRAME.pack(seq, len(payload), crc) + payload
            try:
                self._handle.seek(self._tail)
                _write_all(self._handle, frame)
            except BaseException:
                self._rollback_locked()
                raise
            self._seq = seq
            self._tail += len(frame)
        if sync:
            self.sync(seq)
        return seq

    def sync(self, seq: Optional[int] = None) -> None:
        """Block until records up to ``seq`` are fsynced (group commit).

        The first caller to arrive becomes the leader and fsyncs once
        for everything written so far; concurrent callers wait on the
        condition and return as soon as the barrier covers their
        record.  A failed barrier rolls the whole unsynced suffix back
        and fails every waiter — their records were never durable.
        """
        with self._cond:
            if seq is None:
                seq = self._seq
            while True:
                if self._synced_seq >= seq:
                    return
                if self._failed or self._seq < seq:
                    raise DurabilityError(
                        "write-ahead log record was rolled back by a "
                        "failed sync"
                    )
                if not self._leader:
                    self._leader = True
                    target_seq, target_tail = self._seq, self._tail
                    break
                self._cond.wait(0.5)
        try:
            fault_point("wal.fsync")
            os.fsync(self._handle.fileno())
        except BaseException:
            with self._cond:
                self._leader = False
                self._rollback_locked()
                self._cond.notify_all()
            raise
        with self._cond:
            self._synced_seq = max(self._synced_seq, target_seq)
            self._synced_tail = max(self._synced_tail, target_tail)
            self._leader = False
            self._cond.notify_all()

    def _rollback_locked(self) -> None:
        """Truncate back to the last synced frame after a failure.

        The dropped records were never acknowledged (acks wait for the
        barrier), so removing them keeps the file and the live store in
        agreement.  If even the truncate fails the log goes failed-stop:
        refusing every further mutation beats silently diverging.
        """
        try:
            self._handle.truncate(self._synced_tail)
        except OSError as exc:
            self._failed = True
            if self.metrics is not None:
                self.metrics.record_event(
                    "wal_failed_stop",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            return
        dropped = self._seq - self._synced_seq
        self._seq = self._synced_seq
        self._tail = self._synced_tail
        if self.metrics is not None:
            self.metrics.record_event(
                "wal_rolled_back", {"dropped_records": dropped}
            )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(
        self, *, after: int = 0
    ) -> Iterator[Tuple[int, Dict[str, object]]]:
        """Yield ``(seq, record)`` for every record with ``seq > after``.

        Reads through a separate handle up to the current valid tail,
        so iteration never observes a frame an in-flight append is
        still writing.
        """
        with self._cond:
            tail = self._tail
        with open(self.path, "rb") as handle:
            blob = handle.read(tail)
        for seq, record, _ in _parse_frames(self.path, blob):
            if seq > after:
                yield seq, record

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, up_to: int) -> int:
        """Drop records with ``seq <= up_to`` (now covered by a
        checkpoint), rewriting the file atomically.  Sequence numbers
        are preserved, so the first frame of a compacted log starts
        above 1.  Returns the number of records dropped.
        """
        with self._cond:
            if self._failed:
                raise DurabilityError(
                    "cannot compact a failed-stop write-ahead log"
                )
            os.fsync(self._handle.fileno())
            self._synced_seq, self._synced_tail = self._seq, self._tail
            with open(self.path, "rb") as reader:
                blob = reader.read(self._tail)
            kept: List[bytes] = []
            dropped = 0
            for seq, _, raw in _parse_frames(self.path, blob):
                if seq > up_to:
                    kept.append(raw)
                else:
                    dropped += 1
            if not dropped:
                return 0
            tmp = self.path + ".compact"
            with open(tmp, "wb") as writer:
                writer.write(_MAGIC)
                for raw in kept:
                    writer.write(raw)
                writer.flush()
                os.fsync(writer.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._handle.close()
            self._handle = _open_wal(self.path)
            self._tail = len(_MAGIC) + sum(len(raw) for raw in kept)
            self._synced_tail = self._tail
            return dropped

    def close(self) -> None:
        """Fsync (best effort) and close the underlying handle."""
        with self._cond:
            try:
                if not self._failed:
                    os.fsync(self._handle.fileno())
            except OSError as exc:
                if self.metrics is not None:
                    self.metrics.record_event(
                        "wal_close_sync_failed",
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
            self._handle.close()


def _scan_frames(blob: bytes) -> List[Tuple[int, int]]:
    """Walk frames; returns ``[(seq, end_offset)]`` with a leading
    ``(0, header_end)`` sentinel.  Stops (without raising) at the first
    torn or corrupt frame — tail damage is expected after a crash."""
    offset = len(_MAGIC)
    out: List[Tuple[int, int]] = [(0, offset)]
    seq = 0
    while offset + _FRAME.size <= len(blob):
        frame_seq, length, crc = _FRAME.unpack_from(blob, offset)
        body_start = offset + _FRAME.size
        if length > _MAX_RECORD_BYTES or body_start + length > len(blob):
            break
        payload = blob[body_start : body_start + length]
        if zlib.crc32(_CRC_SEED.pack(frame_seq, length) + payload) != crc:
            break
        if seq and frame_seq != seq + 1:
            break
        if not seq and frame_seq < 1:
            break
        seq = frame_seq
        offset = body_start + length
        out.append((seq, offset))
    return out


def _parse_frames(
    path: str, blob: bytes
) -> Iterator[Tuple[int, Dict[str, object], bytes]]:
    """Yield ``(seq, record, raw_frame)`` for every valid frame."""
    if not blob.startswith(_MAGIC):
        raise DurabilityError(f"{path} is not a repro write-ahead log")
    offset = len(_MAGIC)
    seq = 0
    while offset + _FRAME.size <= len(blob):
        frame_seq, length, crc = _FRAME.unpack_from(blob, offset)
        body_start = offset + _FRAME.size
        if length > _MAX_RECORD_BYTES or body_start + length > len(blob):
            return
        payload = blob[body_start : body_start + length]
        if zlib.crc32(_CRC_SEED.pack(frame_seq, length) + payload) != crc:
            return
        if seq and frame_seq != seq + 1:
            return
        if not seq and frame_seq < 1:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            # CRC passed but the payload is not JSON: we wrote garbage,
            # which is a bug, not tail damage — fail loudly.
            raise DurabilityError(
                f"undecodable WAL record at seq {frame_seq} in {path}"
            ) from exc
        seq = frame_seq
        end = body_start + length
        yield seq, record, blob[offset:end]
        offset = end


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def list_checkpoints(data_dir) -> List[Tuple[int, str]]:
    """``[(wal_seq, path)]`` of complete checkpoints, newest first."""
    root = os.path.join(os.fspath(data_dir), CHECKPOINT_DIRNAME)
    if not os.path.isdir(root):
        return []
    return _checkpoints_in(root)


def write_checkpoint(
    data_dir,
    *,
    wal_seq: int,
    entries: Sequence[GraphEntry],
    job_blobs: Sequence[bytes] = (),
    update_keys: Sequence[Tuple[str, str]] = (),
    keep: int = 2,
    metrics=None,
) -> str:
    """Write ``checkpoints/ckpt-<wal_seq>`` atomically; returns its path.

    Everything lands in a temporary sibling directory first (graph CSR
    arrays, index archives, job pickles, then the manifest binding them
    with per-file SHA-256 digests), which one ``os.replace`` publishes.
    A crash before the rename leaves only an ignored ``.tmp-*`` dir; a
    crash after it leaves a complete checkpoint.  Older checkpoints
    beyond ``keep`` are pruned afterwards.
    """
    root = os.path.join(os.fspath(data_dir), CHECKPOINT_DIRNAME)
    os.makedirs(root, exist_ok=True)
    final = os.path.join(root, f"{_CHECKPOINT_PREFIX}{int(wal_seq):012d}")
    tmp = os.path.join(root, f".tmp-{os.getpid()}-{int(wal_seq)}")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        graphs = []
        for position, entry in enumerate(entries):
            graph_file = f"graph-{position}.npz"
            graph_path = os.path.join(tmp, graph_file)
            np.savez(
                graph_path,
                indptr=entry.graph.indptr,
                indices=entry.graph.indices,
                weights=entry.graph.weights,
            )
            record: Dict[str, object] = {
                "name": entry.name,
                "file": graph_file,
                "sha256": _sha256_file(graph_path),
                "fingerprint": entry.fingerprint,
                "similarity": similarity_to_wire(entry.similarity),
                "auto_cluster_index": bool(entry.auto_cluster_index),
                "updates_applied": int(entry.updates_applied),
                "index_rows_refreshed": int(entry.index_rows_refreshed),
                "index_file": None,
                "index_sha256": None,
                "index_kind": None,
            }
            if entry.cluster_index is not None:
                index_file = f"index-{position}.npz"
                index_path = os.path.join(tmp, index_file)
                entry.cluster_index.save(index_path)
                record.update(
                    index_file=index_file,
                    index_kind="cluster",
                    index_sha256=_sha256_file(index_path),
                )
            graphs.append(record)
        jobs = []
        for position, blob in enumerate(job_blobs):
            job_file = f"job-{position}.pkl"
            job_path = os.path.join(tmp, job_file)
            with open(job_path, "wb") as handle:
                handle.write(blob)
            jobs.append({"file": job_file, "sha256": _sha256_file(job_path)})
        payload = {
            "format": _CHECKPOINT_FORMAT,
            "wal_seq": int(wal_seq),
            "graphs": graphs,
            "jobs": jobs,
            "update_keys": [
                [str(name), str(key)] for name, key in update_keys
            ],
        }
        body = json.dumps(payload, sort_keys=True)
        manifest = {
            "payload": payload,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        }
        manifest_path = os.path.join(tmp, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("checkpoint.write")
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        _fsync_dir(root)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _prune_checkpoints(root, keep=keep, metrics=metrics)
    return final


def _prune_checkpoints(root: str, *, keep: int, metrics=None) -> List[int]:
    """Drop all but the newest ``keep`` checkpoints and stale tmp dirs;
    returns the retained sequence numbers (newest first)."""
    kept: List[int] = []
    for position, (seq, path) in enumerate(_checkpoints_in(root)):
        if position < keep:
            kept.append(seq)
            continue
        try:
            shutil.rmtree(path)
        except OSError as exc:
            if metrics is not None:
                metrics.record_event(
                    "checkpoint_prune_failed",
                    {"path": path, "error": f"{type(exc).__name__}: {exc}"},
                )
    for name in os.listdir(root):
        if name.startswith(".tmp-"):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return kept


def _checkpoints_in(root: str) -> List[Tuple[int, str]]:
    found: List[Tuple[int, str]] = []
    for name in os.listdir(root):
        if not name.startswith(_CHECKPOINT_PREFIX):
            continue
        suffix = name[len(_CHECKPOINT_PREFIX):]
        if not suffix.isdigit():
            # Not a checkpoint directory, just a name-collision.
            continue
        found.append((int(suffix), os.path.join(root, name)))
    found.sort(reverse=True)
    return found


def _read_manifest(directory: str) -> Dict[str, object]:
    """Load and integrity-check one checkpoint manifest."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise DurabilityError(
            f"unreadable checkpoint manifest {path}: {exc}"
        ) from exc
    payload = manifest.get("payload") if isinstance(manifest, dict) else None
    digest = manifest.get("sha256") if isinstance(manifest, dict) else None
    if not isinstance(payload, dict) or not isinstance(digest, str):
        raise DurabilityError(f"malformed checkpoint manifest {path}")
    body = json.dumps(payload, sort_keys=True)
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != digest:
        raise DurabilityError(f"checkpoint manifest checksum mismatch: {path}")
    if payload.get("format") != _CHECKPOINT_FORMAT:
        raise DurabilityError(
            f"unsupported checkpoint format {payload.get('format')!r}"
        )
    return payload


def _verified_file(directory: str, record: Dict[str, object],
                   file_key: str, sha_key: str) -> str:
    name = record.get(file_key)
    digest = record.get(sha_key)
    if not isinstance(name, str) or not isinstance(digest, str):
        raise DurabilityError(f"checkpoint record missing {file_key}")
    path = os.path.join(directory, name)
    if not os.path.exists(path) or _sha256_file(path) != digest:
        raise DurabilityError(f"checkpoint file damaged or missing: {path}")
    return path


def _load_checkpoint_into(
    store: GraphStore, directory: str, payload: Dict[str, object],
    *, metrics=None,
) -> None:
    """Install every checkpointed graph (and its index) into ``store``.

    Graph damage fails the whole checkpoint (the caller falls back to
    an older one or to pure WAL replay); index damage only degrades —
    the index is a deterministic function of the graph and is rebuilt
    on the spot, bitwise identical to the archived one.  Checkpoints
    written before the service kept one index kind may hold an
    ``index_kind="edge"`` σ archive: the clustering index loads from it
    without a σ pass (the clustering archive format is a superset), and
    the entry is marked ``auto_cluster_index`` like every indexed one.
    """
    for record in payload.get("graphs", ()):
        graph_path = _verified_file(directory, record, "file", "sha256")
        with np.load(graph_path) as archive:
            graph = Graph(
                np.array(archive["indptr"]),
                np.array(archive["indices"]),
                np.array(archive["weights"]),
            )
        if graph_fingerprint(graph) != record.get("fingerprint"):
            raise DurabilityError(
                f"checkpointed graph {record.get('name')!r} does not match "
                "its recorded fingerprint"
            )
        similarity = similarity_from_wire(record["similarity"])
        cluster_index = None
        indexed = record.get("index_kind") in ("cluster", "edge")
        if indexed:
            try:
                index_path = _verified_file(
                    directory, record, "index_file", "index_sha256"
                )
                cluster_index = ClusteringIndex.load(
                    index_path, graph, config=similarity
                )
            except (DurabilityError, IndexIntegrityError, ConfigError) as exc:
                if metrics is not None:
                    metrics.record_event(
                        "recovery_index_rebuilt",
                        {
                            "graph": record.get("name"),
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                cluster_index = ClusteringIndex.build(graph, similarity)
        entry = GraphEntry(
            name=str(record["name"]),
            graph=graph,
            similarity=similarity,
            fingerprint=str(record["fingerprint"]),
            cluster_index=cluster_index,
            auto_cluster_index=bool(record.get("auto_cluster_index"))
            or indexed,
            updates_applied=int(record.get("updates_applied", 0)),
            index_rows_refreshed=int(record.get("index_rows_refreshed", 0)),
        )
        store.adopt_entry(entry, replace=True)


def _load_jobs(
    directory: str, payload: Dict[str, object], *, metrics=None
) -> List[bytes]:
    """Read checkpointed job pickles; damaged blobs are skipped (job
    loss is witnessed, graph integrity is the hard guarantee)."""
    blobs: List[bytes] = []
    for record in payload.get("jobs", ()):
        try:
            path = _verified_file(directory, record, "file", "sha256")
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        except (DurabilityError, OSError) as exc:
            if metrics is not None:
                metrics.record_event(
                    "recovery_job_blob_skipped",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
    return blobs


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveredState:
    """Everything a cold restart reconstructs from a data directory."""

    store: GraphStore
    #: ``(graph, idempotency key)`` pairs already applied, in original
    #: acceptance order — seeds the server's update-replay table.
    update_keys: List[Tuple[str, str]] = field(default_factory=list)
    #: Pickled resumable jobs from the checkpoint, for
    #: :meth:`~repro.service.jobs.JobScheduler.import_job`.
    job_blobs: List[bytes] = field(default_factory=list)
    checkpoint_seq: int = 0
    last_seq: int = 0
    replayed_records: int = 0
    #: Edge operations replayed from the WAL tail (bench: edges/sec).
    replayed_mutations: int = 0
    deduped_records: int = 0
    failed_records: int = 0


def _apply_record(
    store: GraphStore,
    record: Dict[str, object],
    applied_keys: Set[Tuple[str, str]],
    *,
    metrics=None,
) -> Tuple[str, int]:
    """Re-apply one WAL record; returns ``(outcome, edge_ops)``.

    A :class:`ReproError` from the store is the *deterministic replay
    of a deterministic failure* — the original apply failed the same
    way after the record was logged, so witnessing and continuing keeps
    the replayed stream aligned with history.  Records from logs
    written before the service kept one index kind (``build_index`` on
    ``add_graph``, the ``build_index`` op) replay as clustering-index
    builds.
    """
    op = record.get("op")
    try:
        if op == "add_graph":
            builder = GraphBuilder(int(record["n"]))
            for u, v, w in record["edges"]:
                builder.add_edge(int(u), int(v), float(w))
            store.add(
                str(record["name"]),
                builder.build(),
                similarity=similarity_from_wire(record["similarity"]),
                build_cluster_index=bool(
                    record.get("build_cluster_index")
                    or record.get("build_index")
                ),
                replace=bool(record.get("replace")),
            )
            return "applied", len(record["edges"])
        if op == "remove_graph":
            store.remove(str(record["name"]))
            return "applied", 0
        if op == "update_edges":
            name = str(record["name"])
            key = record.get("key")
            if key is not None and (name, str(key)) in applied_keys:
                if metrics is not None:
                    metrics.record_event(
                        "recovery_replay_deduped",
                        {"graph": name, "key": str(key)},
                    )
                return "deduped", 0
            store.update_edges(
                name,
                insert=record.get("insert", ()),
                delete=record.get("delete", ()),
                add_vertices=int(record.get("add_vertices", 0)),
            )
            if key is not None:
                applied_keys.add((name, str(key)))
            return "applied", (
                len(record.get("insert", ()))
                + len(record.get("delete", ()))
                + int(record.get("add_vertices", 0))
            )
        if op in ("build_cluster_index", "build_index"):
            store.ensure_cluster_index(str(record["name"]))
            return "applied", 0
        raise DurabilityError(f"unknown WAL record op {op!r}")
    except DurabilityError:
        raise
    except ReproError as exc:
        if metrics is not None:
            metrics.record_event(
                "recovery_record_failed",
                {"op": op, "error": f"{type(exc).__name__}: {exc}"},
            )
        return "failed", 0


class DurabilityManager:
    """One data directory's durability: WAL + checkpoint cadence.

    The manager is the store's journal (duck-typed
    ``log_mutation``/``last_seq``, see
    :meth:`~repro.service.store.GraphStore.attach_journal`) and the
    server's checkpoint scheduler: every ``checkpoint_every``-th applied
    mutation triggers a snapshot, and the WAL is compacted back to the
    oldest retained checkpoint after each success.
    """

    def __init__(
        self,
        data_dir,
        *,
        checkpoint_every: int = 64,
        keep_checkpoints: int = 2,
        metrics=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if keep_checkpoints < 1:
            raise ConfigError("keep_checkpoints must be >= 1")
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.keep_checkpoints = int(keep_checkpoints)
        self.metrics = metrics
        self.wal: Optional[WriteAheadLog] = None
        self._lock = threading.Lock()
        self._since_checkpoint = 0
        self._checkpointing = False

    @property
    def wal_path(self) -> str:
        """Path of the log file inside the data directory."""
        return os.path.join(self.data_dir, WAL_FILENAME)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Checkpoint-load + WAL-tail replay; returns the rebuilt state.

        Tries checkpoints newest-first; a damaged one is witnessed and
        skipped (falling back to the previous, and ultimately to pure
        WAL replay from an empty store).  Leaves the WAL open for
        subsequent journaling.
        """
        store = GraphStore(metrics=self.metrics)
        checkpoint_seq = 0
        update_keys: List[Tuple[str, str]] = []
        job_blobs: List[bytes] = []
        for seq, path in list_checkpoints(self.data_dir):
            candidate = GraphStore(metrics=self.metrics)
            try:
                payload = _read_manifest(path)
                _load_checkpoint_into(
                    candidate, path, payload, metrics=self.metrics
                )
            except DurabilityError as exc:
                if self.metrics is not None:
                    self.metrics.record_event(
                        "recovery_checkpoint_skipped",
                        {
                            "path": path,
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                continue
            store = candidate
            checkpoint_seq = int(payload["wal_seq"])
            update_keys = [
                (str(name), str(key))
                for name, key in payload.get("update_keys", ())
            ]
            job_blobs = _load_jobs(path, payload, metrics=self.metrics)
            break
        if self.wal is not None:
            self.wal.close()
        self.wal = WriteAheadLog(self.wal_path, metrics=self.metrics)
        applied_keys = set(update_keys)
        state = RecoveredState(
            store=store,
            update_keys=update_keys,
            job_blobs=job_blobs,
            checkpoint_seq=checkpoint_seq,
        )
        for seq, record in self.wal.records(after=checkpoint_seq):
            fault_point("recovery.replay")
            outcome, edge_ops = _apply_record(
                store, record, applied_keys, metrics=self.metrics
            )
            state.replayed_records += 1
            state.replayed_mutations += edge_ops
            if outcome == "deduped":
                state.deduped_records += 1
            elif outcome == "failed":
                state.failed_records += 1
            elif record.get("op") == "update_edges":
                key = record.get("key")
                if key is not None:
                    state.update_keys.append(
                        (str(record["name"]), str(key))
                    )
        state.last_seq = self.wal.last_seq
        with self._lock:
            self._since_checkpoint = 0
        if self.metrics is not None:
            self.metrics.record_event(
                "recovery_complete",
                {
                    "checkpoint_seq": state.checkpoint_seq,
                    "last_seq": state.last_seq,
                    "replayed_records": state.replayed_records,
                    "deduped_records": state.deduped_records,
                    "failed_records": state.failed_records,
                    "graphs": len(store),
                },
            )
        return state

    # ------------------------------------------------------------------
    # journal protocol (GraphStore.attach_journal)
    # ------------------------------------------------------------------
    def log_mutation(self, record: Dict[str, object]) -> int:
        """Append one mutation record durably; the store calls this
        before applying (log-before-apply)."""
        wal = self.wal
        if wal is None:
            raise DurabilityError(
                "durability manager has no open WAL; call recover() first"
            )
        return wal.append(record)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest logged mutation (0 if none)."""
        wal = self.wal
        return wal.last_seq if wal is not None else 0

    # ------------------------------------------------------------------
    # checkpoint cadence
    # ------------------------------------------------------------------
    def note_applied(self, snapshot_fn) -> bool:
        """Count one applied mutation; checkpoint at the cadence.

        ``snapshot_fn`` is a zero-argument callable producing the dict
        :meth:`checkpoint` consumes — only invoked when a checkpoint is
        actually due, and never concurrently with another checkpoint.
        """
        with self._lock:
            self._since_checkpoint += 1
            due = (
                self._since_checkpoint >= self.checkpoint_every
                and not self._checkpointing
            )
            if due:
                self._since_checkpoint = 0
                self._checkpointing = True
        if not due:
            return False
        try:
            return self.checkpoint(snapshot_fn()) is not None
        finally:
            with self._lock:
                self._checkpointing = False

    def checkpoint(self, snapshot: Dict[str, object]) -> Optional[str]:
        """Write one checkpoint from a server snapshot; never raises.

        ``snapshot`` holds ``entries`` (a coherent
        :class:`~repro.service.store.GraphEntry` list), ``wal_seq`` (the
        journal position those entries reflect), ``job_blobs`` and
        ``update_keys``.  A failed write is witnessed and degrades to
        WAL-only recovery — the log still has everything.
        """
        try:
            path = write_checkpoint(
                self.data_dir,
                wal_seq=int(snapshot["wal_seq"]),
                entries=snapshot.get("entries", ()),
                job_blobs=snapshot.get("job_blobs", ()),
                update_keys=snapshot.get("update_keys", ()),
                keep=self.keep_checkpoints,
                metrics=self.metrics,
            )
        except Exception as exc:
            if self.metrics is not None:
                self.metrics.record_event(
                    "checkpoint_failed",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            return None
        kept = [seq for seq, _ in list_checkpoints(self.data_dir)]
        try:
            # Compact only when an *older* checkpoint remains as the
            # fallback: trimming up to the one and only checkpoint would
            # make it a single point of failure (a damaged manifest
            # would then lose the compacted prefix for good).
            if len(kept) >= 2 and self.wal is not None:
                self.wal.compact(min(kept))
        except (DurabilityError, OSError) as exc:
            # Compaction is pure hygiene; recovery only needs records
            # past the checkpoint, and extra ones are skipped by seq.
            if self.metrics is not None:
                self.metrics.record_event(
                    "wal_compact_failed",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        if self.metrics is not None:
            self.metrics.record_event(
                "checkpoint_written",
                {"path": path, "wal_seq": int(snapshot["wal_seq"])},
            )
        return path

    def close(self) -> None:
        """Close the WAL handle (checkpointing is the caller's call)."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None
