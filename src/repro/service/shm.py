"""Zero-copy shared-memory publication of the GraphStore (DESIGN.md §11).

The multi-process serving fleet needs every worker to see the hosted
graphs — CSR arrays, materialized per-edge σ, and the GS*-style derived
structure — without ever pickling them across process boundaries.  This
module is the storage half of that design:

* :class:`ManifestBlock` — a single shared segment holding a JSON
  manifest under a **seqlock**: an 8-byte generation counter that is odd
  while the writer is mid-update and even when the payload is stable.
  Readers sample the generation, copy the payload, and re-sample; a
  mismatch (or an odd value) means "retry", so torn reads are detected
  rather than served.  One writer, any number of readers, no locks
  shared across processes.
* :class:`StorePublisher` — the single writer's mirror.  Each
  :class:`~repro.service.store.GraphEntry` is published as a group of
  immutable named segments (``repro_{pid}_g{slug}e{epoch}_{label}_…``)
  through a :class:`~repro.parallel.processes.SegmentRegistry`, so the
  atexit/SIGTERM sweep and the ``/dev/shm`` leak audit cover the
  service layer.  A
  mutation publishes a **new epoch** (fresh segments), rewrites the
  manifest, then unlinks the previous epoch's segments — attached
  readers keep their mappings (POSIX unlink removes the name, not the
  memory), and new attachments can only land on the new epoch.
* :class:`AttachedGraphStore` — the reader's view.  It attaches every
  array zero-copy (read-only numpy views over the segments; the
  clustering index is rebuilt via
  :meth:`~repro.similarity.gsindex.ClusteringIndex.from_derived`, so no
  O(m log m) re-derivation happens), revalidates the manifest
  generation before every read, and re-attaches exactly the entries
  whose epoch moved.  Stale reads are impossible: an entry is only ever
  swapped in *after* its manifest record — fingerprint included — was
  read consistently under the seqlock.

Epoch protocol invariants (the short version; DESIGN.md §11 has the
full argument):

1. segments are immutable once published — a segment name never serves
   two different byte contents;
2. the manifest write is the commit point — readers act only on records
   they observed under a stable generation;
3. unlink-after-commit cannot strand a reader — a reader that loses the
   attach race (``FileNotFoundError`` on a just-retired name) re-reads
   the manifest and lands on the newer epoch.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import Graph
from repro.parallel.processes import (
    SegmentRegistry,
    SharedArraySpec,
    untrack_attachment,
)
from repro.service.store import GraphEntry
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

__all__ = [
    "DEFAULT_MANIFEST_BYTES",
    "AttachedGraphStore",
    "ManifestBlock",
    "StorePublisher",
]

#: Default manifest capacity.  Manifest records are O(100) bytes per
#: graph plus the worker table, so 1 MiB is orders of magnitude above
#: any realistic fleet; the writer raises loudly on overflow.
DEFAULT_MANIFEST_BYTES = 1 << 20

#: ``(generation, payload length)`` — both unsigned 64-bit.
_HEADER = struct.Struct("<QQ")

#: How long a reader spins on a mid-write manifest before giving up.
#: Writes are one JSON dump plus two header stores, so microseconds;
#: a full second of odd generation means the writer died mid-write.
_READ_TIMEOUT_SECONDS = 1.0


class ManifestBlock:
    """Seqlock'd JSON document in one shared segment.

    The caller supplies the segment; the block never owns it (the
    writer's segment belongs to its :class:`SegmentRegistry`, a reader's
    to whoever attached it).  Writer methods must only ever be called
    from the single writer process — the seqlock protocol has exactly
    one writer by construction.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, *, writer: bool
    ) -> None:
        self._shm = shm
        self._writer = bool(writer)
        generation, _ = _HEADER.unpack_from(shm.buf, 0)
        # A writer adopting a fresh (zeroed) segment starts at 0; the
        # first write commits generation 2.
        self._generation = int(generation)

    @property
    def capacity(self) -> int:
        return len(self._shm.buf) - _HEADER.size

    def generation(self) -> int:
        """The current commit counter (odd = a write is in flight)."""
        generation, _ = _HEADER.unpack_from(self._shm.buf, 0)
        return int(generation)

    def write(self, payload: Dict[str, object]) -> int:
        """Commit ``payload``; returns the new (even) generation.

        Callers serialize their own writes (the publisher holds its
        lock); the seqlock only orders writer vs readers.
        """
        if not self._writer:
            raise ConfigError("manifest block opened read-only")
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        if len(data) > self.capacity:
            raise ConfigError(
                f"manifest payload ({len(data)} bytes) exceeds the "
                f"shared block capacity ({self.capacity} bytes)"
            )
        buf = self._shm.buf
        pending = self._generation + 1  # odd: readers must retry
        _HEADER.pack_into(buf, 0, pending, 0)
        buf[_HEADER.size : _HEADER.size + len(data)] = data
        self._generation = pending + 1  # even: stable again
        _HEADER.pack_into(buf, 0, self._generation, len(data))
        return self._generation

    def read(self) -> "tuple[int, Dict[str, object]]":
        """A consistent ``(generation, payload)`` snapshot.

        Spins while a write is in flight (bounded by
        :data:`_READ_TIMEOUT_SECONDS`); raises :class:`ConfigError` on
        timeout or when no payload was ever committed.
        """
        deadline = time.monotonic() + _READ_TIMEOUT_SECONDS
        buf = self._shm.buf
        while True:
            first, length = _HEADER.unpack_from(buf, 0)
            if first and first % 2 == 0:
                data = bytes(
                    buf[_HEADER.size : _HEADER.size + int(length)]
                )
                second, _ = _HEADER.unpack_from(buf, 0)
                if second == first:
                    return int(first), json.loads(data.decode("utf-8"))
            if time.monotonic() > deadline:
                raise ConfigError(
                    "manifest stayed mid-write past the read timeout "
                    "(writer died?)" if first else "manifest never written"
                )
            time.sleep(0.0005)


def _spec_to_wire(spec: SharedArraySpec) -> List[object]:
    return [spec.shm_name, list(int(x) for x in spec.shape), spec.dtype]


def _spec_from_wire(wire: Sequence[object]) -> SharedArraySpec:
    name, shape, dtype = wire
    return SharedArraySpec(str(name), tuple(int(x) for x in shape), str(dtype))


class StorePublisher:
    """Single-writer mirror of a :class:`~repro.service.store.GraphStore`.

    Attach one via :meth:`GraphStore.attach_publisher`; afterwards every
    store mutation republishes the affected entry as a fresh epoch and
    rewrites the manifest.  All segments — the manifest block included —
    are owned by one :class:`SegmentRegistry`, so ``close()`` (or the
    process-wide atexit/SIGTERM sweep) unlinks everything.
    """

    def __init__(
        self,
        *,
        manifest_bytes: int = DEFAULT_MANIFEST_BYTES,
        metrics=None,
        durable: bool = False,
    ) -> None:
        if manifest_bytes < _HEADER.size + 2:
            raise ConfigError("manifest_bytes is too small to hold a header")
        # ``durable`` keeps the segments off the resource tracker so a
        # SIGKILLed writer leaves them for its respawned successor to
        # adopt (the WAL makes the state recoverable; the segments make the
        # failover seamless for attached readers).
        self._registry = SegmentRegistry(untracked=durable)
        self._manifest_shm = self._registry.create_block(
            "manifest", manifest_bytes
        )
        self._block = ManifestBlock(self._manifest_shm, writer=True)
        self._lock = threading.Lock()
        self._graphs: Dict[str, Dict[str, object]] = {}
        self._segment_names: Dict[str, List[str]] = {}
        self._epochs: Dict[str, int] = {}
        self._slugs: Dict[str, int] = {}
        self._workers: List[Dict[str, object]] = []
        self._control_url: Optional[str] = None
        self._epoch_floor = 0
        self._adopted_manifest: Optional[str] = None
        self._foreign_segments: List[str] = []
        self.metrics = metrics
        self._block.write(self._payload())

    @classmethod
    def adopt(cls, manifest_name: str, *, metrics=None) -> "StorePublisher":
        """Become the writer of a dead writer's manifest (failover).

        A writer respawned after a crash attaches the *existing*
        manifest segment so every reader's attachment point survives the
        failover, then takes over the seqlock as the (again unique)
        writer:

        * a torn commit — the old writer died mid-write, generation odd
          — is repaired by advancing the counter to the next even value
          and discarding the unreadable payload (the WAL replay rebuilds
          every entry anyway);
        * new epochs start above ``generation // 2 + 1``: each commit
          moves the generation by 2, so no reader can hold any entry at
          an epoch that high — equality on (name, epoch) can therefore
          never confuse an old segment group with a new one;
        * the adopted graph records stay in the manifest until each is
          republished, so readers keep seeing every graph while the
          recovered store republishes them one by one;
        * the previous writer's segments are remembered and retired via
          :meth:`retire_foreign_segments` *after* the recovered store
          republished, so mid-read attachments never dangle.
        """
        self = cls.__new__(cls)
        # A respawned writer may itself be killed later; keep its
        # epochs adoptable by the next one, exactly like the original
        # durable writer's.
        self._registry = SegmentRegistry(untracked=True)
        self._manifest_shm = shared_memory.SharedMemory(name=manifest_name)
        # The manifest is adopted, not created: keep it away from this
        # process's resource tracker (close() unlinks it explicitly).
        untrack_attachment(self._manifest_shm)
        generation, _ = _HEADER.unpack_from(self._manifest_shm.buf, 0)
        self._block = ManifestBlock(self._manifest_shm, writer=True)
        self._lock = threading.Lock()
        self._graphs = {}
        self._segment_names = {}
        self._epochs = {}
        self._slugs = {}
        self._workers = []
        self._control_url = None
        self._epoch_floor = int(generation) // 2 + 1
        self._adopted_manifest = manifest_name
        self._foreign_segments = []
        self.metrics = metrics
        if generation % 2:
            # Torn commit: the payload bytes cannot be trusted.  Repair
            # the seqlock parity; the next write() publishes a fresh,
            # consistent payload at a strictly newer even generation.
            self._block._generation = int(generation) + 1
            if metrics is not None:
                metrics.record_event(
                    "manifest_torn_repaired",
                    {"generation": int(generation)},
                )
        else:
            try:
                _, payload = self._block.read()
            except ConfigError as exc:
                payload = {}
                if metrics is not None:
                    metrics.record_event(
                        "manifest_adopt_unreadable", {"error": str(exc)}
                    )
            for name, record in (payload.get("graphs") or {}).items():
                self._graphs[name] = record
                self._slugs[name] = len(self._slugs)
                self._epochs[name] = int(record.get("epoch", 0))
                for spec in (record.get("arrays") or {}).values():
                    self._foreign_segments.append(str(spec[0]))
            self._workers = list(payload.get("workers", []))
        return self

    def retire_foreign_segments(self) -> int:
        """Unlink the dead writer's segments (call after republishing).

        Adopted records that were not republished (epoch at or below
        the adoption floor) leave the manifest first, in one commit, so
        no reader can attach to a segment about to be unlinked.
        Readers mid-attach keep their mappings (POSIX unlink removes
        the name, not the memory); new attachments can only land on the
        epochs this publisher republished.
        """
        with self._lock:
            stale = [
                name
                for name, record in self._graphs.items()
                if int(record.get("epoch", 0)) <= self._epoch_floor
            ]
            if stale:
                for name in stale:
                    del self._graphs[name]
                self._block.write(self._payload())
        retired = 0
        names, self._foreign_segments = self._foreign_segments, []
        for name in names:
            try:
                # No untrack here: attaching registered the name with
                # this process's tracker and unlink unregisters it —
                # the ledger stays balanced.
                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError) as exc:
                if self.metrics is not None:
                    self.metrics.record_event(
                        "foreign_segment_retire_skipped",
                        {"segment": name, "error": str(exc)},
                    )
                continue
            retired += 1
        return retired

    # ------------------------------------------------------------------
    @property
    def manifest_name(self) -> str:
        """Segment name readers hand to :class:`AttachedGraphStore`."""
        return self._manifest_shm.name

    def generation(self) -> int:
        return self._block.generation()

    def _payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "graphs": self._graphs,
            "workers": self._workers,
        }
        if self._control_url is not None:
            payload["control"] = self._control_url
        return payload

    def set_control_url(self, url: str) -> None:
        """Publish the writer's control endpoint to attached readers.

        Workers resolve it (and re-resolve after a failover republished
        the manifest) instead of trusting their spawn-time option.
        """
        with self._lock:
            self._control_url = str(url)
            self._block.write(self._payload())

    # ------------------------------------------------------------------
    def publish_entry(self, entry: GraphEntry) -> int:
        """Publish ``entry`` as a fresh epoch; returns the epoch number.

        Old-epoch segments are unlinked only *after* the manifest commit
        so a reader can never observe a manifest record whose segments
        were already retired at commit time.
        """
        with self._lock:
            if self._registry.closed:
                raise ConfigError("store publisher already closed")
            slug = self._slugs.setdefault(entry.name, len(self._slugs))
            epoch = max(self._epochs.get(entry.name, 0), self._epoch_floor) + 1
            prefix = f"g{slug}e{epoch}"
            published: List[str] = []
            arrays: Dict[str, SharedArraySpec] = {}

            def _publish(label: str, array: np.ndarray) -> None:
                spec = self._registry.publish(f"{prefix}_{label}", array)
                published.append(spec.shm_name)
                arrays[label] = spec

            try:
                graph = entry.graph
                _publish("indptr", graph.indptr)
                _publish("indices", graph.indices)
                _publish("weights", graph.weights)
                if entry.cluster_index is not None:
                    _publish("sigmas", entry.cluster_index.edge.sigmas)
                    for label, array in (
                        entry.cluster_index.derived_arrays().items()
                    ):
                        _publish(f"ci_{label}", array)
            except BaseException:
                # A half-published epoch must not outlive the failure.
                self._registry.release(published)
                raise
            record: Dict[str, object] = {
                "epoch": epoch,
                "fingerprint": entry.fingerprint,
                "similarity": {
                    "kind": entry.similarity.kind,
                    "closed": entry.similarity.closed,
                    "self_weight": entry.similarity.self_weight,
                    "count_self": entry.similarity.count_self,
                    "pruning": entry.similarity.pruning,
                },
                "auto_cluster_index": bool(entry.auto_cluster_index),
                "updates_applied": int(entry.updates_applied),
                "index_rows_refreshed": int(entry.index_rows_refreshed),
                "cluster_indexed": entry.cluster_index is not None,
                "arrays": {
                    label: _spec_to_wire(spec)
                    for label, spec in arrays.items()
                },
            }
            previous = self._segment_names.get(entry.name, [])
            self._graphs[entry.name] = record
            self._epochs[entry.name] = epoch
            self._segment_names[entry.name] = published
            self._block.write(self._payload())
            self._registry.release(previous)
            return epoch

    def remove_entry(self, name: str) -> None:
        """Drop a graph from the manifest and retire its segments."""
        with self._lock:
            record = self._graphs.pop(name, None)
            if record is None:
                return
            previous = self._segment_names.pop(name, [])
            self._block.write(self._payload())
            self._registry.release(previous)

    def set_workers(self, workers: Sequence[Dict[str, object]]) -> None:
        """Publish the fleet table (worker pids/admin URLs) to readers."""
        with self._lock:
            self._workers = [dict(worker) for worker in workers]
            self._block.write(self._payload())

    def workers(self) -> List[Dict[str, object]]:
        """The published fleet table (an adopted manifest's included)."""
        with self._lock:
            return [dict(worker) for worker in self._workers]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every owned segment, manifest included (idempotent)."""
        self._registry.close()
        if self._adopted_manifest is not None:
            # The adopted manifest lives outside the registry; retire it
            # by name so a drained failover fleet leaves /dev/shm clean.
            name, self._adopted_manifest = self._adopted_manifest, None
            try:
                self._manifest_shm.close()
                # Re-attach registers the name with the tracker and
                # unlink unregisters it — balanced, so no untrack.
                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError, BufferError) as exc:
                if self.metrics is not None:
                    self.metrics.record_event(
                        "adopted_manifest_unlink_skipped",
                        {"segment": name, "error": str(exc)},
                    )

    @property
    def closed(self) -> bool:
        return self._registry.closed

    def __enter__(self) -> "StorePublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AttachedGraphStore:
    """Read-only :class:`GraphStore` lookalike over published segments.

    Serves the same read API the request handlers use (``get``,
    ``names``, ``infos``, ``oracle_for``, ``fill_cache_if_current``) but
    backed entirely by zero-copy attachments.  Every read revalidates
    the manifest generation first — one shared-memory load on the hot
    path — and re-attaches only entries whose epoch moved.  Mutating
    methods raise: mutations belong to the single writer, reached over
    the fleet's control channel.
    """

    def __init__(self, manifest_name: str, *, metrics=None) -> None:
        self._manifest_shm = shared_memory.SharedMemory(name=manifest_name)
        # Attachments must never reach this process's resource tracker:
        # a dying reader's tracker would unlink the writer's segments.
        untrack_attachment(self._manifest_shm)
        self._block = ManifestBlock(self._manifest_shm, writer=False)
        self._lock = threading.Lock()
        self._generation = 0
        #: Odd generation refresh() last gave up on — a writer died
        #: mid-commit.  Remembered so the fast path skips the bounded
        #: spin until a new writer moved the counter again.
        self._stalled_generation = 0
        self._entries: Dict[str, GraphEntry] = {}
        self._workers: List[Dict[str, object]] = []
        self._control: Optional[str] = None
        self.manifest_name = str(manifest_name)
        self.metrics = metrics
        #: Called with the *old* fingerprint whenever a refresh replaces
        #: an entry (epoch moved); the worker service hooks its result
        #: cache here.  Purely an eviction optimization — cache keys
        #: embed the fingerprint, so stale hits are impossible anyway.
        self.fingerprint_listeners: List[Callable[[str], None]] = []
        self.refresh()

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Revalidate against the manifest; returns True when resynced.

        The fast path (generation unchanged) is lock-free: a single
        8-byte read of the seqlock counter.  The slow path re-reads the
        manifest and swaps in re-attached entries under the store lock;
        losing an attach race against the writer's unlink just retries
        the read (the manifest has necessarily moved on).

        A manifest stuck mid-commit (the writer died holding the
        seqlock odd) degrades to **stale-but-consistent** serving: the
        entries attached before the crash keep answering, the stalled
        generation is remembered so later reads skip the bounded spin,
        and the next even generation — committed by a respawned writer —
        resynchronizes normally.
        """
        observed = self._block.generation()
        if observed == self._generation or (
            self._stalled_generation and observed == self._stalled_generation
        ):
            return False
        with self._lock:
            while True:
                try:
                    generation, payload = self._block.read()
                except ConfigError as exc:
                    if not self._entries:
                        raise
                    self._stalled_generation = self._block.generation()
                    if self.metrics is not None:
                        self.metrics.record_event(
                            "manifest_read_stalled",
                            {
                                "generation": self._stalled_generation,
                                "error": str(exc),
                            },
                        )
                    return False
                if generation == self._generation:
                    return False
                try:
                    self._resync(payload)
                except FileNotFoundError as exc:
                    if self._block.generation() != generation:
                        # Lost a real race: the writer retired those
                        # segments and committed a newer generation —
                        # re-read and attach that one instead.
                        if self.metrics is not None:
                            self.metrics.record_event(
                                "attach_race_retried",
                                {"generation": generation},
                            )
                        continue
                    # The generation is not advancing: the writer died
                    # after committing this payload and its segments
                    # are gone (e.g. swept by its resource tracker).
                    # Spinning would hang forever — degrade to
                    # stale-but-consistent until a respawned writer
                    # republishes at a newer generation.
                    if not self._entries:
                        raise ConfigError(
                            "manifest names shared segments that no "
                            "longer exist and no writer is advancing "
                            f"it: {exc}"
                        ) from exc
                    self._stalled_generation = generation
                    if self.metrics is not None:
                        self.metrics.record_event(
                            "manifest_read_stalled",
                            {
                                "generation": generation,
                                "error": str(exc),
                            },
                        )
                    return False
                self._generation = generation
                self._stalled_generation = 0
                return True

    def _resync(self, payload: Dict[str, object]) -> None:
        graphs: Dict[str, Dict[str, object]] = payload.get("graphs", {})
        fresh: Dict[str, GraphEntry] = {}
        dropped_fingerprints: List[str] = []
        for name, record in graphs.items():
            current = self._entries.get(name)
            if current is not None and current.epoch == record["epoch"]:
                fresh[name] = current
                continue
            fresh[name] = self._build_entry(name, record)
            if current is not None:
                dropped_fingerprints.append(current.fingerprint)
        for name, entry in self._entries.items():
            if name not in graphs:
                dropped_fingerprints.append(entry.fingerprint)
        self._entries = fresh
        self._workers = list(payload.get("workers", []))
        control = payload.get("control")
        self._control = str(control) if control is not None else None
        for fingerprint in dropped_fingerprints:
            for listener in self.fingerprint_listeners:
                listener(fingerprint)

    def _build_entry(
        self, name: str, record: Dict[str, object]
    ) -> GraphEntry:
        wire: Dict[str, Sequence[object]] = record["arrays"]
        views = {
            label: SegmentRegistry.attach(_spec_from_wire(spec))
            for label, spec in wire.items()
        }
        # validate=False: the writer validated at build time, and
        # ascontiguousarray over an aligned view is zero-copy.
        graph = Graph(
            views["indptr"],
            views["indices"],
            views["weights"],
            validate=False,
        )
        similarity = SimilarityConfig(**record["similarity"])
        fingerprint = str(record["fingerprint"])
        cluster_index: Optional[ClusteringIndex] = None
        if "sigmas" in views:
            cluster_index = ClusteringIndex.from_derived(
                EdgeSimilarityIndex(
                    graph, similarity, views["sigmas"],
                    fingerprint=fingerprint,
                ),
                arrays={
                    label[len("ci_"):]: view
                    for label, view in views.items()
                    if label.startswith("ci_")
                },
            )
        entry = GraphEntry(
            name=name,
            graph=graph,
            similarity=similarity,
            fingerprint=fingerprint,
            cluster_index=cluster_index,
            auto_cluster_index=bool(record["auto_cluster_index"]),
            updates_applied=int(record["updates_applied"]),
            index_rows_refreshed=int(record["index_rows_refreshed"]),
        )
        entry.epoch = int(record["epoch"])
        return entry

    # ------------------------------------------------------------------
    # GraphStore read API
    # ------------------------------------------------------------------
    def get(self, name: str) -> GraphEntry:
        self.refresh()
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(f"unknown graph {name!r}")
        return entry

    def names(self) -> List[str]:
        self.refresh()
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        self.refresh()
        with self._lock:
            return len(self._entries)

    def infos(self) -> List[Dict[str, object]]:
        self.refresh()
        with self._lock:
            entries = list(self._entries.values())
        return [entry.info() for entry in entries]

    def workers(self) -> List[Dict[str, object]]:
        """The fleet table the writer last published."""
        self.refresh()
        with self._lock:
            return [dict(worker) for worker in self._workers]

    def control_url(self) -> Optional[str]:
        """The current writer's control endpoint, per the manifest.

        ``None`` until a writer published one; after a failover the
        respawned writer's republish updates it, so workers re-resolve
        instead of dialing the dead process forever.
        """
        self.refresh()
        with self._lock:
            return self._control

    def generation(self) -> int:
        return self._block.generation()

    def epochs(self) -> Dict[str, int]:
        """Per-graph publication epochs this reader currently serves."""
        self.refresh()
        with self._lock:
            return {
                name: int(entry.epoch)
                for name, entry in sorted(self._entries.items())
            }

    def oracle_for(self, entry: GraphEntry) -> SimilarityOracle:
        """Same contract as :meth:`GraphStore.oracle_for`."""
        return SimilarityOracle(entry.graph, entry.similarity)

    def fill_cache_if_current(
        self, cache, name: str, fingerprint: str, key, value
    ) -> bool:
        """Insert only if ``name`` still answers for ``fingerprint``.

        Same guard as the writer's store: revalidate the manifest, then
        check-and-put under the local lock so a refresh cannot
        interleave between the check and the insert.
        """
        self.refresh()
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.fingerprint != fingerprint:
                return False
            cache.put(key, value)
            return True

    # ------------------------------------------------------------------
    # mutations are the writer's job
    # ------------------------------------------------------------------
    def _read_only(self) -> "ConfigError":
        return ConfigError(
            "this store is an attached read-only view; mutations route "
            "to the writer over the fleet control channel"
        )

    def add(self, *args, **kwargs):
        raise self._read_only()

    def remove(self, name: str):
        raise self._read_only()

    def update_edges(self, name: str, **kwargs):
        raise self._read_only()

    def ensure_cluster_index(self, name: str) -> GraphEntry:
        """Read-only stores never build; serve whatever is attached."""
        return self.get(name)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop attachments; array views detach via their finalizers."""
        with self._lock:
            self._entries = {}
            self._workers = []
        try:
            self._manifest_shm.close()
        except (OSError, BufferError):  # pragma: no cover
            # A lingering buffer export just defers the unmap to
            # process exit; nothing useful to do about it here.
            return

    def __enter__(self) -> "AttachedGraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
