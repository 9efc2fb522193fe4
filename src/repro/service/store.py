"""Graph/index registry and the (fingerprint, config, ε, μ) result cache.

The serving layer's data plane:

* :class:`GraphStore` hosts named graphs together with their similarity
  semantics and (optionally) one GS*-style
  :class:`~repro.similarity.gsindex.ClusteringIndex`, so clustering
  queries at any (ε, μ) are answered from stored σ values with zero σ
  evaluations; un-indexed graphs run anySCAN jobs over the scalar
  oracle.
* ``update-edges`` batches are applied straight to the CSR arrays
  (:func:`~repro.graph.patch.apply_edge_batch`); a clustering index
  recomputes σ only for the slots incident to the rows the batch
  changed, the fingerprint is refreshed, and the old fingerprint is
  returned so the caller can invalidate exactly the cache entries that
  answered for the pre-update graph.
* :class:`ResultCache` is an LRU over :class:`CacheKey` — the full
  identity of a clustering query: exact graph content (fingerprint),
  the σ-semantics fields of the similarity config, μ and ε.  Anything
  that changes the answer changes the key; anything that does not
  (e.g. ``pruning``, a pure scheduling knob) is excluded.

Both classes are safe to share across HTTP handler threads and
scheduler workers: every mutation happens under an internal lock.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.graph.patch import apply_edge_batch
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import graph_fingerprint
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.validation import check_eps_mu

__all__ = [
    "CacheKey",
    "CachedResult",
    "CachedLocalResult",
    "GraphEntry",
    "GraphStore",
    "ResultCache",
    "make_cache_key",
    "make_local_cache_key",
    "similarity_signature",
]

#: Config fields that change σ values (mirrors the index's semantic
#: compatibility check); ``pruning`` never changes results, only work.
_SEMANTIC_FIELDS = ("kind", "closed", "self_weight", "count_self")

#: Journal records round-trip the *whole* config (``pruning`` included)
#: so a recovered entry is indistinguishable from the original — must
#: match ``repro.service.durability._SIMILARITY_FIELDS``.
_JOURNAL_SIMILARITY_FIELDS = _SEMANTIC_FIELDS + ("pruning",)


def similarity_signature(config: SimilarityConfig) -> Tuple[object, ...]:
    """Hashable tuple of the σ-semantic fields of a similarity config."""
    return tuple(getattr(config, name) for name in _SEMANTIC_FIELDS)


@dataclass(frozen=True)
class CacheKey:
    """Full identity of a clustering query (cache-key semantics §8).

    Global clusterings leave ``seed``/``order_seed`` at their defaults;
    a seeded local query adds the query vertex and the reference visit
    order it replays, giving per-user results their own keyspace rows
    in the same LRU.
    """

    fingerprint: str
    similarity: Tuple[object, ...]
    mu: int
    epsilon: float
    seed: Optional[int] = None
    order_seed: int = 0


def make_cache_key(
    fingerprint: str, config: SimilarityConfig, mu: int, epsilon: float
) -> CacheKey:
    """Build the cache key for one (graph, semantics, μ, ε) query."""
    check_eps_mu(mu=mu, epsilon=epsilon)
    return CacheKey(
        fingerprint=fingerprint,
        similarity=similarity_signature(config),
        mu=int(mu),
        epsilon=float(epsilon),
    )


def make_local_cache_key(
    fingerprint: str,
    config: SimilarityConfig,
    mu: int,
    epsilon: float,
    seed: int,
    order_seed: int = 0,
) -> CacheKey:
    """Cache key for one seeded local query (§12 keyspace)."""
    check_eps_mu(mu=mu, epsilon=epsilon)
    return CacheKey(
        fingerprint=fingerprint,
        similarity=similarity_signature(config),
        mu=int(mu),
        epsilon=float(epsilon),
        seed=int(seed),
        order_seed=int(order_seed),
    )


@dataclass
class CachedResult:
    """A completed clustering plus the cost it took to produce."""

    labels: np.ndarray
    num_clusters: int
    sigma_evaluations: int
    compute_seconds: float
    hits: int = 0


@dataclass
class CachedLocalResult:
    """A completed seeded local query plus its read set.

    ``touched`` is the set of vertices whose σ row or adjacency the
    query inspected.  An edge update whose affected-vertex set is
    disjoint from it cannot change the answer, so the entry survives
    the update (re-keyed to the new fingerprint) instead of being
    evicted — see :meth:`ResultCache.migrate_local`.
    """

    payload: Dict[str, object]
    touched: frozenset
    sigma_evaluations: int
    compute_seconds: float
    hits: int = 0


class ResultCache:
    """LRU cache over :class:`CacheKey`; eviction at ``capacity``."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CachedResult]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: CacheKey) -> Optional[CachedResult]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def put(self, key: CacheKey, value: CachedResult) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry answering for ``fingerprint``; returns count."""
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.fingerprint == fingerprint
            ]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    def migrate_local(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        affected: Sequence[int],
        *,
        renumbered: bool = False,
    ) -> Dict[str, int]:
        """Carry local-query entries across an edge update, exactly.

        A cached :class:`CachedLocalResult` is a pure function of its
        read set (the σ rows and adjacency it touched) plus the visit
        permutation.  An update that is disjoint from the read set and
        does not change the vertex count (``renumbered`` — a different
        n means a different permutation) therefore cannot change the
        answer: the entry is re-keyed to the post-update fingerprint.
        Entries whose cluster was actually touched are evicted.  Global
        entries for ``old_fingerprint`` are untouched — follow with
        :meth:`invalidate_fingerprint`.
        """
        affected_set = set(int(v) for v in affected)
        moved = evicted = 0
        with self._lock:
            local_keys = [
                key
                for key in self._entries
                if key.fingerprint == old_fingerprint
                and key.seed is not None
            ]
            for key in local_keys:
                entry = self._entries.pop(key)
                touched = getattr(entry, "touched", None)
                if (
                    renumbered
                    or touched is None
                    or not affected_set.isdisjoint(touched)
                ):
                    evicted += 1
                    continue
                new_key = CacheKey(
                    fingerprint=new_fingerprint,
                    similarity=key.similarity,
                    mu=key.mu,
                    epsilon=key.epsilon,
                    seed=key.seed,
                    order_seed=key.order_seed,
                )
                self._entries[new_key] = entry
                moved += 1
            self._invalidations += evicted
        return {"moved": moved, "evicted": evicted}

    def keys(self) -> List[CacheKey]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }


@dataclass
class GraphEntry:
    """One hosted graph: CSR snapshot + semantics + optional index.

    ``cluster_index`` (GS*-style, its ``.edge`` holding the σ array)
    answers whole (ε, μ) queries directly; without it, queries run
    anySCAN jobs.  ``auto_cluster_index`` marks an entry whose index
    must be rebuilt lazily whenever an update could not refresh it.
    """

    name: str
    graph: Graph
    similarity: SimilarityConfig
    fingerprint: str
    cluster_index: Optional[ClusteringIndex] = field(
        default=None, repr=False
    )
    auto_cluster_index: bool = False
    updates_applied: int = 0
    #: σ-row refreshes the clustering index absorbed in-place (as
    #: opposed to full rebuilds) across update-edges batches.
    index_rows_refreshed: int = 0
    #: Shared-memory publication epoch (0 = never published).  Bumped
    #: by the store's publisher on every mutation that republishes the
    #: entry; attached readers compare epochs to revalidate.
    epoch: int = 0

    def info(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "num_vertices": int(self.graph.num_vertices),
            "num_edges": int(self.graph.num_edges),
            "fingerprint": self.fingerprint,
            "epoch": int(self.epoch),
            "cluster_indexed": self.cluster_index is not None,
            "auto_cluster_index": self.auto_cluster_index,
            "updates_applied": self.updates_applied,
            "index_rows_refreshed": self.index_rows_refreshed,
            "similarity": {
                name: getattr(self.similarity, name)
                for name in _SEMANTIC_FIELDS
            },
        }


@dataclass(frozen=True)
class UpdateStats:
    """Outcome of one update-edges request.

    ``index_rows_refreshed`` counts the σ-sorted rows the clustering
    index re-derived in place (the changed rows and their neighbors) and
    ``sigma_recomputations`` the directed edge slots whose σ it
    recomputed, those incident to a changed row (both 0 when no
    clustering index was present, or when it had to be dropped instead
    of patched).
    """

    old_fingerprint: str
    new_fingerprint: str
    vertices_added: int
    inserted: int
    deleted: int
    sigma_recomputations: int
    index_rows_refreshed: int = 0
    #: σ rows the batch could have changed (endpoints plus their
    #: pre-batch neighbors).  Local-query cache entries
    #: whose read set is disjoint from this survive the update
    #: (:meth:`ResultCache.migrate_local`).
    affected_vertices: Tuple[int, ...] = ()


class GraphStore:
    """Named-graph registry shared by every service endpoint.

    ``metrics`` (any object with ``record_event(kind, data)``, e.g.
    :class:`~repro.service.metrics.ServiceMetrics`) receives the audit
    trail for degraded-mode decisions such as a dropped clustering
    index; ``None`` keeps the store usable standalone.
    """

    def __init__(self, metrics=None) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, GraphEntry] = {}
        self.metrics = metrics
        # Optional shared-memory mirror (repro.service.shm.StorePublisher):
        # when attached, every mutation republishes the affected entry so
        # attached reader processes revalidate by epoch, never serve stale.
        self._publisher = None
        # Optional write-ahead journal (repro.service.durability.
        # DurabilityManager): when attached, every mutation is logged —
        # and fsynced — before it is applied, under the store lock, so
        # WAL order equals apply order exactly.
        self._journal = None

    # ------------------------------------------------------------------
    # shared-memory publication (single-writer side of DESIGN.md §11)
    # ------------------------------------------------------------------
    def attach_publisher(self, publisher) -> None:
        """Mirror current entries — and every future mutation — into
        ``publisher`` (duck-typed: ``publish_entry``/``remove_entry``).

        Publish failures propagate: a mutation that cannot reach the
        shared manifest must fail loudly rather than let attached
        readers drift behind the writer's private state.
        """
        with self._lock:
            self._publisher = publisher
            for entry in self._entries.values():
                self._publish_locked(entry)

    def _publish_locked(self, entry: GraphEntry) -> None:
        if self._publisher is not None:
            entry.epoch = self._publisher.publish_entry(entry)

    # ------------------------------------------------------------------
    # durability (write-ahead journal, DESIGN.md §13)
    # ------------------------------------------------------------------
    def attach_journal(self, journal) -> None:
        """Log every future mutation to ``journal`` before applying it.

        ``journal`` is duck-typed — ``log_mutation(record) -> int`` plus
        a ``last_seq`` property; in practice a
        :class:`~repro.service.durability.DurabilityManager`.  A journal
        failure on a primary mutation (add/remove/update) aborts the
        mutation before any state changes; derived-data events (index
        builds) degrade to a witnessed skip instead, because an index is
        a deterministic function of the graph and recovery can simply
        not have it.
        """
        with self._lock:
            self._journal = journal

    def _journal_locked(self, record: Dict[str, object]) -> None:
        if self._journal is not None:
            self._journal.log_mutation(record)

    def _journal_best_effort(self, record: Dict[str, object]) -> None:
        try:
            self._journal_locked(record)
        except Exception as exc:
            # Derived-data event only: losing it cannot change any
            # recovered answer, so keep serving and witness the gap.
            if self.metrics is not None:
                self.metrics.record_event(
                    "journal_record_skipped",
                    {
                        "op": record.get("op"),
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )

    @staticmethod
    def _similarity_record(config: SimilarityConfig) -> Dict[str, object]:
        return {
            name: getattr(config, name)
            for name in _JOURNAL_SIMILARITY_FIELDS
        }

    def checkpoint_snapshot(self) -> Tuple[List[GraphEntry], int]:
        """A coherent ``(entries, wal_seq)`` pair for checkpointing.

        Taken under the store lock: because journaled mutations append
        *and* apply while holding it, every record up to the returned
        sequence number is reflected in the copied entries and no later
        one is.  The shallow copies share the immutable CSR/index
        objects: the update path replaces them, never mutates them.
        """
        with self._lock:
            entries = [
                dataclasses.replace(entry) for entry in self._entries.values()
            ]
            seq = (
                self._journal.last_seq if self._journal is not None else 0
            )
        return entries, seq

    def adopt_entry(
        self, entry: GraphEntry, *, replace: bool = True
    ) -> GraphEntry:
        """Install a pre-built entry verbatim (recovery path).

        No journaling (the entry's history is already in the log or a
        checkpoint) and no index building; publishes to attached
        readers when a publisher is present.
        """
        with self._lock:
            if entry.name in self._entries and not replace:
                raise ConfigError(
                    f"graph {entry.name!r} is already loaded"
                )
            self._entries[entry.name] = entry
            self._publish_locked(entry)
        return entry

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        graph: Graph,
        *,
        similarity: SimilarityConfig | None = None,
        build_cluster_index: bool = False,
        replace: bool = False,
    ) -> GraphEntry:
        """Host ``graph`` under ``name``; optionally build its index."""
        if not name:
            raise ConfigError("graph name must be non-empty")
        similarity = similarity or SimilarityConfig()
        similarity.validate()
        cluster_index = (
            ClusteringIndex.build(graph, similarity)
            if build_cluster_index
            else None
        )
        entry = GraphEntry(
            name=name,
            graph=graph,
            similarity=similarity,
            fingerprint=graph_fingerprint(graph),
            cluster_index=cluster_index,
            auto_cluster_index=build_cluster_index,
        )
        record = None
        if self._journal is not None:
            # The edge list (CSR order, u < v) rebuilds through
            # GraphBuilder into bitwise-identical arrays, so replaying
            # this record reproduces the exact fingerprint.
            record = {
                "op": "add_graph",
                "name": name,
                "n": int(graph.num_vertices),
                "edges": [
                    [int(u), int(v), float(w)] for u, v, w in graph.edges()
                ],
                "similarity": self._similarity_record(similarity),
                "build_cluster_index": bool(build_cluster_index),
                "replace": bool(replace),
            }
        with self._lock:
            if name in self._entries and not replace:
                raise ConfigError(
                    f"graph {name!r} is already loaded; pass replace=true "
                    "to overwrite it"
                )
            if record is not None:
                self._journal_locked(record)
            self._entries[name] = entry
            self._publish_locked(entry)
        return entry

    def get(self, name: str) -> GraphEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(f"unknown graph {name!r}")
        return entry

    def remove(self, name: str) -> str:
        """Unload a graph; returns its fingerprint (for invalidation)."""
        with self._lock:
            if name not in self._entries:
                raise ConfigError(f"unknown graph {name!r}")
            self._journal_locked({"op": "remove_graph", "name": name})
            entry = self._entries.pop(name)
            if self._publisher is not None:
                self._publisher.remove_entry(name)
        return entry.fingerprint

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # query plumbing
    # ------------------------------------------------------------------
    def oracle_for(self, entry: GraphEntry) -> SimilarityOracle:
        """A fresh per-job σ oracle for an un-indexed graph.

        Per-job (rather than shared) because the oracle's counters are
        the per-query cost accounting the service reports.
        """
        return SimilarityOracle(entry.graph, entry.similarity)

    def fill_cache_if_current(
        self,
        cache: ResultCache,
        name: str,
        fingerprint: str,
        key: CacheKey,
        value: CachedResult,
    ) -> bool:
        """Insert ``value`` only if ``name`` still answers for ``fingerprint``.

        A clustering job can outlive its graph: by the time the job
        completes, the graph may have been unloaded, replaced, or
        mutated by update-edges.  Filling the cache then would plant an
        entry that ``invalidate_fingerprint`` already purged (or never
        saw), so a revert-to-the-old-graph sequence could read a result
        whose provenance is gone.  The check and the put happen under
        the store lock, so no remove/replace/update can interleave.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.fingerprint != fingerprint:
                return False
            cache.put(key, value)
            return True

    def ensure_cluster_index(self, name: str) -> GraphEntry:
        """Build the clustering index for ``name`` unless it has one.

        The build happens outside the store lock and is only installed
        when the graph has not changed underneath it.  The entry is
        marked ``auto_cluster_index`` here, where the
        ``build_cluster_index`` record is journaled, so WAL replay
        restores the flag too.
        """
        entry = self.get(name)
        if entry.cluster_index is not None:
            return entry
        cluster_index = ClusteringIndex.build(entry.graph, entry.similarity)
        with self._lock:
            current = self._entries.get(name)
            if (
                current is entry
                and current.fingerprint == cluster_index.fingerprint
            ):
                self._journal_best_effort(
                    {"op": "build_cluster_index", "name": name}
                )
                current.cluster_index = cluster_index
                current.auto_cluster_index = True
                self._publish_locked(current)
        return entry

    # ------------------------------------------------------------------
    # edge updates (CSR patch + index row refresh)
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_batch(
        specs: Sequence[Sequence[float]],
    ) -> List[List[float]]:
        """JSON-ready copy of raw update specs, shape *not* validated.

        Journaling precedes apply, and a malformed spec must fail at
        its position in the batch — after the valid prefix applied —
        identically live and on replay, so the record carries the
        batch as given rather than a pre-validated normal form.
        """
        wire: List[List[float]] = []
        for spec in specs:
            row: List[float] = []
            for value in spec:
                number = float(value)
                row.append(
                    int(number) if number.is_integer() else number
                )
            wire.append(row)
        return wire

    def update_edges(
        self,
        name: str,
        *,
        insert: Sequence[Sequence[float]] = (),
        delete: Sequence[Sequence[int]] = (),
        add_vertices: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> UpdateStats:
        """Apply an edge-update batch and refresh the CSR snapshot.

        The batch is applied by :func:`~repro.graph.patch.apply_edge_batch`
        (add vertices, then inserts, then deletes, each in order).  If an
        op fails, the valid prefix before it is installed and then the
        op's error is raised.  A clustering index recomputes σ only for
        the slots incident to a changed row.

        With a journal attached the batch — including
        ``idempotency_key``, which the store records but does not
        enforce (the HTTP layer and WAL replay dedupe on it) — is
        logged and fsynced before the first mutation, under the store
        lock, so the WAL's order is exactly the apply order.
        """
        if add_vertices < 0:
            raise ConfigError("add_vertices must be non-negative")
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ConfigError(f"unknown graph {name!r}")
            if self._journal is not None:
                self._journal_locked(
                    {
                        "op": "update_edges",
                        "name": name,
                        "insert": self._wire_batch(insert),
                        "delete": self._wire_batch(delete),
                        "add_vertices": int(add_vertices),
                        "key": idempotency_key,
                    }
                )
            old_fingerprint = entry.fingerprint
            batch = apply_edge_batch(
                entry.graph,
                insert=insert,
                delete=delete,
                add_vertices=add_vertices,
            )
            refresh: Dict[str, int] = {}
            if batch.inserted or batch.deleted or add_vertices:
                # Installed even when an op failed: a stale index
                # answering for the pre-batch graph would be silent
                # corruption once the prefix is visible.
                entry.graph = batch.graph
                entry.updates_applied += 1
                refresh = self._refresh_indexes_locked(entry, batch.affected)
                # A patched index already hashed the new CSR.
                entry.fingerprint = (
                    entry.cluster_index.fingerprint
                    if entry.cluster_index is not None
                    else graph_fingerprint(entry.graph)
                )
                # One epoch bump per batch: attached readers flip to
                # the post-update snapshot atomically (DESIGN.md §11).
                self._publish_locked(entry)
            if batch.error is not None:
                raise batch.error
            return UpdateStats(
                old_fingerprint=old_fingerprint,
                new_fingerprint=entry.fingerprint,
                vertices_added=int(add_vertices),
                inserted=batch.inserted,
                deleted=batch.deleted,
                sigma_recomputations=refresh.get("slots_recomputed", 0),
                index_rows_refreshed=refresh.get("rows_recomputed", 0),
                affected_vertices=tuple(batch.affected.tolist()),
            )

    def _refresh_indexes_locked(
        self, entry: GraphEntry, affected: np.ndarray
    ) -> Dict[str, int]:
        """Carry the entry's clustering index across a graph mutation.

        Only the σ slots incident to a changed row are recomputed
        (:meth:`ClusteringIndex.refresh` — bitwise equal to a fresh
        build); ``affected`` covers those rows.  A patch failure drops
        the index instead (``auto_cluster_index`` entries rebuild it
        lazily on the next query): the one unacceptable outcome is an
        index still answering for the pre-update graph.  Returns the
        refresh's stats (empty when nothing was refreshed).
        """
        cluster_index = entry.cluster_index
        entry.cluster_index = None
        if cluster_index is None:
            return {}
        try:
            fault_point("store.index_refresh")
            patched, stats = cluster_index.refresh(entry.graph, affected)
        except Exception as exc:
            # Degraded mode: drop the index (auto entries rebuild
            # lazily) — stale reads are impossible either way.  The
            # swallow is witnessed on the metrics audit trail.
            if self.metrics is not None:
                self.metrics.record_event(
                    "index_refresh_failed",
                    {
                        "graph": entry.name,
                        "error": f"{type(exc).__name__}: {exc}",
                        "rows_affected": int(affected.shape[0]),
                    },
                )
            return {}
        entry.cluster_index = patched
        entry.index_rows_refreshed += int(stats["rows_recomputed"])
        return stats

    def infos(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.info() for entry in entries]
