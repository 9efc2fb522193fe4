"""Parameter-free clustering index (GS*-style): any (ε, μ) in output time.

The σ array (:class:`~repro.similarity.index.EdgeSimilarityIndex`)
removes σ work from repeat queries, but cores and clusters would still
need a walk over all CSR rows and a BFS over the whole graph.  This
module layers the remaining structure of *Parallel Index-Based
Structural Graph Clustering and Its Approximation* (Tseng, Dhulipala &
Shun) on top of it, so clusters for **arbitrary** (ε, μ) come out of
pure array passes with **zero** σ evaluations.  It is the one
precomputed-σ input every query path takes.  Its parts:

* **σ-sorted neighbor lists** — each vertex's CSR row reordered by
  descending σ (ties broken by ascending neighbor id, so builds are
  deterministic and tie ordering is observably irrelevant).  The
  ε-neighborhood of any vertex is a *prefix* of its sorted row, found
  by one binary search.
* **core thresholds** — for any μ, each vertex's *core threshold*
  ``ε̂_μ(v)``: the maximal ε at which v is still a μ-core, i.e. the
  (μ − self)-th largest σ in its sorted row.  All n thresholds are one
  O(n) gather over the sorted rows (zero σ), so the core set of any
  (ε, μ) is one comparison against them.
* **cluster extraction** — whole-array connected components (hook and
  pointer jumping) over the qualifying (σ ≥ ε) core-core slots,
  followed by the reference border attachment rule, reproducing
  :func:`repro.baselines.scan.scan` labels *exactly* (same seed ⇒
  byte-identical labels and roles, hubs/outliers included; see
  :meth:`ClusteringIndex.query` for why the replay is exact).

Construction reuses the batched σ kernels, in-process or through the
thread backend's ``sigma_rows`` (both produce the bitwise-identical
index), persistence reuses the ``.npz`` + checksum +
quarantine machinery of :mod:`repro.similarity.index` — a
``ClusteringIndex`` archive is exactly the edge-index format, so either
class loads it.  Dynamic updates patch the index through
:meth:`ClusteringIndex.refresh`: only the rows whose σ actually changed
are recomputed; all others are copied, and the result is
bitwise-identical to a fresh build on the updated graph.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import ConfigError, IndexIntegrityError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.result import Clustering
from repro.similarity.counters import SimilarityCounters
from repro.similarity.index import (
    EdgeSimilarityIndex,
    _archive_path,
    _payload_checksum,
)
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.validation import check_eps_mu

__all__ = ["ClusteringIndex"]

#: Core-threshold sentinel: "core at every valid ε" (ε ≤ 1 < 2).
_ALWAYS_CORE = 2.0
#: Core-threshold sentinel: "core at no ε" (ε > 0 > −1).
_NEVER_CORE = -1.0


class ClusteringIndex:
    """GS*-style structure answering any (ε, μ) query without σ work.

    Parameters
    ----------
    edge:
        The materialized per-edge σ values the structure is derived
        from; the graph, similarity semantics, and fingerprint are
        taken from it.  The derived structure is the σ-sorted rows;
        core thresholds at any μ are gathered from them per query.
    """

    def __init__(self, edge: EdgeSimilarityIndex) -> None:
        self.edge = edge
        self.counters = SimilarityCounters()
        self.last_query: Dict[str, object] = {}
        self._derive()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        config: SimilarityConfig | None = None,
        *,
        backend=None,
    ) -> "ClusteringIndex":
        """Materialize σ (via the batched kernels, in-process for
        ``backend=None`` or fanned out over a
        :class:`~repro.parallel.threads.ThreadBackend`) and derive the
        query structure.

        Both paths produce the bitwise-identical index: the σ array is
        slot-deterministic (see ``ThreadBackend.sigma_rows``) and the
        derived structure is a deterministic function of it.
        """
        return cls(EdgeSimilarityIndex.build(graph, config, backend=backend))

    def _derive(self) -> None:
        """σ-sorted rows from the σ array (no σ work)."""
        graph = self.edge.graph
        sigmas = self.edge.sigmas
        n = graph.num_vertices
        degrees = graph.degrees.astype(np.int64, copy=False)
        owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self._owners = owners
        # Primary: owner (keeps rows contiguous); secondary: σ descending;
        # tertiary: neighbor id ascending (tie order is thereby pinned —
        # and provably irrelevant to queries).
        order = np.lexsort((graph.indices, -sigmas, owners))
        self._sorted_sigmas = sigmas[order]
        self._sorted_neighbors = graph.indices[order].astype(
            np.int64, copy=False
        )
        self._self_count = 1 if self.edge.config.count_self else 0

    #: The derived arrays, in a fixed order: ``derived_arrays`` exports
    #: them under these names and :meth:`from_derived` re-imports them.
    DERIVED_LABELS: Tuple[str, ...] = (
        "owners",
        "sorted_sigmas",
        "sorted_neighbors",
    )

    def derived_arrays(self) -> Dict[str, np.ndarray]:
        """The derived structure as a name → array mapping.

        These are deterministic functions of (σ, graph); together
        with the :class:`EdgeSimilarityIndex` payload they are the whole
        queryable state, which is what the service's zero-copy publisher
        ships through shared memory so attaching processes skip the
        O(m log m) :meth:`_derive` entirely.
        """
        return {
            "owners": self._owners,
            "sorted_sigmas": self._sorted_sigmas,
            "sorted_neighbors": self._sorted_neighbors,
        }

    @classmethod
    def from_derived(
        cls,
        edge: EdgeSimilarityIndex,
        *,
        arrays: Dict[str, np.ndarray],
    ) -> "ClusteringIndex":
        """Rebuild an index around externally supplied derived arrays.

        The zero-copy attach path: ``arrays`` typically holds read-only
        views over shared-memory segments published by the single
        writer, and no sorting or σ work happens here — only cheap shape
        checks that catch a mismatched manifest before it can serve
        wrong answers.  Queries on the result are byte-identical to the
        source index: :meth:`query` is a pure function of these arrays.
        """
        missing = [
            label for label in cls.DERIVED_LABELS if label not in arrays
        ]
        if missing:
            raise ConfigError(
                f"derived arrays missing {missing!r}"
            )
        index = cls.__new__(cls)
        index.edge = edge
        index.counters = SimilarityCounters()
        index.last_query = {}
        m = edge.sigmas.shape[0]
        index._owners = arrays["owners"]
        index._sorted_sigmas = arrays["sorted_sigmas"]
        index._sorted_neighbors = arrays["sorted_neighbors"]
        index._self_count = 1 if edge.config.count_self else 0
        for label in cls.DERIVED_LABELS:
            if arrays[label].shape != (m,):
                raise ConfigError(
                    f"derived array {label!r} has shape "
                    f"{arrays[label].shape}, expected ({m},)"
                )
        return index

    # ------------------------------------------------------------------
    # core determination (one gather over the sorted rows; no σ work)
    # ------------------------------------------------------------------
    def _gather_thresholds(self, mu: int, vertices) -> np.ndarray:
        """Core thresholds of ``vertices`` (an index into the vertex
        axis): the (μ − self)-th largest σ of each sorted row, or a
        sentinel — one gather, no σ work."""
        indptr = self.edge.graph.indptr
        starts = indptr[:-1][vertices]
        degrees = indptr[1:][vertices] - starts
        k = mu - self._self_count
        if k <= 0:
            return np.full(degrees.shape, _ALWAYS_CORE, dtype=np.float64)
        out = np.full(degrees.shape, _NEVER_CORE, dtype=np.float64)
        has = degrees >= k
        out[has] = self._sorted_sigmas[starts[has] + (k - 1)]
        return out

    def core_thresholds(self, mu: int) -> np.ndarray:
        """Per vertex: the maximal ε at which it is a μ-core.

        Sentinels: ``2.0`` means "core at every valid ε" (possible for
        μ ≤ the self count), ``-1.0`` means "core at no ε" (degree too
        small).  A fresh array from one O(n) gather over the σ-sorted
        rows; no σ is evaluated.
        """
        check_eps_mu(mu=mu)
        return self._gather_thresholds(mu, slice(None))

    def core_epsilon(self, v: int, mu: int) -> float:
        """Maximal ε at which ``v`` is a μ-core (sentinels as in
        :meth:`core_thresholds`); O(1) scalar reads at any μ."""
        check_eps_mu(mu=mu)
        k = mu - self._self_count
        if k <= 0:
            return _ALWAYS_CORE
        indptr = self.edge.graph.indptr
        start = int(indptr[v])
        if int(indptr[v + 1]) - start < k:
            return _NEVER_CORE
        return float(self._sorted_sigmas[start + k - 1])

    def core_mask(self, epsilon: float, mu: int) -> np.ndarray:
        """Boolean μ-core indicator at ε: the core thresholds compared
        against ε (one O(n) gather, zero σ evaluations)."""
        check_eps_mu(mu=mu, epsilon=epsilon)
        return self.core_thresholds(mu) >= epsilon

    def cores(self, epsilon: float, mu: int) -> np.ndarray:
        """Ascending ids of the (ε, μ)-cores."""
        return np.flatnonzero(self.core_mask(epsilon, mu))

    # ------------------------------------------------------------------
    # neighborhood reads (prefix of the σ-sorted row)
    # ------------------------------------------------------------------
    def _prefix_length(self, lo: int, hi: int, epsilon: float) -> int:
        """Qualifying prefix length of the sorted row slice [lo, hi)."""
        return int(
            np.searchsorted(
                -self._sorted_sigmas[lo:hi], -float(epsilon), side="right"
            )
        )

    def eps_neighborhood(self, v: int, epsilon: float) -> np.ndarray:
        """``N_v^ε`` in ascending id order — one binary search + sort of
        the qualifying prefix, no σ work."""
        check_eps_mu(epsilon=epsilon)
        graph = self.edge.graph
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        plen = self._prefix_length(lo, hi, epsilon)
        # Same accounting contract as the oracle tiers: every range
        # query is recorded (with zero σ evaluations) so Figure-7 style
        # comparisons of neighborhood_queries are apples to apples.
        self.counters.record_neighborhood_query(0.0, evaluations=0)
        return np.sort(self._sorted_neighbors[lo : lo + plen])

    # ------------------------------------------------------------------
    # the query: cores → components → border/hub/outlier epilogue
    # ------------------------------------------------------------------
    def query(
        self, epsilon: float, mu: int, *, seed: int = 0
    ) -> Clustering:
        """Exact SCAN clustering at (ε, μ) with **zero** σ evaluations.

        The replay is exact, not merely isomorphic: it reproduces the
        reference :func:`repro.baselines.scan.scan` byte for byte at the
        same ``seed``, because the sequential algorithm's outcome is a
        pure function of structures this index holds —

        * the core set is determined by per-vertex thresholds (one
          gather over the σ-sorted rows);
        * cores connected through qualifying (σ ≥ ε) core-core edges
          always share a cluster regardless of visit order (σ is
          symmetric), so the member partition of cores equals the
          connected components of the qualifying core subgraph;
        * the reference assigns cluster ids in the order clusters are
          *discovered* along its seeded vertex permutation — component
          ids here are ranked by the minimal permutation position of
          each component's cores;
        * a shared border keeps its *first* cluster, and because the
          reference expands each cluster to completion before starting
          the next, "first" is exactly the smallest cluster id among
          the adjacent qualifying cores.

        Hubs and outliers then come from the shared post-processing
        (:func:`repro.baselines._postprocess.finalize_clustering`), as
        in every other algorithm of the repository.
        """
        from repro.baselines._postprocess import finalize_clustering

        check_eps_mu(mu=mu, epsilon=epsilon)
        graph = self.edge.graph
        n = graph.num_vertices
        mask = self.core_mask(epsilon, mu)
        # Qualifying directed slots owned by cores: σ ≥ ε and owner core.
        qualifying = (self._sorted_sigmas >= epsilon) & mask[self._owners]
        slots = np.flatnonzero(qualifying)
        us = self._owners[slots]
        vs = self._sorted_neighbors[slots]
        into_core = mask[vs]
        root = _component_roots(n, us[into_core], vs[into_core])
        # Cluster ids in reference discovery order: rank vertices by the
        # seeded permutation, rank components by their best core.
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        rank = np.empty(n, dtype=np.int64)
        rank[perm] = np.arange(n, dtype=np.int64)
        cores = np.flatnonzero(mask)
        best_rank = np.full(n, n, dtype=np.int64)
        np.minimum.at(best_rank, root[cores], rank[cores])
        components = np.flatnonzero(best_rank < n)
        num_components = int(components.shape[0])
        cid_of = np.empty(n, dtype=np.int64)
        cid_of[components[np.argsort(best_rank[components])]] = np.arange(
            num_components, dtype=np.int64
        )
        labels = np.full(n, -4, dtype=np.int64)  # -4: non-member
        labels[cores] = cid_of[root[cores]]
        # Borders: non-core q with a qualifying core neighbor joins the
        # smallest adjacent cluster id (the first to reach it).
        border = ~into_core
        best_cid = np.full(n, n, dtype=np.int64)
        np.minimum.at(best_cid, vs[border], cid_of[root[us[border]]])
        attach = best_cid < n
        labels[attach] = best_cid[attach]
        self.counters.record_neighborhood_query(0.0, evaluations=0)
        self.last_query = {
            "epsilon": float(epsilon),
            "mu": int(mu),
            "seed": int(seed),
            "cores": int(cores.shape[0]),
            "clusters": num_components,
            "qualifying_slots": int(slots.shape[0]),
            "sigma_evaluations": 0,
            "index_lookups": int(slots.shape[0]),
        }
        return finalize_clustering(graph, labels, mask)

    # ------------------------------------------------------------------
    # compatibility / introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self.edge.graph

    @property
    def config(self) -> SimilarityConfig:
        return self.edge.config

    @property
    def fingerprint(self) -> str:
        return self.edge.fingerprint

    def require_compatible(
        self,
        graph: Graph | None = None,
        config: SimilarityConfig | None = None,
    ) -> None:
        """Raise :class:`ConfigError` unless the index answers for these."""
        self.edge.require_compatible(graph=graph, config=config)

    def info(self) -> Dict[str, object]:
        """JSON-ready summary (service ``graph_info`` embeds this)."""
        graph = self.edge.graph
        return {
            "slots": int(graph.indices.shape[0]),
            "num_vertices": int(graph.num_vertices),
            "fingerprint": self.edge.fingerprint,
            "bytes": int(
                self._sorted_sigmas.nbytes
                + self._sorted_neighbors.nbytes
                + self.edge.sigmas.nbytes
            ),
        }

    # ------------------------------------------------------------------
    # incremental maintenance (update-edges)
    # ------------------------------------------------------------------
    def refresh(
        self,
        new_graph: Graph,
        affected: Iterable[int],
    ) -> Tuple["ClusteringIndex", Dict[str, int]]:
        """Patch the index for ``new_graph``, recomputing σ only for
        ``affected`` rows.

        ``affected`` must cover every vertex whose σ row changed — for
        an edge update (u, v) that is ``{u, v} ∪ N(u) ∪ N(v)`` with the
        pre-update neighborhoods, which
        :func:`repro.graph.patch.affected_rows` computes for a whole
        batch (the service store and ``DynamicSCAN`` both use it).
        Rows outside it are *copied*: their adjacency is required to be
        unchanged (verified, :class:`ConfigError` otherwise), and σ of a
        pair depends only on the two endpoint neighborhoods, so the
        copied values are bitwise what a fresh build would produce.  The result
        is therefore bitwise-identical to
        ``ClusteringIndex.build(new_graph, config)`` while
        charging σ-kernel work only for the affected rows.

        Returns ``(patched_index, stats)`` with ``rows_recomputed``,
        ``slots_recomputed`` and ``slots_copied`` in ``stats``.
        """
        old_graph = self.edge.graph
        old_n = old_graph.num_vertices
        n = new_graph.num_vertices
        affected_ids = np.unique(
            np.asarray(list(affected), dtype=np.int64)
        )
        if affected_ids.shape[0] and (
            affected_ids[0] < 0 or affected_ids[-1] >= n
        ):
            raise ConfigError(
                "affected vertex ids out of range for the updated graph"
            )
        affected_mask = np.zeros(n, dtype=bool)
        affected_mask[affected_ids] = True
        # Vertices that did not exist before cannot be copied.
        affected_mask[old_n:] = True
        copy_owner = ~affected_mask
        new_degrees = new_graph.degrees.astype(np.int64, copy=False)
        old_degrees = np.zeros(n, dtype=np.int64)
        old_degrees[:old_n] = old_graph.degrees
        if not np.array_equal(
            new_degrees[copy_owner], old_degrees[copy_owner]
        ):
            raise ConfigError(
                "refresh affected set does not cover every changed row "
                "(a copied row's degree differs); pass the full "
                "{u, v} ∪ N(u) ∪ N(v) set or rebuild the index"
            )
        m_new = int(new_graph.indices.shape[0])
        new_sigmas = np.empty(m_new, dtype=np.float64)
        owners = np.repeat(np.arange(n, dtype=np.int64), new_degrees)
        slot_offsets = (
            np.arange(m_new, dtype=np.int64)
            - new_graph.indptr[:-1].astype(np.int64)[owners]
        )
        old_starts = np.zeros(n, dtype=np.int64)
        old_starts[:old_n] = old_graph.indptr[:-1]
        copy_slots = copy_owner[owners]
        slots_copied = int(copy_slots.sum())
        if slots_copied:
            src = old_starts[owners[copy_slots]] + slot_offsets[copy_slots]
            if not np.array_equal(
                new_graph.indices[copy_slots], old_graph.indices[src]
            ):
                raise ConfigError(
                    "refresh affected set does not cover every changed "
                    "row (a copied row's adjacency differs)"
                )
            new_sigmas[copy_slots] = self.edge.sigmas[src]
        slots_recomputed = 0
        if affected_ids.shape[0] or old_n < n:
            oracle = SimilarityOracle(new_graph, self.edge.config)
            oracle.edge_keys  # shared probe structure for all blocks
            runs = _consecutive_runs(np.flatnonzero(affected_mask))
            for lo, hi in runs:
                a = int(new_graph.indptr[lo])
                b = int(new_graph.indptr[hi])
                if b > a:
                    new_sigmas[a:b] = oracle.sigma_row_block(lo, hi)
                    slots_recomputed += b - a
        edge = EdgeSimilarityIndex(new_graph, self.edge.config, new_sigmas)
        patched = type(self)(edge)
        stats = {
            "rows_recomputed": int(affected_mask.sum()),
            "slots_recomputed": int(slots_recomputed),
            "slots_copied": slots_copied,
        }
        return patched, stats

    # ------------------------------------------------------------------
    # persistence (the edge-index .npz format)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist atomically; the archive doubles as an edge index.

        Same fields, checksum, and atomic write-to-temp + ``os.replace``
        discipline as :meth:`EdgeSimilarityIndex.save`, so the file is
        loadable by either class; the derived order is a deterministic
        function of σ and is rebuilt on load rather than trusted from
        disk.
        """
        fault_point("index.save")
        edge = self.edge
        cfg = edge.config
        final = _archive_path(path)
        tmp = f"{final}.tmp-{os.getpid()}.npz"
        try:
            np.savez_compressed(
                tmp,
                sigmas=edge.sigmas,
                fingerprint=np.str_(edge.fingerprint),
                checksum=np.str_(
                    _payload_checksum(edge.fingerprint, edge.sigmas, cfg)
                ),
                kind=np.str_(cfg.kind),
                closed=np.bool_(cfg.closed),
                self_weight=np.float64(cfg.self_weight),
                count_self=np.bool_(cfg.count_self),
                pruning=np.bool_(cfg.pruning),
            )
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(
        cls,
        path,
        graph: Graph,
        *,
        config: SimilarityConfig | None = None,
    ) -> "ClusteringIndex":
        """Load an archive saved by :meth:`save` (or by the edge index).

        Verification (checksum, fingerprint, semantics) is delegated to
        :meth:`EdgeSimilarityIndex.load` — damage raises
        :class:`~repro.errors.IndexIntegrityError`, a graph/semantics
        mismatch raises :class:`~repro.errors.ConfigError`.  Fields the
        edge index does not read (a ``mu_cap`` written by older
        versions) are ignored.
        """
        return cls(EdgeSimilarityIndex.load(path, graph, config=config))

    @classmethod
    def load_or_rebuild(
        cls,
        path,
        graph: Graph,
        *,
        config: SimilarityConfig | None = None,
        backend=None,
    ) -> Tuple["ClusteringIndex", bool]:
        """Load ``path``; on damage, quarantine it and rebuild from σ.

        A damaged (or missing) archive — :meth:`load` raised
        :class:`~repro.errors.IndexIntegrityError` — is preserved as
        ``{path}.quarantined`` and a fresh index is built and saved in
        its place (``recovered`` is True then); a fingerprint/semantics
        mismatch is a caller error and still raises
        :class:`~repro.errors.ConfigError`.
        """
        final = _archive_path(path)
        try:
            return cls.load(final, graph, config=config), False
        except IndexIntegrityError:
            try:
                os.replace(final, final + ".quarantined")
            except FileNotFoundError:
                pass  # missing archive: nothing to quarantine
            index = cls.build(graph, config, backend=backend)
            index.save(final)
            return index, True


def _consecutive_runs(ids: np.ndarray) -> List[Tuple[int, int]]:
    """Group sorted vertex ids into maximal [lo, hi) consecutive runs."""
    if ids.shape[0] == 0:
        return []
    breaks = np.flatnonzero(np.diff(ids) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [ids.shape[0] - 1]))
    return [
        (int(ids[s]), int(ids[e]) + 1)
        for s, e in zip(starts.tolist(), ends.tolist())
    ]


def _component_roots(
    n: int, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Connected components of the graph on ``n`` vertices with edges
    ``(us[i], vs[i])``: per vertex, the smallest id in its component.

    Whole-array hook-and-shortcut: every root adjacent to a smaller
    root hooks onto the smallest one (pointers only ever decrease, so
    they form a forest), then pointer jumping flattens each tree onto
    its root; rounds repeat until no edge joins two trees.
    """
    root = np.arange(n, dtype=np.int64)
    while True:
        ru, rv = root[us], root[vs]
        split = ru != rv
        if not split.any():
            return root
        ru, rv = ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
