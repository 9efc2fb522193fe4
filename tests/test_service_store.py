"""Data-plane contracts: cache-key semantics, LRU behaviour, the graph
registry, and update-edges applied as a CSR patch plus index refresh.

The load-bearing claims:

* the cache key is the *full* identity of a query (graph fingerprint,
  σ-semantic similarity fields, μ, ε) and nothing else — ``pruning``
  is a scheduling knob and must not fragment the cache;
* ``update_edges`` returns the pre-update fingerprint so exactly the
  affected entries can be invalidated;
* a mid-batch failure leaves the CSR snapshot consistent with the
  partially-applied batch (never the stale pre-batch graph).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.errors import ConfigError, GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.service.store import (
    CachedResult,
    GraphStore,
    ResultCache,
    make_cache_key,
    similarity_signature,
)
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import graph_fingerprint
from repro.faults import FaultPlan, FaultRule, armed
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


def _result(n=5):
    return CachedResult(
        labels=np.zeros(n, dtype=np.int64),
        num_clusters=1,
        sigma_evaluations=10,
        compute_seconds=0.01,
    )


class TestCacheKey:
    def test_pruning_does_not_change_the_key(self):
        lazy = SimilarityConfig(pruning=False)
        eager = SimilarityConfig(pruning=True)
        assert similarity_signature(lazy) == similarity_signature(eager)
        assert make_cache_key("fp", lazy, 3, 0.5) == make_cache_key(
            "fp", eager, 3, 0.5
        )

    def test_semantic_fields_change_the_key(self):
        base = SimilarityConfig()
        jaccard = SimilarityConfig(kind="jaccard", pruning=False)
        assert make_cache_key("fp", base, 3, 0.5) != make_cache_key(
            "fp", jaccard, 3, 0.5
        )

    def test_mu_epsilon_fingerprint_change_the_key(self):
        config = SimilarityConfig()
        base = make_cache_key("fp", config, 3, 0.5)
        assert base != make_cache_key("fp", config, 4, 0.5)
        assert base != make_cache_key("fp", config, 3, 0.6)
        assert base != make_cache_key("other", config, 3, 0.5)

    def test_key_validates_eps_mu(self):
        with pytest.raises(ConfigError):
            make_cache_key("fp", SimilarityConfig(), 0, 0.5)
        with pytest.raises(ConfigError):
            make_cache_key("fp", SimilarityConfig(), 2, 1.5)


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        key = make_cache_key("fp", SimilarityConfig(), 3, 0.5)
        assert cache.get(key) is None
        cache.put(key, _result())
        entry = cache.get(key)
        assert entry is not None and entry.hits == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        config = SimilarityConfig()
        k1 = make_cache_key("fp", config, 2, 0.1)
        k2 = make_cache_key("fp", config, 2, 0.2)
        k3 = make_cache_key("fp", config, 2, 0.3)
        cache.put(k1, _result())
        cache.put(k2, _result())
        cache.get(k1)  # refresh k1; k2 is now least-recent
        cache.put(k3, _result())
        assert cache.get(k2) is None
        assert cache.get(k1) is not None
        assert cache.get(k3) is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate_fingerprint_is_exact(self):
        cache = ResultCache(capacity=8)
        config = SimilarityConfig()
        stale = [make_cache_key("old", config, 2, e) for e in (0.3, 0.5)]
        kept = [make_cache_key("new", config, 2, e) for e in (0.3, 0.5, 0.7)]
        for key in stale + kept:
            cache.put(key, _result())
        assert cache.invalidate_fingerprint("old") == 2
        assert sorted(k.epsilon for k in cache.keys()) == [0.3, 0.5, 0.7]
        assert all(k.fingerprint == "new" for k in cache.keys())
        # A second pass finds nothing left to drop.
        assert cache.invalidate_fingerprint("old") == 0

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            ResultCache(capacity=0)


class TestGraphStore:
    def test_add_get_remove(self):
        store = GraphStore()
        graph = gnm_random_graph(30, 60, seed=1)
        entry = store.add("g", graph)
        assert store.get("g") is entry
        assert entry.fingerprint == graph_fingerprint(graph)
        assert store.names() == ["g"] and len(store) == 1
        assert store.remove("g") == entry.fingerprint
        with pytest.raises(ConfigError):
            store.get("g")

    def test_duplicate_requires_replace(self):
        store = GraphStore()
        graph = gnm_random_graph(10, 20, seed=2)
        store.add("g", graph)
        with pytest.raises(ConfigError):
            store.add("g", graph)
        other = gnm_random_graph(12, 24, seed=3)
        entry = store.add("g", other, replace=True)
        assert entry.graph is other

    def test_jobs_run_over_the_scalar_oracle(self):
        """anySCAN jobs run only on un-indexed graphs, over the scalar
        σ oracle; an indexed graph answers from its clustering index."""
        store = GraphStore()
        graph = gnm_random_graph(25, 50, seed=4)
        plain = store.add("plain", graph)
        assert type(store.oracle_for(plain)) is SimilarityOracle
        assert plain.cluster_index is None

    def test_ensure_cluster_index_builds_once(self):
        store = GraphStore()
        graph = gnm_random_graph(20, 40, seed=5)
        store.add("g", graph)
        entry = store.ensure_cluster_index("g")
        assert entry.cluster_index is not None
        assert entry.auto_cluster_index is True
        first = entry.cluster_index
        assert store.ensure_cluster_index("g").cluster_index is first


    def test_present_index_is_kept_without_a_sigma_pass(self, sigma_passes):
        """An index built at ``add`` is returned as is: no σ pass, and
        its derived arrays are bitwise those of a fresh build."""
        store = GraphStore()
        graph = gnm_random_graph(60, 200, seed=11)
        built = store.add("g", graph, build_cluster_index=True).cluster_index
        sigma_passes.clear()
        entry = store.ensure_cluster_index("g")
        assert sigma_passes == []
        assert entry.cluster_index is built
        fresh = ClusteringIndex.build(graph, SimilarityConfig())
        got = entry.cluster_index.derived_arrays()
        want = fresh.derived_arrays()
        assert sorted(got) == sorted(want)
        for label, array in want.items():
            assert got[label].dtype == array.dtype, label
            assert got[label].tobytes() == array.tobytes(), label


class TestUpdateEdges:
    def _store_with(self, n=30, m=70, seed=6):
        store = GraphStore()
        store.add(
            "g", gnm_random_graph(n, m, seed=seed), build_cluster_index=True
        )
        return store

    def _free_pair(self, graph):
        existing = {(u, v) for u, v, _ in graph.edges()}
        for u in range(graph.num_vertices):
            for v in range(u + 1, graph.num_vertices):
                if (u, v) not in existing:
                    return u, v
        raise AssertionError("graph is complete")

    def test_insert_changes_fingerprint_and_drops_index(self):
        store = self._store_with()
        entry = store.get("g")
        old = entry.fingerprint
        u, v = self._free_pair(entry.graph)
        # A failed row refresh drops the index instead: no σ work, and
        # no index left answering for the pre-update graph.
        with armed(FaultPlan([FaultRule(site="store.index_refresh")])):
            stats = store.update_edges("g", insert=[[u, v]])
        assert stats.old_fingerprint == old
        assert stats.new_fingerprint != old
        assert stats.inserted == 1 and stats.deleted == 0
        assert stats.sigma_recomputations == 0
        entry = store.get("g")
        assert entry.fingerprint == stats.new_fingerprint
        assert entry.cluster_index is None  # stale index dropped
        assert entry.auto_cluster_index is True  # rebuilt lazily
        assert entry.updates_applied == 1

    def test_cluster_index_refresh_counts_recomputed_slots(
        self, monkeypatch
    ):
        store = GraphStore()
        store.add(
            "g", gnm_random_graph(30, 70, seed=6), build_cluster_index=True
        )
        refreshes = []
        original = ClusteringIndex.refresh

        def spy(self, new_graph, affected):
            patched, stats = original(self, new_graph, affected)
            refreshes.append(stats)
            return patched, stats

        monkeypatch.setattr(ClusteringIndex, "refresh", spy)
        u, v = self._free_pair(store.get("g").graph)
        stats = store.update_edges("g", insert=[[u, v]])
        assert len(refreshes) == 1
        assert stats.sigma_recomputations == refreshes[0]["slots_recomputed"]
        assert stats.sigma_recomputations > 0
        assert stats.index_rows_refreshed == refreshes[0]["rows_recomputed"]
        assert store.get("g").cluster_index is not None

    def test_update_hashes_the_new_csr_once(self, monkeypatch):
        """The store takes the patched index's fingerprint instead of
        hashing the post-batch CSR a second time."""
        import repro.service.store as store_module
        import repro.similarity.index as index_module

        store = GraphStore()
        store.add(
            "g", gnm_random_graph(30, 70, seed=6), build_cluster_index=True
        )
        hashed = []

        def counting(graph):
            hashed.append(graph)
            return graph_fingerprint(graph)

        monkeypatch.setattr(store_module, "graph_fingerprint", counting)
        monkeypatch.setattr(index_module, "graph_fingerprint", counting)
        u, v = self._free_pair(store.get("g").graph)
        stats = store.update_edges("g", insert=[[u, v]])
        entry = store.get("g")
        assert len(hashed) == 1
        assert stats.new_fingerprint == graph_fingerprint(entry.graph)
        assert entry.cluster_index.fingerprint == stats.new_fingerprint

    def test_updated_snapshot_matches_batch_rebuild(self):
        """Incremental maintenance must equal building from scratch."""
        store = self._store_with(n=40, m=90, seed=7)
        entry = store.get("g")
        u, v = self._free_pair(entry.graph)
        victim = next(iter(entry.graph.edges()))
        store.update_edges(
            "g", insert=[[u, v, 2.0]], delete=[[victim[0], victim[1]]]
        )
        entry = store.get("g")
        builder = GraphBuilder(entry.graph.num_vertices)
        for a, b, w in entry.graph.edges():
            builder.add_edge(a, b, w)
        rebuilt = builder.build(dedup="error")
        expected = scan(rebuilt, 2, 0.5).canonical().labels
        got = scan(entry.graph, 2, 0.5).canonical().labels
        assert np.array_equal(got, expected)
        assert entry.fingerprint == graph_fingerprint(rebuilt)

    def test_mid_batch_failure_keeps_snapshot_consistent(self):
        """A bad spec after a good one: the applied prefix must be
        visible in the CSR snapshot and the fingerprint refreshed."""
        store = self._store_with(n=20, m=30, seed=8)
        entry = store.get("g")
        old_fingerprint = entry.fingerprint
        old_edges = entry.graph.num_edges
        u, v = self._free_pair(entry.graph)
        with pytest.raises(ConfigError):
            store.update_edges("g", insert=[[u, v], [1, 2, 3, 4]])
        entry = store.get("g")
        assert entry.graph.num_edges == old_edges + 1
        assert entry.fingerprint != old_fingerprint
        assert entry.fingerprint == graph_fingerprint(entry.graph)

    def test_non_finite_weight_is_rejected(self):
        store = self._store_with()
        entry = store.get("g")
        old = entry.fingerprint
        u, v = self._free_pair(entry.graph)
        for weight in (float("nan"), float("inf")):
            with pytest.raises(GraphError, match="finite"):
                store.update_edges("g", insert=[[u, v, weight]])
        entry = store.get("g")
        assert entry.fingerprint == old
        assert np.isfinite(entry.graph.weights).all()

    def test_indexed_and_unindexed_stores_agree(self):
        """Same batch, with and without an index: same fingerprint, and
        the refreshed clustering index equals a fresh build."""
        graph = gnm_random_graph(80, 240, seed=13)
        stores = [GraphStore() for _ in range(2)]
        stores[0].add("g", graph)
        stores[1].add("g", graph, build_cluster_index=True)
        u, v = self._free_pair(graph)
        victim = next(iter(graph.edges()))
        stats = [
            store.update_edges(
                "g", insert=[[u, v, 1.0]], delete=[list(victim[:2])]
            )
            for store in stores
        ]
        assert len({s.new_fingerprint for s in stats}) == 1
        assert len({s.affected_vertices for s in stats}) == 1
        refreshed = stores[1].get("g").cluster_index
        fresh = ClusteringIndex.build(
            stores[1].get("g").graph, SimilarityConfig()
        )
        assert refreshed.edge.sigmas.tobytes() == fresh.edge.sigmas.tobytes()

    def test_add_vertices(self):
        store = self._store_with(n=10, m=15, seed=9)
        before = store.get("g").graph.num_vertices
        stats = store.update_edges("g", add_vertices=3)
        assert stats.vertices_added == 3
        assert store.get("g").graph.num_vertices == before + 3

    def test_validation(self):
        store = self._store_with()
        with pytest.raises(ConfigError):
            store.update_edges("g", add_vertices=-1)
        with pytest.raises(ConfigError):
            store.update_edges("missing", insert=[[0, 1]])
        with pytest.raises(ConfigError):
            store.update_edges("g", delete=[[0]])


class TestGuardedCacheFill:
    """A job finishing late must not plant a cache entry for a graph
    that was unloaded, replaced, or mutated while it ran (§9)."""

    def _setup(self):
        store = GraphStore()
        graph = gnm_random_graph(20, 40, seed=11)
        entry = store.add("g", graph)
        cache = ResultCache(capacity=8)
        key = make_cache_key(entry.fingerprint, entry.similarity, 2, 0.5)
        return store, cache, entry, key

    def test_fill_succeeds_while_graph_is_current(self):
        store, cache, entry, key = self._setup()
        assert store.fill_cache_if_current(
            cache, "g", entry.fingerprint, key, _result()
        )
        assert cache.get(key) is not None

    def test_fill_skipped_after_remove(self):
        store, cache, entry, key = self._setup()
        store.remove("g")
        assert not store.fill_cache_if_current(
            cache, "g", entry.fingerprint, key, _result()
        )
        assert len(cache) == 0

    def test_fill_skipped_after_update_changed_fingerprint(self):
        store, cache, entry, key = self._setup()
        old_fingerprint = entry.fingerprint
        u, v = TestUpdateEdges()._free_pair(entry.graph)
        store.update_edges("g", insert=[[u, v]])
        # The job answered for the pre-update fingerprint; by now the
        # invalidation for that fingerprint has already run, so a fill
        # here would resurrect a purged entry.
        assert not store.fill_cache_if_current(
            cache, "g", old_fingerprint, key, _result()
        )
        assert len(cache) == 0

    def test_fill_skipped_after_replace(self):
        store, cache, entry, key = self._setup()
        store.add("g", gnm_random_graph(22, 44, seed=12), replace=True)
        assert not store.fill_cache_if_current(
            cache, "g", entry.fingerprint, key, _result()
        )
        assert len(cache) == 0
