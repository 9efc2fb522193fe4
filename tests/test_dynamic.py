"""Tests for dynamic SCAN: mutable graphs + incremental maintenance."""

import numpy as np
import pytest

from repro.baselines import scan
from repro.dynamic import AdjacencyGraph, DynamicSCAN
from repro.errors import ConfigError, GraphError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.metrics.comparison import explain_difference
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


class TestAdjacencyGraph:
    def test_add_remove_edge(self):
        g = AdjacencyGraph(3)
        g.add_edge(0, 1, 2.0)
        assert g.has_edge(1, 0)
        assert g.edge_weight(0, 1) == 2.0
        assert g.num_edges == 1
        assert g.remove_edge(0, 1) == 2.0
        assert g.num_edges == 0

    def test_duplicate_edge_rejected(self):
        g = AdjacencyGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            AdjacencyGraph(2).add_edge(1, 1)

    def test_remove_missing_edge(self):
        with pytest.raises(GraphError):
            AdjacencyGraph(2).remove_edge(0, 1)

    def test_set_weight(self):
        g = AdjacencyGraph(2)
        g.add_edge(0, 1, 1.0)
        g.set_weight(0, 1, 3.0)
        assert g.edge_weight(1, 0) == 3.0

    def test_set_weight_and_edge_weight_check_the_range(self):
        # Negative ids used to wrap around to the last vertex.
        g = AdjacencyGraph(3)
        g.add_edge(1, 2, 1.0)
        with pytest.raises(GraphError, match="vertex -1 out of range"):
            g.set_weight(-1, 1, 5.0)
        with pytest.raises(GraphError, match="vertex -1 out of range"):
            g.set_weight(1, -1, 5.0)
        with pytest.raises(GraphError, match="vertex -1 out of range"):
            g.edge_weight(1, -1)
        with pytest.raises(GraphError, match="vertex 3 out of range"):
            g.edge_weight(3, 1)
        assert g.neighbors(1) == {2: 1.0}
        assert list(g.edges()) == [(1, 2, 1.0)]

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        g = AdjacencyGraph(2)
        with pytest.raises(GraphError, match="finite"):
            g.add_edge(0, 1, weight)
        g.add_edge(0, 1)
        with pytest.raises(GraphError, match="finite"):
            g.set_weight(0, 1, weight)
        assert g.edge_weight(0, 1) == 1.0

    def test_add_vertex(self):
        g = AdjacencyGraph(2)
        assert g.add_vertex() == 2
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_csr_round_trip(self, karate):
        mutable = AdjacencyGraph.from_csr(karate)
        assert mutable.num_edges == karate.num_edges
        assert mutable.to_csr() == karate

    def test_edges_iteration(self):
        g = AdjacencyGraph(4)
        g.add_edge(2, 0, 1.5)
        g.add_edge(1, 3)
        edges = sorted(g.edges())
        assert edges == [(0, 2, 1.5), (1, 3, 1.0)]


def assert_matches_batch(dyn: DynamicSCAN, mu: int, eps: float):
    """The incremental clustering must equal batch SCAN on the snapshot."""
    snapshot = dyn.graph.to_csr()
    oracle = SimilarityOracle(snapshot, SimilarityConfig())
    reference = scan(snapshot, mu, eps, seed=1)
    result = dyn.clustering()
    problems = explain_difference(
        snapshot, oracle, reference, result, mu, eps
    )
    assert not problems, problems


class TestDynamicSCAN:
    def test_initial_state_matches_batch(self, karate):
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(karate), 3, 0.5)
        assert_matches_batch(dyn, 3, 0.5)

    def test_insertion_stream_matches_batch(self):
        final = gnm_random_graph(60, 240, seed=3)
        dyn = DynamicSCAN(AdjacencyGraph(60), 3, 0.5)
        edges = list(final.edges())
        for i, (u, v, w) in enumerate(edges):
            dyn.add_edge(u, v, w)
            if i % 60 == 59:
                assert_matches_batch(dyn, 3, 0.5)
        assert_matches_batch(dyn, 3, 0.5)

    def test_deletion_stream_matches_batch(self, caveman):
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(caveman), 3, 0.6)
        rng = np.random.default_rng(5)
        edges = list(caveman.edges())
        rng.shuffle(edges)
        for u, v, _ in edges[:40]:
            dyn.remove_edge(u, v)
        assert_matches_batch(dyn, 3, 0.6)

    def test_mixed_updates(self, triangle):
        # ε=0.9: the triangle clusters, the 3-path after removal does not.
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(triangle), 2, 0.9)
        assert dyn.clustering().num_clusters == 1
        dyn.remove_edge(0, 1)
        assert_matches_batch(dyn, 2, 0.9)
        assert dyn.clustering().num_clusters == 0
        dyn.add_edge(0, 1)
        assert dyn.clustering().num_clusters == 1

    def test_weight_update_changes_result(self):
        g = AdjacencyGraph(4)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]:
            g.add_edge(u, v)
        dyn = DynamicSCAN(g, 2, 0.75)
        before = dyn.clustering()
        dyn.set_weight(2, 3, 0.01)
        dyn.set_weight(1, 3, 0.01)
        after = dyn.clustering()
        assert_matches_batch(dyn, 2, 0.75)
        # Downweighting 3's ties eventually expels it from the cluster.
        assert int(after.labels[3]) != int(before.labels[3]) or \
            after.num_clusters != before.num_clusters

    def test_cache_consistency_after_updates(self, karate):
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(karate), 3, 0.5)
        rng = np.random.default_rng(7)
        edges = list(karate.edges())
        rng.shuffle(edges)
        for u, v, _ in edges[:20]:
            dyn.remove_edge(u, v)
        for u, v, _ in edges[:10]:
            dyn.add_edge(u, v)
        assert dyn.verify_cache()

    def test_update_cost_is_local(self, lfr_medium, monkeypatch):
        """One insert plus one read refreshes exactly the rows
        {u, v} ∪ N(u) ∪ N(v), and counts their slots."""
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(lfr_medium), 4, 0.5)
        base = dyn.sigma_recomputations
        refreshes = []
        original = ClusteringIndex.refresh

        def spy(self, new_graph, affected):
            patched, stats = original(self, new_graph, affected)
            refreshes.append((list(affected), stats))
            return patched, stats

        monkeypatch.setattr(ClusteringIndex, "refresh", spy)
        # Insert one edge between two low-degree vertices.
        degrees = lfr_medium.degrees
        candidates = np.argsort(degrees)
        u = int(candidates[0])
        v = next(
            int(x)
            for x in candidates[1:]
            if not lfr_medium.has_edge(u, int(x)) and int(x) != u
        )
        dyn.add_edge(u, v)
        assert dyn.sigma_recomputations == base  # nothing until a read
        dyn.clustering()
        (rows, stats), = refreshes
        expected = {u, v}
        expected.update(lfr_medium.neighbors(u).tolist())
        expected.update(lfr_medium.neighbors(v).tolist())
        assert sorted(rows) == sorted(expected)
        assert stats["rows_recomputed"] == len(expected)
        assert dyn.sigma_recomputations - base == stats["slots_recomputed"]
        new_degrees = dyn.graph.to_csr().degrees
        assert stats["slots_recomputed"] == int(
            new_degrees[sorted(expected)].sum()
        )

    def test_pending_changes_flag(self, triangle):
        dyn = DynamicSCAN(AdjacencyGraph.from_csr(triangle), 2, 0.5)
        dyn.clustering()
        assert not dyn.pending_changes
        dyn.remove_edge(0, 1)
        assert dyn.pending_changes
        dyn.clustering()
        assert not dyn.pending_changes

    def test_add_vertex_then_connect(self):
        g = AdjacencyGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(0, 2)
        dyn = DynamicSCAN(g, 2, 0.5)
        v = dyn.add_vertex()
        dyn.add_edge(v, 0)
        dyn.add_edge(v, 1)
        assert_matches_batch(dyn, 2, 0.5)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DynamicSCAN(AdjacencyGraph(2), 0, 0.5)
        with pytest.raises(ConfigError):
            DynamicSCAN(AdjacencyGraph(2), 2, 0.0)

    def test_weighted_stream(self, weighted_triangle):
        dyn = DynamicSCAN(
            AdjacencyGraph.from_csr(weighted_triangle), 2, 0.5
        )
        assert_matches_batch(dyn, 2, 0.5)
        dyn.add_vertex()
        dyn.add_edge(3, 0, 2.5)
        dyn.add_edge(3, 1, 2.5)
        assert_matches_batch(dyn, 2, 0.5)
