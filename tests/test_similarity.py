"""Tests for the weighted structural similarity oracle."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.csr import Graph
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from tests.conftest import brute_force_sigma


class TestSigmaValues:
    def test_triangle_all_pairs_equal_one(self, triangle):
        oracle = SimilarityOracle(triangle)
        for p in range(3):
            for q in range(3):
                if p != q:
                    assert oracle.sigma(p, q) == pytest.approx(1.0)

    def test_sigma_self_is_one(self, karate):
        oracle = SimilarityOracle(karate)
        for v in (0, 5, 33):
            assert oracle.sigma(v, v) == pytest.approx(1.0)

    def test_sigma_symmetric(self, karate):
        oracle = SimilarityOracle(karate)
        for p, q in [(0, 1), (2, 32), (5, 16), (0, 33)]:
            assert oracle.sigma(p, q) == pytest.approx(oracle.sigma(q, p))

    def test_matches_brute_force_unweighted(self, karate):
        oracle = SimilarityOracle(karate)
        rng = np.random.default_rng(1)
        for _ in range(30):
            p, q = rng.integers(0, 34, size=2)
            expected = brute_force_sigma(karate, int(p), int(q))
            assert oracle.sigma(int(p), int(q)) == pytest.approx(expected)

    def test_matches_brute_force_weighted(self, weighted_triangle):
        oracle = SimilarityOracle(weighted_triangle)
        for p in range(3):
            for q in range(3):
                expected = brute_force_sigma(weighted_triangle, p, q)
                assert oracle.sigma(p, q) == pytest.approx(expected)

    def test_unweighted_closed_matches_classic_scan_formula(self, karate):
        # σ(u,v) = |Γ(u) ∩ Γ(v)| / sqrt(|Γ(u)||Γ(v)|)
        oracle = SimilarityOracle(karate)
        for p, q in [(0, 1), (32, 33), (5, 6)]:
            gp = set(int(x) for x in karate.neighbors(p)) | {p}
            gq = set(int(x) for x in karate.neighbors(q)) | {q}
            expected = len(gp & gq) / np.sqrt(len(gp) * len(gq))
            assert oracle.sigma(p, q) == pytest.approx(expected)

    def test_open_mode_literal_definition(self, triangle):
        oracle = SimilarityOracle(
            triangle, SimilarityConfig(closed=False, count_self=False)
        )
        # Open neighborhoods: common neighbors of adjacent triangle
        # vertices = 1 vertex; lengths = 2 each -> 1/2.
        assert oracle.sigma(0, 1) == pytest.approx(0.5)

    def test_disconnected_pair_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        oracle = SimilarityOracle(g)
        assert oracle.sigma(0, 2) == pytest.approx(
            brute_force_sigma(g, 0, 2)
        )

    def test_nonadjacent_with_common_neighbor(self, star_graph):
        oracle = SimilarityOracle(star_graph)
        # Leaves 1 and 2 share the hub 0.
        expected = brute_force_sigma(star_graph, 1, 2)
        assert oracle.sigma(1, 2) == pytest.approx(expected)
        assert expected == pytest.approx(1 / 2)


class TestPrecomputation:
    def test_lengths_include_self_weight(self, weighted_triangle):
        oracle = SimilarityOracle(weighted_triangle)
        # Vertex 0: edges 2.0 and 1.0 plus self weight 1.0.
        assert oracle.lengths[0] == pytest.approx(4.0 + 1.0 + 1.0)

    def test_lengths_open_mode(self, weighted_triangle):
        oracle = SimilarityOracle(
            weighted_triangle, SimilarityConfig(closed=False)
        )
        assert oracle.lengths[0] == pytest.approx(5.0)

    def test_max_weights(self, weighted_triangle):
        oracle = SimilarityOracle(weighted_triangle)
        assert oracle.max_weights[0] == pytest.approx(2.0)
        assert oracle.max_weights[2] == pytest.approx(1.0)

    def test_custom_self_weight(self, triangle):
        oracle = SimilarityOracle(
            triangle, SimilarityConfig(self_weight=2.0)
        )
        assert oracle.lengths[0] == pytest.approx(2.0 + 4.0)

    def test_invalid_self_weight(self, triangle):
        with pytest.raises(ConfigError):
            SimilarityOracle(triangle, SimilarityConfig(self_weight=0.0))


class TestNeighborhoods:
    def test_eps_neighborhood_excludes_self(self, karate):
        oracle = SimilarityOracle(karate)
        hood = oracle.eps_neighborhood(0, 0.3)
        assert 0 not in hood

    def test_eps_neighborhood_subset_of_neighbors(self, karate):
        oracle = SimilarityOracle(karate)
        hood = set(int(x) for x in oracle.eps_neighborhood(0, 0.4))
        neighbors = set(int(x) for x in karate.neighbors(0))
        assert hood <= neighbors

    def test_threshold_monotone(self, karate):
        oracle = SimilarityOracle(karate)
        loose = set(int(x) for x in oracle.eps_neighborhood(2, 0.3))
        tight = set(int(x) for x in oracle.eps_neighborhood(2, 0.7))
        assert tight <= loose

    def test_eps_neighborhood_size_counts_self(self, triangle):
        oracle = SimilarityOracle(triangle)
        assert oracle.eps_neighborhood(0, 0.9).shape[0] == 2
        assert oracle.max_possible_eps_neighbors(0) == 3

    def test_count_self_off(self, triangle):
        oracle = SimilarityOracle(
            triangle, SimilarityConfig(count_self=False)
        )
        assert oracle.eps_neighborhood(0, 0.9).shape[0] == 2
        assert oracle.max_possible_eps_neighbors(0) == 2

    def test_max_possible(self, star_graph):
        oracle = SimilarityOracle(star_graph)
        assert oracle.max_possible_eps_neighbors(0) == 7
        assert oracle.max_possible_eps_neighbors(1) == 2

    def test_pruned_neighborhood_agrees_with_full(self, karate):
        full_oracle = SimilarityOracle(
            karate, SimilarityConfig(pruning=False)
        )
        pruned_oracle = SimilarityOracle(
            karate, SimilarityConfig(pruning=True)
        )
        for v in range(34):
            a = set(int(x) for x in full_oracle.eps_neighborhood(v, 0.5))
            b = set(
                int(x) for x in pruned_oracle.eps_neighborhood_pruned(v, 0.5)
            )
            assert a == b


class TestCounters:
    def test_sigma_counts(self, karate):
        oracle = SimilarityOracle(karate)
        oracle.sigma(0, 1)
        oracle.sigma(2, 3)
        assert oracle.counters.sigma_evaluations == 2
        assert oracle.counters.work_units > 0

    def test_unrecorded_does_not_count(self, karate):
        oracle = SimilarityOracle(karate)
        oracle.sigma_unrecorded(0, 1)
        assert oracle.counters.sigma_evaluations == 0

    def test_neighborhood_query_counts_evaluations(self, karate):
        oracle = SimilarityOracle(karate)
        oracle.eps_neighborhood(0, 0.5)
        assert oracle.counters.neighborhood_queries == 1
        assert oracle.counters.sigma_evaluations == karate.degree(0)
