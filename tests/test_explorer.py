"""Tests for the (μ, ε) parameter explorer."""

import numpy as np
import pytest

from repro.baselines import scan
from repro.core.explorer import ParameterExplorer
from repro.errors import ConfigError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


@pytest.fixture(scope="module")
def explorer(lfr_small):
    return ParameterExplorer(lfr_small)


def assert_byte_identical(result, reference):
    np.testing.assert_array_equal(result.labels, reference.labels)
    np.testing.assert_array_equal(result.roles, reference.roles)


class TestExactness:
    @pytest.mark.parametrize("mu,eps", [(2, 0.3), (3, 0.5), (5, 0.5),
                                        (4, 0.7), (3, 1.0)])
    def test_matches_scan(self, lfr_small, explorer, mu, eps):
        reference = scan(lfr_small, mu, eps, seed=0)
        assert_byte_identical(explorer.clustering_at(mu, eps), reference)

    def test_matches_scan_on_karate(self, karate):
        explorer = ParameterExplorer(karate)
        for mu, eps in [(2, 0.4), (3, 0.5), (3, 0.6)]:
            reference = scan(karate, mu, eps, seed=0)
            assert_byte_identical(explorer.clustering_at(mu, eps), reference)

    def test_weighted_graph(self, weighted_triangle):
        explorer = ParameterExplorer(weighted_triangle)
        result = explorer.clustering_at(2, 0.5)
        reference = scan(weighted_triangle, 2, 0.5)
        assert result.same_partition(reference)
        assert_byte_identical(result, reference)


class TestCoreThresholds:
    def test_thresholds_consistent_with_cores(self, lfr_small, explorer):
        thresholds = explorer.core_thresholds(4)
        for eps in (0.3, 0.5, 0.7):
            mask = explorer.cores_at(4, eps)
            assert np.array_equal(mask, thresholds >= eps)

    def test_monotone_in_mu(self, explorer):
        t3 = explorer.core_thresholds(3)
        t6 = explorer.core_thresholds(6)
        assert np.all(t6 <= t3 + 1e-12)

    def test_mu_one_always_core(self, explorer):
        # With count_self, μ=1 is satisfied by the vertex itself.
        assert np.all(explorer.core_thresholds(1) == 1.0)

    def test_triangle_thresholds(self, triangle):
        explorer = ParameterExplorer(triangle)
        # Every vertex has two σ=1 neighbors: core at any ε for μ<=3.
        assert np.all(explorer.core_thresholds(3) == pytest.approx(1.0))

    def test_invalid_mu(self, explorer):
        with pytest.raises(ConfigError):
            explorer.core_thresholds(0)

    def test_invalid_epsilon(self, explorer):
        with pytest.raises(ConfigError):
            explorer.cores_at(3, 0.0)


class TestCandidatesAndSuggestion:
    def test_candidates_descending(self, explorer):
        candidates = explorer.epsilon_candidates(4)
        eps_values = [eps for eps, _ in candidates]
        assert eps_values == sorted(eps_values, reverse=True)

    def test_candidate_core_counts_increase(self, explorer):
        candidates = explorer.epsilon_candidates(4)
        counts = [count for _, count in candidates]
        assert counts == sorted(counts)

    def test_candidate_counts_match_cores_at(self, explorer):
        for eps, count in explorer.epsilon_candidates(4)[:10]:
            assert int(explorer.cores_at(4, eps).sum()) == count

    def test_suggest_epsilon_in_range(self, explorer):
        eps = explorer.suggest_epsilon(4)
        assert 0.0 < eps <= 1.0

    def test_suggest_epsilon_produces_cores(self, lfr_small, explorer):
        eps = explorer.suggest_epsilon(4, min_cores=3)
        assert int(explorer.cores_at(4, eps).sum()) >= 3

    def test_suggestion_on_coreless_graph(self, path_graph):
        explorer = ParameterExplorer(path_graph)
        assert explorer.suggest_epsilon(5) == 0.5  # fallback default


class TestCosts:
    def test_precompute_charges_once(self, lfr_small):
        explorer = ParameterExplorer(lfr_small)
        assert explorer.counters.sigma_evaluations == lfr_small.num_edges
        # The charge equals one scalar σ evaluation per edge.
        oracle = SimilarityOracle(lfr_small, SimilarityConfig())
        for u, v, _ in lfr_small.edges():
            oracle.sigma(u, v)
        assert explorer.counters.work_units == oracle.counters.work_units
        assert explorer.counters.sigma_evaluations == (
            oracle.counters.sigma_evaluations
        )
        cost = explorer.precompute_cost
        explorer.clustering_at(3, 0.5)
        explorer.clustering_at(5, 0.7)
        assert explorer.precompute_cost == cost  # queries are free

    def test_sigma_values_copy(self, explorer):
        values = explorer.sigma_values()
        values[:] = 0.0
        assert explorer.sigma_values().max() > 0.0

    def test_sigma_values_follow_edge_order(self, lfr_small, explorer):
        oracle = SimilarityOracle(lfr_small, SimilarityConfig())
        expected = [
            oracle.sigma_unrecorded(u, v) for u, v, _ in lfr_small.edges()
        ]
        np.testing.assert_array_equal(explorer.sigma_values(), expected)


class TestIndexAdoption:
    def test_foreign_index_rejected(self, lfr_small):
        index = ClusteringIndex.build(gnm_random_graph(80, 300, seed=14))
        with pytest.raises(ConfigError, match="different graph"):
            ParameterExplorer(lfr_small, index=index)
        with pytest.raises(ConfigError, match="semantics mismatch"):
            ParameterExplorer(
                index.graph,
                index=index,
                similarity=SimilarityConfig(closed=False, pruning=False),
            )
