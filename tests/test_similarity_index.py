"""EdgeSimilarityIndex: build parity, persistence, and guarded reuse."""

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.core.explorer import ParameterExplorer
from repro.errors import ConfigError
from repro.graph.builder import GraphBuilder
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import (
    EdgeSimilarityIndex,
    IndexedOracle,
    graph_fingerprint,
)
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(80, 300, seed=13)


@pytest.fixture(scope="module")
def index(graph):
    return EdgeSimilarityIndex.build(graph, SimilarityConfig())


class TestBuild:
    def test_values_match_the_oracle(self, graph, index):
        oracle = SimilarityOracle(graph, SimilarityConfig())
        for p in range(graph.num_vertices):
            row = index.sigma_row(p)
            for slot, q in enumerate(graph.neighbors(p)):
                assert row[slot] == pytest.approx(
                    oracle.sigma_unrecorded(p, int(q)), abs=1e-12
                )

    @pytest.mark.parametrize("kind", ["jaccard", "dice", "overlap"])
    def test_set_kinds(self, graph, kind):
        config = SimilarityConfig(kind=kind, pruning=False)
        built = EdgeSimilarityIndex.build(graph, config)
        oracle = SimilarityOracle(graph, config)
        us, vs, sigmas = built.forward_edges()
        for u, v, s in zip(us[:50], vs[:50], sigmas[:50]):
            assert s == pytest.approx(
                oracle.sigma_unrecorded(int(u), int(v)), abs=1e-12
            )

    def test_thread_build_matches_inprocess(self, graph, index):
        threaded = EdgeSimilarityIndex.build(
            graph,
            SimilarityConfig(),
            backend=ThreadBackend(threads=2, chunk_size=11),
        )
        np.testing.assert_array_equal(threaded.sigmas, index.sigmas)

    def test_edgeless_graph(self):
        empty = GraphBuilder(5).build()
        built = EdgeSimilarityIndex.build(empty, SimilarityConfig())
        assert built.sigmas.shape == (0,)
        assert built.eps_neighborhood(0, 0.5).shape == (0,)

    def test_wrong_sigma_shape_rejected(self, graph):
        with pytest.raises(ConfigError):
            EdgeSimilarityIndex(
                graph, SimilarityConfig(), np.zeros(3, dtype=np.float64)
            )


class TestQueries:
    def test_eps_neighborhood_matches_oracle(self, graph, index):
        oracle = SimilarityOracle(graph, SimilarityConfig())
        for eps in (0.2, 0.5, 0.8):
            for p in range(0, graph.num_vertices, 7):
                np.testing.assert_array_equal(
                    index.eps_neighborhood(p, eps),
                    oracle.eps_neighborhood(p, eps),
                )

    def test_eps_counts_matches_per_vertex_queries(self, graph, index):
        oracle = SimilarityOracle(graph, SimilarityConfig())
        counts = index.eps_counts(0.4)
        for p in range(graph.num_vertices):
            assert counts[p] == oracle.eps_neighborhood(p, 0.4).shape[0]

    def test_lookup_distinguishes_non_edges(self, graph, index):
        nb = set(graph.neighbors(0).tolist())
        non_edge = next(
            q for q in range(1, graph.num_vertices) if q not in nb
        )
        edge = next(iter(sorted(nb)))
        values, found = index.lookup(
            np.array([0, 0]), np.array([edge, non_edge])
        )
        assert found.tolist() == [True, False]
        assert values[1] == 0.0
        value, hit = index.lookup_one(0, edge)
        assert hit and value == values[0]


class TestPersistence:
    def test_npz_round_trip(self, tmp_path, graph, index):
        path = tmp_path / "sig.npz"
        index.save(path)
        loaded = EdgeSimilarityIndex.load(path, graph)
        np.testing.assert_array_equal(loaded.sigmas, index.sigmas)
        assert loaded.fingerprint == index.fingerprint
        assert loaded.config.kind == index.config.kind
        assert loaded.config.pruning == index.config.pruning

    def test_load_rejects_different_graph(self, tmp_path, graph, index):
        path = tmp_path / "sig.npz"
        index.save(path)
        other = gnm_random_graph(80, 301, seed=14)
        with pytest.raises(ConfigError, match="different graph"):
            EdgeSimilarityIndex.load(path, other)

    def test_load_rejects_semantic_mismatch(self, tmp_path, graph, index):
        path = tmp_path / "sig.npz"
        index.save(path)
        with pytest.raises(ConfigError, match="semantics mismatch"):
            EdgeSimilarityIndex.load(
                path,
                graph,
                config=SimilarityConfig(kind="jaccard", pruning=False),
            )

    def test_pruning_flag_is_not_semantic(self, tmp_path, graph, index):
        path = tmp_path / "sig.npz"
        index.save(path)
        loaded = EdgeSimilarityIndex.load(
            path, graph, config=SimilarityConfig(pruning=False)
        )
        np.testing.assert_array_equal(loaded.sigmas, index.sigmas)

    def test_fingerprint_tracks_weights(self, graph):
        reweighted = GraphBuilder(graph.num_vertices)
        for u, v, w in graph.edges():
            reweighted.add_edge(int(u), int(v), weight=w + 0.5)
        assert graph_fingerprint(graph) != graph_fingerprint(
            reweighted.build()
        )


class TestIndexedOracle:
    def test_scan_parity_and_zero_evaluations(self, graph, index):
        oracle = IndexedOracle(index)
        ref = scan(graph, 3, 0.5, seed=0)
        got = scan(graph, 3, 0.5, oracle=oracle, seed=0)
        np.testing.assert_array_equal(ref.labels, got.labels)
        np.testing.assert_array_equal(ref.roles, got.roles)
        assert oracle.counters.sigma_evaluations == 0
        assert oracle.counters.work_units == 0.0
        assert oracle.index_lookups > 0
        assert oracle.index_misses == 0

    def test_non_edge_pairs_fall_back_to_kernels(self, graph, index):
        oracle = IndexedOracle(index)
        reference = SimilarityOracle(graph, SimilarityConfig())
        nb = set(graph.neighbors(0).tolist())
        non_edge = next(
            q for q in range(1, graph.num_vertices) if q not in nb
        )
        assert oracle.sigma(0, non_edge) == pytest.approx(
            reference.sigma_unrecorded(0, non_edge), abs=1e-12
        )
        assert oracle.index_misses == 1

    def test_sigma_batch_mixes_hits_and_misses(self, graph, index):
        oracle = IndexedOracle(index)
        reference = SimilarityOracle(graph, SimilarityConfig())
        nb = graph.neighbors(0)
        non_edges = [
            q
            for q in range(graph.num_vertices)
            if q != 0 and q not in set(nb.tolist())
        ][:4]
        qs = np.concatenate([nb, np.asarray(non_edges, dtype=np.int64)])
        values = oracle.sigma_batch(0, qs)
        for q, value in zip(qs, values):
            assert value == pytest.approx(
                reference.sigma_unrecorded(0, int(q)), abs=1e-12
            )
        assert oracle.index_misses == len(non_edges)

    def test_mismatched_graph_rejected(self, index):
        other = gnm_random_graph(80, 301, seed=15)
        with pytest.raises(ConfigError, match="different graph"):
            IndexedOracle(index, graph=other)

    def test_mismatched_config_rejected(self, index):
        with pytest.raises(ConfigError, match="semantics mismatch"):
            IndexedOracle(
                index, config=SimilarityConfig(closed=False, pruning=False)
            )


class TestExplorerAdoption:
    def test_explorer_from_index_matches_fresh(self, graph, index):
        fresh = ParameterExplorer(graph)
        adopted = ParameterExplorer(graph, index=ClusteringIndex(index))
        np.testing.assert_allclose(
            adopted.sigma_values(), fresh.sigma_values(), atol=1e-12
        )
        for mu, eps in [(2, 0.3), (3, 0.5)]:
            ref = fresh.clustering_at(mu, eps)
            got = adopted.clustering_at(mu, eps)
            np.testing.assert_array_equal(ref.labels, got.labels)
        # Adoption skips the O(|E|) evaluation pass entirely.
        assert adopted.precompute_cost == 0.0
        assert fresh.precompute_cost > 0.0
