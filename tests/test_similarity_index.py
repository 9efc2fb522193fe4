"""EdgeSimilarityIndex: build parity, persistence, and guarded reuse.

The σ array is queried through the :class:`ClusteringIndex` built on
it; its own query behaviour is pinned in ``test_gsindex.py`` and the
index differential battery.
"""

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.core.explorer import ParameterExplorer
from repro.errors import ConfigError
from repro.graph.builder import GraphBuilder
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex, graph_fingerprint
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
        indptr = graph.indptr
        for p in range(graph.num_vertices):
            row = index.sigmas[indptr[p] : indptr[p + 1]]
            for slot, q in enumerate(graph.neighbors(p)):
                assert row[slot] == oracle.sigma_unrecorded(p, int(q))

    @pytest.mark.parametrize("kind", ["jaccard", "dice", "overlap"])
    def test_set_kinds(self, graph, kind):
        config = SimilarityConfig(kind=kind, pruning=False)
        built = EdgeSimilarityIndex.build(graph, config)
        oracle = SimilarityOracle(graph, config)
        us, vs, sigmas = built.forward_edges()
        for u, v, s in zip(us[:50], vs[:50], sigmas[:50]):
            assert s == oracle.sigma_unrecorded(int(u), int(v))

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
        assert ClusteringIndex(built).eps_neighborhood(0, 0.5).shape == (0,)

    def test_wrong_sigma_shape_rejected(self, graph):
        with pytest.raises(ConfigError):
            EdgeSimilarityIndex(
                graph, SimilarityConfig(), np.zeros(3, dtype=np.float64)
            )


class TestQueries:
    def test_eps_neighborhood_matches_oracle(self, graph, index):
        adopted = ClusteringIndex(index)
        oracle = SimilarityOracle(graph, SimilarityConfig())
        for eps in (0.2, 0.5, 0.8):
            for p in range(0, graph.num_vertices, 7):
                np.testing.assert_array_equal(
                    adopted.eps_neighborhood(p, eps),
                    oracle.eps_neighborhood(p, eps),
                )


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


class TestAdoptedIndex:
    """A ClusteringIndex over a prebuilt σ array answers for exactly
    the graph and semantics that array was built for."""

    def test_scan_parity_and_zero_evaluations(self, graph, index):
        adopted = ClusteringIndex(index)
        ref = scan(graph, 3, 0.5, seed=0)
        got = adopted.query(0.5, 3, seed=0)
        np.testing.assert_array_equal(ref.labels, got.labels)
        np.testing.assert_array_equal(ref.roles, got.roles)
        assert adopted.last_query["sigma_evaluations"] == 0

    def test_mismatched_graph_rejected(self, index):
        other = gnm_random_graph(80, 301, seed=15)
        adopted = ClusteringIndex(index)
        with pytest.raises(ConfigError, match="different graph"):
            adopted.require_compatible(graph=other)

    def test_mismatched_config_rejected(self, graph, index):
        adopted = ClusteringIndex(index)
        config = SimilarityConfig(closed=False, pruning=False)
        with pytest.raises(ConfigError, match="semantics mismatch"):
            adopted.require_compatible(config=config)


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
