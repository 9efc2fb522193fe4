"""Cross-backend differential battery: one clustering, every execution.

The conformance contract: sequential ``scan`` and ``parallel_scan`` on
the thread backend — at every block geometry (one-row blocks, odd
blocks, one block larger than n) — must produce **byte-identical**
labels and roles for the same seed, on every graph family (R-MAT
included), every (ε, μ) cell of the grid, and every σ kind in closed
and open mode; the σ array of a thread-built index is bitwise the
sequential kernel's.  AnySCAN
is held to the paper's own equivalence (Lemma 4): identical member sets,
identical core partition, valid border attachments — shared borders may
legitimately land in a different cluster.
"""

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.core import AnySCAN, AnyScanConfig
from repro.core.backend_scan import parallel_scan
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.random_graphs import (
    gnm_random_graph,
    planted_partition_graph,
)
from repro.graph.generators.rmat import rmat_graph
from repro.metrics.comparison import explain_difference
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

GRID = [(0.3, 2), (0.5, 3), (0.7, 4)]  # (epsilon, mu)
KINDS = ["cosine", "jaccard", "dice", "overlap"]


def _lfr():
    graph, _ = lfr_graph(
        LFRParams(n=200, average_degree=8, max_degree=24, mixing=0.2, seed=9)
    )
    return graph


GRAPHS = {
    "gnm": lambda: gnm_random_graph(150, 450, seed=21),
    "planted": lambda: planted_partition_graph(
        [40, 40, 40], 0.30, 0.02, seed=22
    ),
    "lfr": _lfr,
    "rmat": lambda: rmat_graph(8, 6, seed=1),
}

#: Block geometries: one-row blocks, odd blocks, one block > n.
GEOMETRIES = [
    ThreadBackend(threads=2, chunk_size=1),
    ThreadBackend(threads=3, chunk_size=13),
    ThreadBackend(threads=2, chunk_size=10_000),
]


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def family(request):
    return request.param, GRAPHS[request.param]()


class TestByteIdenticalExecutions:
    @pytest.mark.parametrize("eps,mu", GRID)
    def test_thread_matches_sequential(self, family, eps, mu):
        _, graph = family
        ref = scan(graph, mu, eps, seed=0)
        got = parallel_scan(
            graph,
            mu,
            eps,
            backend=ThreadBackend(threads=3, chunk_size=13),
            seed=0,
        )
        np.testing.assert_array_equal(ref.labels, got.labels)
        np.testing.assert_array_equal(ref.roles, got.roles)

    def test_identity_holds_across_seeds(self, family):
        _, graph = family
        for seed in (1, 7):
            ref = scan(graph, 3, 0.5, seed=seed)
            for backend in GEOMETRIES:
                got = parallel_scan(
                    graph, 3, 0.5, backend=backend, seed=seed
                )
                np.testing.assert_array_equal(ref.labels, got.labels)
                np.testing.assert_array_equal(ref.roles, got.roles)

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_sigma_kind_matches_sequential(self, family, kind, closed):
        _, graph = family
        config = SimilarityConfig(kind=kind, closed=closed, pruning=False)
        for eps, mu in GRID:
            ref = scan(graph, mu, eps, similarity_config=config, seed=0)
            for backend in GEOMETRIES:
                got = parallel_scan(
                    graph, mu, eps, backend=backend, config=config, seed=0
                )
                np.testing.assert_array_equal(ref.labels, got.labels)
                np.testing.assert_array_equal(ref.roles, got.roles)

    def test_worker_and_chunk_counts_are_invisible(self, family):
        """Same labels whatever the pool geometry."""
        _, graph = family
        ref = scan(graph, 3, 0.5, seed=0)
        for threads, chunk in [(1, 1), (2, 7), (4, graph.num_vertices)]:
            got = parallel_scan(
                graph,
                3,
                0.5,
                backend=ThreadBackend(threads=threads, chunk_size=chunk),
                seed=0,
            )
            np.testing.assert_array_equal(ref.labels, got.labels)


class _ScalarReferenceOracle(SimilarityOracle):
    """The pre-kernel per-pair ε-neighborhood loop, kept as a reference."""

    def eps_neighborhood(self, p, epsilon):
        neighbors = self.graph.neighbors(int(p))
        passing = [
            int(q)
            for q in neighbors
            if self.sigma_unrecorded(int(p), int(q)) >= epsilon
        ]
        return np.asarray(passing, dtype=np.int64)


class TestIndexedExecutions:
    """The batched kernels and the σ index leave results byte-identical."""

    @pytest.mark.parametrize("eps,mu", GRID)
    def test_batched_oracle_matches_scalar_loop(self, family, eps, mu):
        _, graph = family
        ref = scan(
            graph,
            mu,
            eps,
            oracle=_ScalarReferenceOracle(
                graph, SimilarityConfig(pruning=False)
            ),
            seed=0,
        )
        got = scan(graph, mu, eps, seed=0)
        np.testing.assert_array_equal(ref.labels, got.labels)
        np.testing.assert_array_equal(ref.roles, got.roles)

    @pytest.mark.parametrize("eps,mu", GRID)
    def test_indexed_scan_matches_sequential(self, family, eps, mu):
        _, graph = family
        index = ClusteringIndex.build(graph, SimilarityConfig(pruning=False))
        ref = scan(graph, mu, eps, seed=0)
        got = index.query(eps, mu, seed=0)
        np.testing.assert_array_equal(ref.labels, got.labels)
        np.testing.assert_array_equal(ref.roles, got.roles)

    @pytest.mark.parametrize("eps,mu", GRID)
    def test_parallel_scan_with_index_matches_sequential(
        self, family, eps, mu
    ):
        """parallel_scan is an index build plus one query: it answers
        like a prebuilt index, including μ above the default cap."""
        _, graph = family
        index = ClusteringIndex.build(graph, SimilarityConfig(pruning=False))
        backend = ThreadBackend(threads=2, chunk_size=9)
        for query_mu in (mu, mu + 16):
            ref = scan(graph, query_mu, eps, seed=0)
            for got in (
                index.query(eps, query_mu, seed=0),
                parallel_scan(graph, query_mu, eps, backend=backend, seed=0),
            ):
                np.testing.assert_array_equal(ref.labels, got.labels)
                np.testing.assert_array_equal(ref.roles, got.roles)

    def test_index_builds_are_bitwise_identical_across_backends(
        self, family
    ):
        _, graph = family
        for kind in KINDS:
            for closed in (True, False):
                config = SimilarityConfig(
                    kind=kind, closed=closed, pruning=False
                )
                inproc = EdgeSimilarityIndex.build(graph, config).sigmas
                for backend in GEOMETRIES:
                    threaded = EdgeSimilarityIndex.build(
                        graph, config, backend=backend
                    ).sigmas
                    assert threaded.tobytes() == inproc.tobytes()

    def test_indexed_requery_performs_no_sigma_evaluations(self, family):
        _, graph = family
        index = ClusteringIndex.build(graph, SimilarityConfig(pruning=False))
        lookups = 0
        for eps, mu in GRID:
            index.query(eps, mu, seed=0)
            lookups += index.last_query["index_lookups"]
        assert index.counters.sigma_evaluations == 0
        assert index.counters.work_units == 0.0
        assert lookups > 0


class TestAnyScanEquivalence:
    @pytest.mark.parametrize("eps,mu", GRID)
    def test_anyscan_is_scan_equivalent(self, family, eps, mu):
        _, graph = family
        ref = scan(graph, mu, eps, seed=0)
        block = max(graph.num_vertices // 6, 16)
        result = AnySCAN(
            graph,
            AnyScanConfig(mu=mu, epsilon=eps, alpha=block, beta=block),
        ).run()
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        problems = explain_difference(graph, oracle, ref, result, mu, eps)
        assert problems == [], "\n".join(problems)
        # Member/noise sets are order-independent and must agree exactly.
        # anySCAN may *under-report* cores it never had to range-query
        # (a claimed border skips the check), so its core set is a sound
        # subset of SCAN's exact one, never a superset.
        assert set(ref.unclustered.tolist()) == set(
            result.unclustered.tolist()
        )
        assert set(result.cores().tolist()) <= set(ref.cores().tolist())
