"""The shared-memory process backend: parity, lifecycle, fallback."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph.csr import Graph
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel import processes as procmod
from repro.parallel.processes import (
    ProcessBackend,
    SharedGraph,
    shared_memory_available,
)
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable on this machine",
)

EPS = 0.4


@pytest.fixture(scope="module")
def medium():
    return gnm_random_graph(150, 450, seed=3)


@pytest.fixture(scope="module")
def pool(medium):
    """One pool reused across the module (spin-up is the slow part)."""
    with ProcessBackend(workers=2, chunk_size=16) as backend:
        # Warm the session once so individual tests stay fast.
        backend.sigma_rows(medium)
        yield backend


@pytest.fixture(scope="module")
def want_sigmas(medium):
    """The in-process σ array every backend must reproduce bitwise."""
    return EdgeSimilarityIndex.build(medium).sigmas


class TestSharedGraph:
    def test_publishes_all_arrays(self, medium):
        with SharedGraph(medium) as shared:
            labels = [label for label, _ in shared.handle.specs]
            assert labels == list(procmod._ARRAY_LABELS)

    def test_segments_match_source_arrays(self, medium):
        shared = SharedGraph(medium)
        try:
            specs = dict(shared.handle.specs)
            assert specs["indptr"].shape == medium.indptr.shape
            assert specs["indices"].shape == medium.indices.shape
        finally:
            shared.close()

    def test_close_is_idempotent(self, medium):
        shared = SharedGraph(medium)
        assert not shared.closed
        shared.close()
        assert shared.closed
        shared.close()  # second close must not raise

    def test_edgeless_graph_roundtrip(self):
        empty = Graph.from_edges(4, [])
        with SharedGraph(empty) as shared:
            assert len(shared.handle.specs) == len(procmod._ARRAY_LABELS)

    def test_worker_reconstruction_matches_owner(self, medium):
        """_worker_init rebuilds an oracle identical to a fresh one."""
        with SharedGraph(medium) as shared:
            procmod._worker_init(shared.handle)
            try:
                rebuilt = procmod._WORKER_STATE["oracle"]
                fresh = SimilarityOracle(medium, SimilarityConfig())
                for v in range(0, medium.num_vertices, 17):
                    np.testing.assert_array_equal(
                        rebuilt.eps_neighborhood(v, EPS),
                        fresh.eps_neighborhood(v, EPS),
                    )
            finally:
                procmod._WORKER_STATE = None


class TestParity:
    def test_range_queries_match_threads(self, medium, pool):
        """ε-neighborhoods read from a pool-built index equal those of a
        thread-built index and the sequential oracle's range queries."""
        from_pool = ClusteringIndex.build(medium, backend=pool)
        from_threads = ClusteringIndex.build(
            medium, backend=ThreadBackend(threads=2, chunk_size=7)
        )
        oracle = SimilarityOracle(medium, SimilarityConfig())
        for v in range(medium.num_vertices):
            want = oracle.eps_neighborhood(v, EPS)
            np.testing.assert_array_equal(
                from_pool.eps_neighborhood(v, EPS), want
            )
            np.testing.assert_array_equal(
                from_threads.eps_neighborhood(v, EPS), want
            )

    def test_edge_similarities_match_threads(self, medium, pool, want_sigmas):
        got = pool.sigma_rows(medium)
        threaded = ThreadBackend(threads=2, chunk_size=7).sigma_rows(medium)
        np.testing.assert_array_equal(got, want_sigmas)
        np.testing.assert_array_equal(threaded, want_sigmas)

    def test_empty_batches(self, pool):
        empty = Graph.from_edges(4, [])
        assert pool.sigma_rows(empty).shape == (0,)


class TestLifecycle:
    def test_session_reused_for_same_graph(self, medium, pool):
        pool.sigma_rows(medium)
        executor = pool._executor
        pool.sigma_rows(medium)
        assert pool._executor is executor

    def test_close_then_reuse_respins(self, medium):
        backend = ProcessBackend(workers=2, chunk_size=8)
        first = backend.sigma_rows(medium)
        backend.close()
        assert backend._executor is None
        second = backend.sigma_rows(medium)
        backend.close()
        np.testing.assert_array_equal(first, second)

    def test_context_manager_unlinks_segments(self, medium):
        with ProcessBackend(workers=2) as backend:
            backend.sigma_rows(medium)
            shared = backend._shared
            assert shared is not None and not shared.closed
        assert shared.closed

    def test_validate_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            ProcessBackend(workers=0).validate()
        with pytest.raises(SimulationError):
            ProcessBackend(chunk_size=0).validate()

    def test_kind_is_process_without_fallback(self, pool):
        assert pool.kind == "process"


class TestFallback:
    def test_shared_memory_failure_forces_thread_fallback(
        self, medium, want_sigmas, no_shared_memory
    ):
        assert not shared_memory_available()
        with ProcessBackend(workers=2) as backend:
            got = backend.sigma_rows(medium)
            assert backend.kind == "thread"
        np.testing.assert_array_equal(got, want_sigmas)

    def test_allow_fallback_false_raises(self, medium, no_shared_memory):
        backend = ProcessBackend(workers=2, allow_fallback=False)
        with pytest.raises(SimulationError, match="fallback"):
            backend.sigma_rows(medium)
