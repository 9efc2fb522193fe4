"""Tests for the real-threads backend (result parity, not speed)."""

import threading

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel import threads as threads_module
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


def _scalar_sigma_rows(graph, config):
    """σ of every directed CSR slot (u, v), one scalar call per slot."""
    oracle = SimilarityOracle(graph, config)
    return np.asarray(
        [
            oracle.sigma_unrecorded(u, int(v))
            for u in range(graph.num_vertices)
            for v in graph.neighbors(u)
        ]
    )


class TestBackend:
    def test_map_preserves_order(self):
        backend = ThreadBackend(threads=4, chunk_size=3)
        out = backend.map(lambda x: x * 2, list(range(100)))
        assert out == [x * 2 for x in range(100)]

    def test_single_thread_path(self):
        backend = ThreadBackend(threads=1)
        assert backend.map(str, [1, 2]) == ["1", "2"]

    def test_small_input_runs_inline(self):
        backend = ThreadBackend(threads=8, chunk_size=64)
        assert backend.map(lambda x: -x, [5]) == [-5]

    def test_exceptions_propagate(self):
        backend = ThreadBackend(threads=2, chunk_size=1)

        def boom(x):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            backend.map(boom, list(range(10)))

    def test_validation(self):
        with pytest.raises(SimulationError):
            ThreadBackend(threads=0).validate()
        with pytest.raises(SimulationError):
            ThreadBackend(threads=1, chunk_size=0).validate()


class TestParallelQueries:
    def test_range_queries_match_sequential(self, karate):
        oracle = SimilarityOracle(karate, SimilarityConfig())
        expected = [oracle.eps_neighborhood(v, 0.5) for v in range(34)]
        index = ClusteringIndex.build(
            karate, backend=ThreadBackend(threads=4, chunk_size=5)
        )
        for v, want in enumerate(expected):
            assert np.array_equal(index.eps_neighborhood(v, 0.5), want)

    def test_edge_similarities_match_sequential(self, karate):
        expected = _scalar_sigma_rows(karate, SimilarityConfig())
        parallel = ThreadBackend(threads=4, chunk_size=7).sigma_rows(karate)
        assert parallel.shape == karate.indices.shape
        assert np.allclose(expected, parallel)

    def test_custom_similarity_config(self, karate):
        open_mode = SimilarityConfig(closed=False, count_self=False)
        expected = _scalar_sigma_rows(karate, open_mode)
        parallel = ThreadBackend(threads=2, chunk_size=1).sigma_rows(
            karate, open_mode
        )
        assert np.allclose(expected, parallel)


class TestSigmaRowsFanOut:
    def test_small_graph_starts_a_pool(self, monkeypatch):
        """n = 300 at the default chunk_size is 5 row blocks: with two
        threads they run on one pool, off the calling thread, and the σ
        array is bitwise the sequential one."""
        graph = gnm_random_graph(300, 900, seed=4)
        expected = ThreadBackend(threads=1).sigma_rows(graph)
        pools = []
        callers = []

        class CountingPool(threads_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        block = SimilarityOracle.sigma_row_block

        def recording_block(oracle, lo, hi):
            callers.append(threading.get_ident())
            return block(oracle, lo, hi)

        monkeypatch.setattr(threads_module, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(SimilarityOracle, "sigma_row_block", recording_block)
        got = ThreadBackend(threads=2).sigma_rows(graph)
        assert len(pools) == 1
        assert len(callers) == 5
        assert threading.get_ident() not in callers
        assert got.tobytes() == expected.tobytes()


class TestChunkingEquivalence:
    """Every (threads, chunk_size) pair computes the sequential answer."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 64, 200])
    def test_matches_sequential_map(self, threads, chunk_size):
        items = list(range(97))
        expected = [x * x - 1 for x in items]
        backend = ThreadBackend(threads=threads, chunk_size=chunk_size)
        assert backend.map(lambda x: x * x - 1, items) == expected

    def test_order_preserved_under_uneven_work(self):
        import time

        def slow_for_early_items(x):
            if x < 4:
                time.sleep(0.01)
            return x

        backend = ThreadBackend(threads=4, chunk_size=1)
        items = list(range(32))
        assert backend.map(slow_for_early_items, items) == items

    def test_empty_input(self):
        assert ThreadBackend(threads=4, chunk_size=2).map(str, []) == []


class TestValidateErrorPaths:
    @pytest.mark.parametrize("threads", [0, -1, -8])
    def test_bad_thread_counts(self, threads):
        with pytest.raises(SimulationError, match="thread"):
            ThreadBackend(threads=threads).validate()

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_bad_chunk_sizes(self, chunk_size):
        with pytest.raises(SimulationError, match="chunk_size"):
            ThreadBackend(threads=2, chunk_size=chunk_size).validate()

    def test_map_validates_before_running(self):
        with pytest.raises(SimulationError):
            ThreadBackend(threads=0).map(str, [1, 2, 3])

    def test_valid_backend_passes(self):
        ThreadBackend(threads=1, chunk_size=1).validate()
