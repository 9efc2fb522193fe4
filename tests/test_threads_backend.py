"""Tests for the real-threads backend: result parity and pool use."""

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


@pytest.fixture
def pools(monkeypatch):
    """The thread pools ``sigma_rows`` constructs during the test."""
    created = []

    class CountingPool(threads_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threads_module, "ThreadPoolExecutor", CountingPool)
    return created


class TestBackend:
    """``sigma_rows`` is an order-preserving map of the σ kernel over
    row blocks, with inline paths where a pool cannot help."""

    def test_sigma_rows_preserve_slot_order(self):
        # 34 blocks of 3 rows on 4 threads: σ still lands in CSR slot
        # order, checked against one scalar σ call per slot.
        graph = gnm_random_graph(100, 400, seed=2)
        got = ThreadBackend(threads=4, chunk_size=3).sigma_rows(graph)
        assert np.allclose(got, _scalar_sigma_rows(graph, SimilarityConfig()))

    def test_single_thread_path(self, karate, pools):
        got = ThreadBackend(threads=1, chunk_size=1).sigma_rows(karate)
        assert pools == []
        assert np.allclose(got, _scalar_sigma_rows(karate, SimilarityConfig()))

    def test_small_input_runs_inline(self, karate, pools):
        # 34 vertices are one row block at the default chunk_size.
        got = ThreadBackend(threads=8).sigma_rows(karate)
        assert pools == []
        assert np.allclose(got, _scalar_sigma_rows(karate, SimilarityConfig()))

    def test_exceptions_propagate(self, karate, monkeypatch):
        def boom(oracle, lo, hi):
            raise ValueError("boom")

        monkeypatch.setattr(SimilarityOracle, "sigma_row_block", boom)
        with pytest.raises(ValueError):
            ThreadBackend(threads=2, chunk_size=1).sigma_rows(karate)

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
    def test_small_graph_starts_a_pool(self, monkeypatch, pools):
        """n = 300 at the default chunk_size (128) is 3 row blocks: with
        two threads they run on one pool, off the calling thread, and
        the σ array is bitwise the sequential one."""
        graph = gnm_random_graph(300, 900, seed=4)
        expected = ThreadBackend(threads=1).sigma_rows(graph)
        callers = []
        block = SimilarityOracle.sigma_row_block

        def recording_block(oracle, lo, hi):
            callers.append(threading.get_ident())
            return block(oracle, lo, hi)

        monkeypatch.setattr(SimilarityOracle, "sigma_row_block", recording_block)
        got = ThreadBackend(threads=2).sigma_rows(graph)
        assert len(pools) == 1
        assert len(callers) == 3
        assert threading.get_ident() not in callers
        assert got.tobytes() == expected.tobytes()


#: Jaccard σ on open neighborhoods: a kernel path the default-config
#: chunking test in ``test_concurrency_stress.py`` does not cover.
_OPEN_JACCARD = SimilarityConfig(
    kind="jaccard", closed=False, count_self=False, pruning=False
)


@pytest.fixture(scope="module")
def chunk_graph():
    return gnm_random_graph(97, 400, seed=9)


class TestChunkingEquivalence:
    """Every (threads, chunk_size) pair computes the sequential answer."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 64, 200])
    def test_matches_sequential_map(self, chunk_graph, threads, chunk_size):
        expected = ThreadBackend(threads=1, chunk_size=97).sigma_rows(
            chunk_graph, _OPEN_JACCARD
        )
        backend = ThreadBackend(threads=threads, chunk_size=chunk_size)
        got = backend.sigma_rows(chunk_graph, _OPEN_JACCARD)
        assert got.tobytes() == expected.tobytes()

    def test_order_preserved_under_uneven_work(self, monkeypatch):
        import time

        graph = gnm_random_graph(32, 90, seed=5)
        expected = ThreadBackend(threads=1).sigma_rows(graph)
        block = SimilarityOracle.sigma_row_block

        def slow_for_early_blocks(oracle, lo, hi):
            if lo < 4:
                time.sleep(0.01)
            return block(oracle, lo, hi)

        monkeypatch.setattr(
            SimilarityOracle, "sigma_row_block", slow_for_early_blocks
        )
        got = ThreadBackend(threads=4, chunk_size=1).sigma_rows(graph)
        assert got.tobytes() == expected.tobytes()

    def test_empty_input(self):
        got = ThreadBackend(threads=4, chunk_size=2).sigma_rows(
            gnm_random_graph(5, 0)
        )
        assert got.dtype == np.float64 and got.shape == (0,)


class TestValidateErrorPaths:
    @pytest.mark.parametrize("threads", [0, -1, -8])
    def test_bad_thread_counts(self, threads):
        with pytest.raises(SimulationError, match="thread"):
            ThreadBackend(threads=threads).validate()

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_bad_chunk_sizes(self, chunk_size):
        with pytest.raises(SimulationError, match="chunk_size"):
            ThreadBackend(threads=2, chunk_size=chunk_size).validate()

    def test_map_validates_before_running(self, karate, monkeypatch):
        calls = []
        monkeypatch.setattr(
            SimilarityOracle,
            "sigma_row_block",
            lambda oracle, lo, hi: calls.append((lo, hi)),
        )
        with pytest.raises(SimulationError):
            ThreadBackend(threads=0).sigma_rows(karate)
        assert calls == []

    def test_valid_backend_passes(self):
        ThreadBackend(threads=1, chunk_size=1).validate()
