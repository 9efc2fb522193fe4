"""Concurrency stress: adversarial chunking of the σ-row workload.

The thread backend runs the σ-row pass with chunk sizes chosen to
maximize interleaving (1, primes, n) and must reassemble the sequential
σ array bitwise; the dynamic half of rule R1 — the
:class:`ShadowArray` race audit — must still fire on a deliberately
racy workload.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.runtime import ShadowArray, ShadowWriteLog
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.index import EdgeSimilarityIndex

N = 120

CHUNK_SIZES = [1, 7, 13, N, 127]  # 1, primes, whole-batch, prime > n
THREADS = [2, 4]


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(N, 480, seed=13)


@pytest.fixture(scope="module")
def expected_sigmas(graph):
    return EdgeSimilarityIndex.build(graph).sigmas


class TestThreadBackendUnderShadow:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_sigma_rows_lossless_under_any_chunking(
        self, graph, expected_sigmas, threads, chunk
    ):
        got = ThreadBackend(threads=threads, chunk_size=chunk).sigma_rows(
            graph
        )
        np.testing.assert_array_equal(got, expected_sigmas)

    def test_shadow_catches_a_seeded_race(self):
        """The checker itself must fire on a deliberately racy workload."""
        log = ShadowWriteLog()
        shadow = ShadowArray(np.zeros(4, dtype=np.int64), log, name="bad")

        def racy(i):
            value = shadow[0]
            time.sleep(0.001)  # force a GIL switch inside the RMW window
            shadow[0] = value + 1  # raw read-modify-write, no guard
            return i

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(racy, range(32)))
        distinct_writers = {r.thread_id for r in log.records}
        if len(distinct_writers) < 2:
            pytest.skip("scheduler never interleaved two threads")
        with pytest.raises(AssertionError, match="unguarded"):
            log.assert_race_free()
