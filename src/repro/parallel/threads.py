"""Real-thread execution backend (GIL-bound; see DESIGN.md §3).

This backend runs the embarrassingly parallel phase of the SCAN
workload — σ for every edge, in vertex-range row blocks — on a genuine
:class:`~concurrent.futures.ThreadPoolExecutor`.  On CPython the GIL
serializes the bytecode, so **wall-clock speedups are not expected**;
the backend exists because

* it exercises the same block decomposition the simulator replays, so
  tests can check that the parallel decomposition computes *identical
  results* to the sequential code;
* on GIL-free builds (or if the numeric kernels ever move to C), the
  same API yields real speedups.

The simulated machine in :mod:`repro.parallel.simulator` remains the
instrument for the paper's scalability figures.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import Graph
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

__all__ = ["ThreadBackend"]


@dataclass(frozen=True)
class ThreadBackend:
    """A pool of real threads with OpenMP-flavored chunking.

    ``chunk_size`` mirrors ``schedule(dynamic, chunk)``: rows are
    handed to threads in blocks of ``chunk_size`` vertices, which bounds
    the queue overhead the same way OpenMP's dynamic scheduler does.
    """

    threads: int = 4
    chunk_size: int = 64

    def validate(self) -> None:
        if self.threads < 1:
            raise SimulationError("need at least one thread")
        if self.chunk_size < 1:
            raise SimulationError("chunk_size must be >= 1")

    def sigma_rows(
        self, graph: Graph, config: SimilarityConfig | None = None
    ) -> np.ndarray:
        """σ for **every** directed CSR edge, in vertex-range blocks.

        The σ phase of the index build
        (:class:`~repro.similarity.gsindex.ClusteringIndex`): blocks of
        ``chunk_size`` vertices are handed to the pool one per task, so
        any graph with two or more blocks fans out.  Each task runs the
        batched kernel over its contiguous vertex range, and because
        slot (u, v) is always computed by expanding v's row, the
        concatenation is bitwise-identical for every block decomposition.
        """
        self.validate()
        oracle = SimilarityOracle(graph, config or SimilarityConfig())
        if graph.indices.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        # Materialize the lazy probe structure before fanning out so worker
        # threads share one read-only array instead of racing to build it.
        oracle.edge_keys
        n = graph.num_vertices
        blocks = [
            (lo, min(lo + self.chunk_size, n))
            for lo in range(0, n, self.chunk_size)
        ]

        def block_sigmas(block: Tuple[int, int]) -> np.ndarray:
            return oracle.sigma_row_block(block[0], block[1])

        if self.threads == 1 or len(blocks) < 2:
            return np.concatenate([block_sigmas(block) for block in blocks])
        with ThreadPoolExecutor(
            max_workers=min(self.threads, len(blocks))
        ) as pool:
            return np.concatenate(list(pool.map(block_sigmas, blocks)))
