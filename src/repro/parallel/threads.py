"""Real-thread execution backend: the parallel σ pass (DESIGN.md §3).

This backend runs the embarrassingly parallel phase of the SCAN
workload — σ for every edge, in vertex-range row blocks — on a genuine
:class:`~concurrent.futures.ThreadPoolExecutor`, the shared-memory
model of the paper's OpenMP loops.  Each block is one call of the
batched numpy kernels, which release the GIL for most of their work,
so the threads share the cores: at two threads the σ pass runs
1.76× (R-MAT scale 15) to 1.95× (LFR n = 100k) faster than the
sequential kernel on a 2-vCPU host (DESIGN.md §3 has the table).
Because slot (u, v) is always computed by expanding v's row, every
block decomposition reassembles the sequential σ array bitwise.

The simulated machine in :mod:`repro.parallel.simulator` remains the
instrument for the paper's scalability figures beyond the host's cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

__all__ = ["ThreadBackend"]


@dataclass(frozen=True)
class ThreadBackend:
    """A pool of real threads with OpenMP-flavored chunking.

    ``chunk_size`` mirrors ``schedule(dynamic, chunk)``: rows are
    handed to threads in blocks of ``chunk_size`` vertices, which bounds
    the queue overhead the same way OpenMP's dynamic scheduler does.
    The default of 128 rows is within 8% of the fastest block size on
    both measured graphs at t = 1 and t = 2 — small blocks win on
    skewed degrees, large ones on even rows (DESIGN.md §3).
    ``threads`` defaults to the host's CPU count: more threads than
    cores only add switching (4 threads on 2 vCPUs run the σ pass of a
    G(n, m) 60k/240k graph in 0.118 s, 2 threads in 0.102 s).
    """

    threads: int = field(default_factory=lambda: os.cpu_count() or 1)
    chunk_size: int = 128

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
        batched kernel over its contiguous vertex range (the
        ``thread.block`` fault site), and because slot (u, v) is always
        computed by expanding v's row, the concatenation is
        bitwise-identical for every block decomposition.  An exception
        in any block propagates to the caller; no partial array is
        returned.
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
            fault_point("thread.block")
            return oracle.sigma_row_block(block[0], block[1])

        if self.threads == 1 or len(blocks) < 2:
            return np.concatenate([block_sigmas(block) for block in blocks])
        with ThreadPoolExecutor(
            max_workers=min(self.threads, len(blocks))
        ) as pool:
            return np.concatenate(list(pool.map(block_sigmas, blocks)))
