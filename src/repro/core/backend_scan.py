"""Exact SCAN with the σ pass on real threads (Figure 4, executed for real).

The σ-evaluation phase dominates SCAN's runtime and is embarrassingly
parallel; everything after it (core test, cluster expansion, hub/outlier
split) is a cheap sequential epilogue.  This module runs that dominant
phase on a :class:`~repro.parallel.threads.ThreadBackend` — the numpy
kernels release the GIL, so the threads share the cores — as the σ pass
of a :class:`~repro.similarity.gsindex.ClusteringIndex` build, and
answers the (ε, μ) query from the index.  The index query reproduces
:func:`repro.baselines.scan.scan` byte for byte for a given ``seed``,
so the result is identical to the sequential reference regardless of
thread count or chunk size.  The cross-backend differential tests pin
this conformance contract.
"""

from __future__ import annotations

from repro.graph.csr import Graph
from repro.parallel.threads import ThreadBackend
from repro.result import Clustering
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig
from repro.validation import check_eps_mu

__all__ = ["parallel_scan"]


def parallel_scan(
    graph: Graph,
    mu: int,
    epsilon: float,
    *,
    backend: ThreadBackend | None = None,
    config: SimilarityConfig | None = None,
    seed: int = 0,
) -> Clustering:
    """Cluster ``graph`` with SCAN, σ phase on a real thread pool.

    Parameters
    ----------
    graph, mu, epsilon:
        As for :func:`repro.baselines.scan.scan`.
    backend:
        The :class:`~repro.parallel.threads.ThreadBackend` that computes
        the σ pass; ``None`` runs the sequential batched kernel.
    config:
        Similarity semantics (defaults match the sequential reference).
    seed:
        Vertex-visit order; the same seed makes the result byte-identical
        to ``scan(graph, mu, epsilon, seed=seed)``.

    To answer several (ε, μ) queries on one graph, build the
    :class:`~repro.similarity.gsindex.ClusteringIndex` once and call its
    ``query`` — each further answer then costs zero σ evaluations.
    """
    check_eps_mu(mu=mu, epsilon=epsilon)
    index = ClusteringIndex.build(
        graph,
        config or SimilarityConfig(pruning=False),
        backend=backend,
    )
    return index.query(epsilon, mu, seed=seed)
