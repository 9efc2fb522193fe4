"""Exact SCAN on a real execution backend (Figure 4, executed for real).

The σ-evaluation phase dominates SCAN's runtime and is embarrassingly
parallel; everything after it (core test, cluster expansion, hub/outlier
split) is a cheap sequential epilogue.  This module runs that dominant
phase on a registry backend — real threads or a shared-memory process
pool — as the σ pass of a
:class:`~repro.similarity.gsindex.ClusteringIndex` build, and answers
the (ε, μ) query from the index.  The index query reproduces
:func:`repro.baselines.scan.scan` byte for byte for a given ``seed``,
so the result is identical to the sequential reference regardless of
worker count, chunk size, or backend kind.  The cross-backend
differential tests pin this conformance contract.
"""

from __future__ import annotations

from repro.graph.csr import Graph
from repro.parallel.backends import Backend
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
    backend: Backend | str = "auto",
    workers: int | None = None,
    config: SimilarityConfig | None = None,
    seed: int = 0,
) -> Clustering:
    """Cluster ``graph`` with SCAN, σ phase on a real parallel backend.

    Parameters
    ----------
    graph, mu, epsilon:
        As for :func:`repro.baselines.scan.scan`.
    backend:
        A registry name (``"thread" | "process" | "auto"``) or an
        already-built backend object.  A backend built here is also
        closed here; a caller-supplied object stays open for reuse.
    workers:
        Pool width when ``backend`` is a registry name.
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
        workers=workers,
    )
    return index.query(epsilon, mu, seed=seed)
