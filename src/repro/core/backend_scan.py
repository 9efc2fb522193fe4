"""Exact SCAN on a real execution backend (Figure 4, executed for real).

The σ-evaluation / range-query phase dominates SCAN's runtime and is
embarrassingly parallel; everything after it (core test, cluster
expansion, hub/outlier split) is a cheap sequential epilogue.  This
module runs that dominant phase on a registry backend — real threads or
a shared-memory process pool — and then replays exactly the cluster
expansion of :func:`repro.baselines.scan.scan`, so for a given ``seed``
the result is **byte-identical** to the sequential reference regardless
of worker count, chunk size, or backend kind.  The cross-backend
differential tests pin this conformance contract.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.baselines._postprocess import finalize_clustering
from repro.graph.csr import Graph
from repro.parallel.backends import (
    Backend,
    close_backend,
    create_backend,
    run_range_queries,
)
from repro.result import Clustering
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig
from repro.validation import check_eps_mu

__all__ = ["parallel_scan"]


def _expand_clusters(
    hoods: Sequence[np.ndarray],
    core_mask: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Replay scan()'s BFS expansion over precomputed neighborhoods.

    Mirrors the reference loop statement for statement (same RNG, same
    first-cluster-wins rule for shared borders), so the labels match the
    sequential algorithm exactly — not merely up to renaming.
    """
    n = core_mask.shape[0]
    labels = np.full(n, -3, dtype=np.int64)  # -3: not yet classified
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    next_cluster = 0
    for start in order:
        start = int(start)
        if labels[start] != -3:
            continue
        if not core_mask[start]:
            labels[start] = -4  # provisional non-member
            continue
        cid = next_cluster
        next_cluster += 1
        labels[start] = cid
        queue = deque([start])
        while queue:
            v = queue.popleft()
            if not core_mask[v]:
                continue
            labels[v] = cid
            for q in hoods[v]:
                q = int(q)
                if labels[q] == -3 or labels[q] == -4:
                    labels[q] = cid
                    queue.append(q)
    labels[labels == -3] = -4
    return labels


def parallel_scan(
    graph: Graph,
    mu: int,
    epsilon: float,
    *,
    backend: Backend | str = "auto",
    workers: int | None = None,
    config: SimilarityConfig | None = None,
    seed: int = 0,
    index: ClusteringIndex | None = None,
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
    index:
        A prebuilt :class:`~repro.similarity.gsindex.ClusteringIndex`;
        when given, the query is answered entirely from it — zero σ
        evaluations, no backend traffic, a union-find extraction in
        place of the BFS — still byte-identical to the sequential
        reference.  This is the interactive re-clustering path.  Raises
        :class:`~repro.errors.ConfigError` when the index does not match
        ``graph`` or ``config``.
    """
    check_eps_mu(mu=mu, epsilon=epsilon)
    config = config or SimilarityConfig(pruning=False)
    if index is not None:
        index.require_compatible(graph=graph, config=config)
        return index.query(epsilon, mu, seed=seed)
    owned = isinstance(backend, str)
    resolved: Backend = (
        create_backend(backend, workers=workers) if owned else backend
    )
    try:
        hoods = run_range_queries(
            graph,
            range(graph.num_vertices),
            epsilon,
            backend=resolved,
            config=config,
        )
    finally:
        if owned:
            close_backend(resolved)
    self_count = 1 if config.count_self else 0
    sizes = np.asarray([h.shape[0] for h in hoods], dtype=np.int64)
    core_mask = sizes + self_count >= mu
    labels = _expand_clusters(hoods, core_mask, seed)
    return finalize_clustering(graph, labels, core_mask)
