"""Exactness checking between SCAN-family clusterings.

Lemma 4 of the paper claims anySCAN's final result is identical to
SCAN's, with the caveat that "a shared-border vertex may be assigned to
different clusters according to the examining order of vertices".  The
canonical equivalence is therefore:

1. the *member sets* (vertices belonging to any cluster) are equal;
2. the partitions restricted to *true cores* (per the similarity oracle)
   are identical;
3. every non-core member is attached to a cluster that contains a true
   core it is ε-similar and adjacent to (a *valid* border assignment).

:func:`equivalent_clusterings` checks all three; the test suite applies
it to every algorithm pair on randomized graphs.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.graph.csr import Graph
from repro.result import Clustering
from repro.similarity import kernels
from repro.similarity.weighted import SimilarityOracle

__all__ = ["true_core_mask", "equivalent_clusterings", "explain_difference"]


def true_core_mask(
    graph: Graph,
    oracle: SimilarityOracle,
    mu: int,
    epsilon: float,
) -> np.ndarray:
    """Ground-truth core indicator from σ of every edge.

    One batched kernel pass, bitwise the σ the per-pair oracle computes;
    it leaves the oracle's counters alone so they stay meaningful for
    the algorithm under test.
    """
    cfg = oracle.config
    sigmas = kernels.sigma_all_edges(
        graph.indptr, graph.indices, graph.weights,
        kind=cfg.kind, closed=cfg.closed, self_weight=cfg.self_weight,
        lengths=oracle.lengths, linear_sums=oracle.linear_sums,
    )
    n = graph.num_vertices
    owners = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    similar = np.bincount(owners[sigmas >= epsilon], minlength=n)
    return similar + (1 if cfg.count_self else 0) >= mu


def _core_partition(
    labels: np.ndarray, core_mask: np.ndarray
) -> Set[frozenset]:
    parts: Dict[int, set] = {}
    for v in np.flatnonzero(core_mask):
        lbl = int(labels[int(v)])
        if lbl >= 0:
            parts.setdefault(lbl, set()).add(int(v))
    return {frozenset(s) for s in parts.values()}


def _invalid_borders(
    graph: Graph,
    oracle: SimilarityOracle,
    labels: np.ndarray,
    core_mask: np.ndarray,
    epsilon: float,
) -> List[int]:
    bad: List[int] = []
    for v in np.flatnonzero(labels >= 0):
        v = int(v)
        if core_mask[v]:
            continue
        cluster = int(labels[v])
        attached = False
        for q in graph.neighbors(v):
            q = int(q)
            if (
                core_mask[q]
                and int(labels[q]) == cluster
                and oracle.sigma_unrecorded(v, q) >= epsilon
            ):
                attached = True
                break
        if not attached:
            bad.append(v)
    return bad


def equivalent_clusterings(
    graph: Graph,
    oracle: SimilarityOracle,
    result_a: Clustering,
    result_b: Clustering,
    mu: int,
    epsilon: float,
) -> bool:
    """Whether two results are SCAN-equivalent (see module docstring)."""
    return not explain_difference(
        graph, oracle, result_a, result_b, mu, epsilon
    )


def explain_difference(
    graph: Graph,
    oracle: SimilarityOracle,
    result_a: Clustering,
    result_b: Clustering,
    mu: int,
    epsilon: float,
) -> List[str]:
    """Human-readable list of equivalence violations (empty = equivalent)."""
    problems: List[str] = []
    cores = true_core_mask(graph, oracle, mu, epsilon)

    members_a = set(int(v) for v in result_a.clustered_vertices)
    members_b = set(int(v) for v in result_b.clustered_vertices)
    if members_a != members_b:
        only_a = sorted(members_a - members_b)[:5]
        only_b = sorted(members_b - members_a)[:5]
        problems.append(
            f"member sets differ (A-only sample {only_a}, B-only {only_b})"
        )

    part_a = _core_partition(result_a.labels, cores)
    part_b = _core_partition(result_b.labels, cores)
    if part_a != part_b:
        problems.append(
            f"core partitions differ ({len(part_a)} vs {len(part_b)} parts)"
        )

    for name, result in (("A", result_a), ("B", result_b)):
        bad = _invalid_borders(graph, oracle, result.labels, cores, epsilon)
        if bad:
            problems.append(
                f"result {name} has invalid border attachments: {bad[:5]}"
            )
    return problems
