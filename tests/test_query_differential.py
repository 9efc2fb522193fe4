"""Whole-array query and post-processing ≡ per-vertex references.

:meth:`ClusteringIndex.query` finds clusters as whole-array connected
components (hook and pointer jumping) ranked by a scatter-min over the
seeded permutation, and :func:`finalize_clustering` classifies hubs with
a scatter-min/max and builds roles with one ``np.select``.  This battery
holds both to the per-vertex loops below, byte for byte (values and
dtypes):

* ``reference_query`` is sequential SCAN over the index's own σ array —
  per-vertex ε-neighborhoods, BFS expansion in seeded visit order,
  first-come borders;
* ``reference_finalize`` is the per-vertex hub/outlier scan and role
  loop.

Inputs cover the empty graph, isolated vertices, no cores, all cores,
seeds 0–3, the four σ kinds × closed/open, and weighted graphs.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.baselines._postprocess import finalize_clustering
from repro.graph.csr import Graph
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.result import HUB, OUTLIER, VertexRole
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig

_SEEDS = (0, 1, 2, 3)
# μ=1 makes every vertex a core (the self count alone suffices in
# closed mode); μ=40 leaves none on these graphs.
_GRID = (
    (0.3, 1), (0.1, 2), (0.15, 3), (0.2, 2), (0.25, 4), (0.5, 2), (0.6, 3),
    (0.4, 5), (0.9, 2), (0.5, 40),
)


def reference_finalize(graph, labels, core_mask):
    out = labels.copy()
    for v in np.flatnonzero(labels < 0).tolist():
        seen = {int(labels[q]) for q in graph.neighbors(v) if labels[q] >= 0}
        out[v] = HUB if len(seen) >= 2 else OUTLIER
    roles = np.empty(graph.num_vertices, dtype=np.int8)
    for v in range(graph.num_vertices):
        if core_mask[v]:
            roles[v] = VertexRole.CORE
        elif out[v] >= 0:
            roles[v] = VertexRole.BORDER
        elif out[v] == HUB:
            roles[v] = VertexRole.HUB
        else:
            roles[v] = VertexRole.OUTLIER
    return out, roles


def reference_query(index, epsilon, mu, seed):
    graph = index.graph
    sigmas = index.edge.sigmas
    n = graph.num_vertices
    self_count = 1 if index.config.count_self else 0
    hood = []
    for v in range(n):
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        hood.append(
            [int(q) for q, s in zip(graph.indices[lo:hi], sigmas[lo:hi])
             if s >= epsilon]
        )
    core = np.asarray(
        [len(h) + self_count >= mu for h in hood], dtype=bool
    ).reshape(n)
    labels = np.full(n, -3, dtype=np.int64)
    next_cluster = 0
    for start in np.random.default_rng(seed).permutation(n).tolist():
        if labels[start] != -3:
            continue
        if not core[start]:
            labels[start] = -4
            continue
        labels[start] = next_cluster
        queue = deque([start])
        while queue:
            v = queue.popleft()
            if not core[v]:
                continue
            for q in hood[v]:
                if labels[q] in (-3, -4):
                    labels[q] = next_cluster
                    queue.append(q)
        next_cluster += 1
    labels[labels == -3] = -4
    return reference_finalize(graph, labels, core)


def _with_isolated(graph, extra):
    """``graph`` plus ``extra`` isolated vertices interleaved by id."""
    n = graph.num_vertices + extra
    remap = np.random.default_rng(extra).permutation(n)[: graph.num_vertices]
    pairs = [(int(remap[u]), int(remap[v])) for u, v, _ in graph.edges()]
    return Graph.from_edges(n, pairs)


def _weighted(graph, seed):
    pairs = [(u, v) for u, v, _ in graph.edges()]
    rng = np.random.default_rng(seed)
    return Graph.from_edges(
        graph.num_vertices, pairs, weights=rng.uniform(0.2, 3.0, len(pairs))
    )


def _lfr():
    graph, _ = lfr_graph(
        LFRParams(n=200, average_degree=9, max_degree=25, mixing=0.3, seed=4)
    )
    return graph


_GRAPHS = {
    "empty": lambda: Graph.from_edges(0, []),
    "edgeless": lambda: Graph.from_edges(7, []),
    "gnm": lambda: gnm_random_graph(90, 300, seed=2),
    "gnm-isolated": lambda: _with_isolated(
        gnm_random_graph(60, 180, seed=3), 15
    ),
    "lfr": _lfr,
    "lfr-weighted": lambda: _weighted(_lfr(), seed=5),
}

_CONFIGS = [
    (kind, closed)
    for kind in ("cosine", "jaccard", "dice", "overlap")
    for closed in (True, False)
]


@pytest.mark.parametrize("kind,closed", _CONFIGS)
@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_query_matches_the_per_vertex_reference(name, kind, closed):
    graph = _GRAPHS[name]()
    index = ClusteringIndex.build(
        graph,
        SimilarityConfig(kind=kind, closed=closed, pruning=kind == "cosine"),
    )
    for epsilon, mu in _GRID:
        for seed in _SEEDS:
            got = index.query(epsilon, mu, seed=seed)
            labels, roles = reference_query(index, epsilon, mu, seed)
            assert got.labels.dtype == labels.dtype
            assert got.roles.dtype == roles.dtype
            where = (epsilon, mu, seed)
            assert got.labels.tobytes() == labels.tobytes(), where
            assert got.roles.tobytes() == roles.tobytes(), where


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_finalize_matches_the_per_vertex_reference(name, seed):
    """Arbitrary provisional labels (members, several negative codes)
    and core masks, not only ones a clustering could produce."""
    graph = _GRAPHS[name]()
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    labels = rng.integers(-4, 6, size=n).astype(np.int64)
    core_mask = rng.random(n) < 0.3
    got = finalize_clustering(graph, labels, core_mask)
    want_labels, want_roles = reference_finalize(graph, labels, core_mask)
    assert got.labels.tobytes() == want_labels.tobytes()
    assert got.roles.tobytes() == want_roles.tobytes()
    assert got.roles.dtype == np.int8


def test_finalize_accepts_a_float_core_mask_on_an_empty_graph():
    """``np.asarray([])`` is float64: anySCAN's mask on an empty graph."""
    graph = Graph.from_edges(0, [])
    got = finalize_clustering(
        graph, np.zeros(0, dtype=np.int64), np.asarray([])
    )
    assert got.labels.shape == (0,) and got.roles.dtype == np.int8
