"""Differential battery: ClusteringIndex.query ≡ sequential scan.

The clustering index claims *exact* replay — for any graph, any
(ε, μ), and any seed, :meth:`ClusteringIndex.query` returns labels
byte-identical to :func:`repro.baselines.scan.scan` (same cluster ids,
same borders, same hubs and outliers), while evaluating zero σ.  This
battery drives that claim three ways:

* a seeded random-graph × (ε, μ) grid, including the boundary values
  μ=2 and ε pinned to *exact* σ ties (the ≥-vs-> off-by-one surface),
  plus one LFR benchmark graph with planted communities;
* hypothesis-generated arbitrary small graphs and parameters;
* the same checks through ``parallel_scan`` on the thread backend at
  several block geometries (the index short-circuits them all
  identically);
* the two views over the index, ``ParameterExplorer.clustering_at``
  and ``EpsilonHierarchy.cut`` (labels and roles, at seed 0).

Seeds come from ``REPRO_INDEX_SEEDS`` (comma-separated) so CI shards
the grid across a seed matrix; locally the default covers all shards.
Run just this battery with ``-m index_differential``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import scan
from repro.core import EpsilonHierarchy, ParameterExplorer, parallel_scan
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.random_graphs import (
    gnm_random_graph,
    planted_partition_graph,
)
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig

pytestmark = [pytest.mark.index_differential, pytest.mark.timeout(300)]

# The (ε, μ) grid every generated graph is queried at.  μ=2 is the
# boundary where every edge endpoint pair is a candidate core; μ=11
# leaves only the highest-degree vertices as candidates.
_GRID = [
    (0.01, 2),
    (0.30, 2),
    (0.50, 3),
    (0.65, 4),
    (0.80, 5),
    (0.95, 2),
    (0.50, 11),
    (1.00, 2),
]


def _seeds():
    raw = os.environ.get("REPRO_INDEX_SEEDS", "0,1,2,3")
    return [int(part) for part in raw.split(",") if part.strip()]


def _weighted_variant(graph: Graph, seed: int) -> Graph:
    """Same topology, random positive weights (σ loses its ties)."""
    owners = np.repeat(
        np.arange(graph.num_vertices), np.diff(graph.indptr)
    )
    mask = owners < graph.indices
    pairs = list(zip(owners[mask].tolist(), graph.indices[mask].tolist()))
    rng = np.random.default_rng(seed + 10_000)
    return Graph.from_edges(
        graph.num_vertices,
        pairs,
        weights=rng.uniform(0.2, 3.0, size=len(pairs)),
    )


def _assert_exact(index: ClusteringIndex, graph: Graph, epsilon, mu, seed):
    result = index.query(epsilon, mu, seed=seed)
    reference = scan(graph, mu, epsilon, seed=seed)
    np.testing.assert_array_equal(
        result.labels,
        reference.labels,
        err_msg=f"(ε={epsilon}, μ={mu}, seed={seed}) diverged",
    )
    assert index.last_query["sigma_evaluations"] == 0


def _assert_views_exact(index: ClusteringIndex, graph: Graph, epsilon, mu):
    """The explorer and the hierarchy answer exactly ``scan(seed=0)``."""
    reference = scan(graph, mu, epsilon, seed=0)
    views = {
        "explorer": ParameterExplorer(graph, index=index).clustering_at(
            mu, epsilon
        ),
        "hierarchy": EpsilonHierarchy(graph, mu, index=index).cut(epsilon),
    }
    for name, result in views.items():
        message = f"{name} (ε={epsilon}, μ={mu}) diverged"
        np.testing.assert_array_equal(
            result.labels, reference.labels, err_msg=message
        )
        np.testing.assert_array_equal(
            result.roles, reference.roles, err_msg=message
        )


# ----------------------------------------------------------------------
# seeded grid (shardable via REPRO_INDEX_SEEDS)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", _seeds())
def test_random_graph_grid_exact(seed):
    graph = gnm_random_graph(90 + 7 * seed, 300 + 23 * seed, seed=seed)
    index = ClusteringIndex.build(graph)
    for epsilon, mu in _GRID:
        _assert_exact(index, graph, epsilon, mu, seed)


def test_lfr_graph_grid_exact():
    """An LFR graph (power-law degrees, planted communities) over the
    grid an interactive user would sweep, plus large μ: 17, 20, and the
    two values past the maximal degree — with the self count, max degree
    + 1 still admits the top-degree vertices, + 2 admits no core."""
    graph, _ = lfr_graph(
        LFRParams(n=400, average_degree=8, max_degree=30, seed=11)
    )
    index = ClusteringIndex.build(graph)
    top = int(graph.degrees.max())
    large_mu = [(0.1, 17), (0.2, 17), (0.1, 20), (0.1, top + 1)]
    for epsilon, mu in large_mu:
        assert index.cores(epsilon, mu).shape[0] > 0, (epsilon, mu)
    large_mu.append((0.1, top + 2))
    for epsilon, mu in (
        _GRID + [(0.45, 3), (0.55, 5), (0.65, 8)] + large_mu
    ):
        _assert_exact(index, graph, epsilon, mu, 0)
    assert index.counters.sigma_evaluations == 0


@pytest.mark.parametrize("seed", _seeds())
def test_weighted_graph_grid_exact(seed):
    graph = _weighted_variant(
        gnm_random_graph(80, 260, seed=seed), seed
    )
    index = ClusteringIndex.build(graph)
    for epsilon, mu in _GRID:
        _assert_exact(index, graph, epsilon, mu, seed)


@pytest.mark.parametrize("seed", _seeds())
def test_explorer_and_hierarchy_views_exact(seed):
    graph = gnm_random_graph(90 + 7 * seed, 300 + 23 * seed, seed=seed)
    weighted = _weighted_variant(graph, seed)
    for g in (graph, weighted):
        index = ClusteringIndex.build(g)
        for epsilon, mu in _GRID:
            _assert_views_exact(index, g, epsilon, mu)


@pytest.mark.parametrize("seed", _seeds())
def test_community_graph_covers_hubs_and_outliers(seed):
    """Planted partitions produce all four roles; the replay must agree
    on every one of them, not only on member labels."""
    graph = planted_partition_graph(
        [16, 16, 16, 16], 0.6, 0.04, seed=seed
    )
    index = ClusteringIndex.build(graph)
    saw_hub = saw_outlier = False
    for epsilon, mu in ((0.4, 3), (0.55, 4), (0.7, 5)):
        result = index.query(epsilon, mu, seed=seed)
        reference = scan(graph, mu, epsilon, seed=seed)
        np.testing.assert_array_equal(result.labels, reference.labels)
        saw_hub = saw_hub or result.hubs.shape[0] > 0
        saw_outlier = saw_outlier or result.outliers.shape[0] > 0
    assert saw_hub and saw_outlier, "grid never produced hubs/outliers"


@pytest.mark.parametrize("seed", _seeds())
def test_exact_sigma_tie_boundaries(seed):
    """ε set to *exact* σ values (where ≥ vs > changes the answer) —
    every distinct σ in the graph is used as a query threshold."""
    graph = gnm_random_graph(60, 200, seed=seed)
    index = ClusteringIndex.build(graph)
    distinct = np.unique(index.edge.sigmas)
    distinct = distinct[distinct > 0]
    # Every distinct σ plus midpoints between adjacent ones.
    thresholds = list(distinct[:: max(1, len(distinct) // 12)])
    thresholds += [
        (a + b) / 2 for a, b in zip(distinct[:-1:7], distinct[1::7])
    ]
    for epsilon in thresholds:
        for mu in (2, 3, 5):
            _assert_exact(index, graph, float(epsilon), mu, seed)


@pytest.mark.parametrize(
    "backend",
    [
        ThreadBackend(threads=2, chunk_size=16),
        ThreadBackend(threads=2, chunk_size=1),
        ThreadBackend(threads=3, chunk_size=9),
        ThreadBackend(threads=2, chunk_size=71),
    ],
    ids=["thread", "thread-chunk1", "thread-chunk9", "thread-chunk71"],
)
def test_index_built_on_any_backend_is_exact(backend):
    """Build σ on the thread backend at one-row, odd and larger-than-n
    blocks; the index (and its answers) must be identical to the
    sequential build — and parallel_scan, which builds one on the same
    backend, must answer the same."""
    graph = gnm_random_graph(70, 240, seed=2)
    index = ClusteringIndex.build(graph, backend=backend)
    reference_index = ClusteringIndex.build(graph)
    np.testing.assert_array_equal(
        index.edge.sigmas, reference_index.edge.sigmas
    )
    for epsilon, mu in ((0.45, 2), (0.6, 4)):
        via_index = index.query(epsilon, mu, seed=3)
        assert index.last_query["sigma_evaluations"] == 0
        via_parallel = parallel_scan(
            graph,
            mu,
            epsilon,
            backend=backend,
            seed=3,
            config=SimilarityConfig(),
        )
        reference = scan(graph, mu, epsilon, seed=3)
        for got in (via_index, via_parallel):
            np.testing.assert_array_equal(got.labels, reference.labels)
            np.testing.assert_array_equal(got.roles, reference.roles)


# ----------------------------------------------------------------------
# hypothesis: arbitrary small graphs and parameters
# ----------------------------------------------------------------------
def _build(edges, weights=None):
    builder = GraphBuilder(16)
    for i, (u, v) in enumerate(edges):
        w = 1.0 if weights is None else weights[i % len(weights)]
        builder.add_edge(u, v, w)
    return builder.build(dedup="ignore")


edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=0,
    max_size=48,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=edge_lists,
    epsilon=st.floats(0.05, 1.0, allow_nan=False),
    mu=st.integers(1, 7),
    seed=st.integers(0, 4),
)
def test_hypothesis_unweighted_exact(edges, epsilon, mu, seed):
    graph = _build(edges)
    index = ClusteringIndex.build(graph)
    _assert_exact(index, graph, epsilon, mu, seed)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=edge_lists,
    weights=st.lists(
        st.floats(0.1, 5.0, allow_nan=False), min_size=1, max_size=8
    ),
    epsilon=st.floats(0.05, 1.0, allow_nan=False),
    mu=st.integers(2, 6),
)
def test_hypothesis_weighted_exact(edges, weights, epsilon, mu):
    graph = _build(edges, weights)
    index = ClusteringIndex.build(graph)
    _assert_exact(index, graph, epsilon, mu, 0)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=edge_lists, mu=st.integers(2, 5), seed=st.integers(0, 3))
def test_hypothesis_tie_epsilon_exact(edges, mu, seed):
    """ε drawn from the graph's own σ values (guaranteed exact ties)."""
    graph = _build(edges)
    index = ClusteringIndex.build(graph)
    distinct = np.unique(index.edge.sigmas)
    distinct = distinct[distinct > 0]
    if distinct.shape[0] == 0:
        return
    for epsilon in (distinct[0], distinct[-1], distinct[len(distinct) // 2]):
        _assert_exact(index, graph, float(epsilon), mu, seed)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=edge_lists,
    epsilon=st.floats(0.05, 1.0, allow_nan=False),
    mu=st.integers(1, 7),
)
def test_hypothesis_views_exact(edges, epsilon, mu):
    graph = _build(edges)
    index = ClusteringIndex.build(graph)
    _assert_views_exact(index, graph, epsilon, mu)
