"""Property-based tests for the extension modules.

The explorer, dynamic maintenance, hierarchy, and traversal utilities
each promise equivalence to an independent reference; hypothesis drives
those promises over arbitrary small graphs and update sequences.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import scan
from repro.core.explorer import ParameterExplorer
from repro.core.hierarchy import EpsilonHierarchy
from repro.dynamic import AdjacencyGraph, DynamicSCAN
from repro.graph.builder import GraphBuilder
from repro.graph.traversal import bfs_distances, connected_components
from repro.metrics.comparison import explain_difference
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=0,
    max_size=45,
)


def build_graph(edges):
    builder = GraphBuilder(15)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build(dedup="ignore")


# ----------------------------------------------------------------------
# explorer ≡ SCAN on arbitrary graphs and parameters
# ----------------------------------------------------------------------
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=edge_lists,
    mu=st.integers(2, 4),
    epsilon=st.sampled_from([0.3, 0.5, 0.8]),
)
def test_explorer_equals_scan(edges, mu, epsilon):
    graph = build_graph(edges)
    reference = scan(graph, mu, epsilon, seed=0)
    result = ParameterExplorer(graph).clustering_at(mu, epsilon)
    np.testing.assert_array_equal(result.labels, reference.labels)
    np.testing.assert_array_equal(result.roles, reference.roles)


# ----------------------------------------------------------------------
# dynamic maintenance ≡ batch SCAN after any update sequence
# ----------------------------------------------------------------------
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=edge_lists,
    updates=st.lists(
        st.tuples(
            st.booleans(),  # True: try insert, False: try delete
            st.integers(0, 14),
            st.integers(0, 14),
        ).filter(lambda u: u[1] != u[2]),
        max_size=25,
    ),
)
def test_dynamic_scan_matches_batch_after_any_updates(initial, updates):
    graph = AdjacencyGraph(15)
    for u, v in initial:
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    dyn = DynamicSCAN(graph, 3, 0.5)
    for insert, u, v in updates:
        if insert and not graph.has_edge(u, v):
            dyn.add_edge(u, v)
        elif not insert and graph.has_edge(u, v):
            dyn.remove_edge(u, v)
    assert dyn.verify_cache()
    snapshot = graph.to_csr()
    oracle = SimilarityOracle(snapshot, SimilarityConfig())
    reference = scan(snapshot, 3, 0.5, seed=1)
    result = dyn.clustering()
    problems = explain_difference(
        snapshot, oracle, reference, result, 3, 0.5
    )
    assert not problems, problems


# ----------------------------------------------------------------------
# hierarchy cuts ≡ explorer core partitions at every event level
# ----------------------------------------------------------------------
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=edge_lists, mu=st.integers(2, 3))
def test_hierarchy_cuts_match_explorer(edges, mu):
    graph = build_graph(edges)
    hierarchy = EpsilonHierarchy(graph, mu=mu)
    explorer = ParameterExplorer(graph, index=hierarchy.index)
    levels = hierarchy.levels()
    probe_levels = list(levels[:3]) + [0.5]
    for eps in probe_levels:
        eps = float(min(max(eps, 1e-6), 1.0))
        from_tree = set(hierarchy.core_partition_at(eps))
        clustering = explorer.clustering_at(mu, eps)
        cores = explorer.cores_at(mu, eps)
        parts = {}
        for v in np.flatnonzero(cores):
            parts.setdefault(
                int(clustering.labels[int(v)]), set()
            ).add(int(v))
        from_table = {frozenset(s) for s in parts.values()}
        assert from_tree == from_table


# ----------------------------------------------------------------------
# traversal invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(edges=edge_lists, source=st.integers(0, 14))
def test_bfs_distance_is_metric(edges, source):
    graph = build_graph(edges)
    dist = bfs_distances(graph, source)
    assert dist[source] == 0
    # Triangle inequality over edges: reachable neighbors differ by <= 1.
    for u, v, _ in graph.edges():
        if dist[u] >= 0 and dist[v] >= 0:
            assert abs(int(dist[u]) - int(dist[v])) <= 1
        else:
            # Adjacent vertices share a component: both unreachable.
            assert dist[u] == -1 and dist[v] == -1


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_components_consistent_with_bfs(edges):
    graph = build_graph(edges)
    comp = connected_components(graph)
    for source in range(0, graph.num_vertices, 4):
        dist = bfs_distances(graph, source)
        reachable = set(int(v) for v in np.flatnonzero(dist >= 0))
        same_comp = set(
            int(v) for v in np.flatnonzero(comp == comp[source])
        )
        assert reachable == same_comp
