"""Differential battery: local_cluster ≡ the seed's cluster in scan.

Seeded local clustering claims *exact* replay — for any graph, any
(ε, μ), any visit-order seed, and any query vertex,
:func:`repro.local.local_cluster` returns exactly the cluster the
sequential reference :func:`repro.baselines.scan.scan` assigns the
seed (byte-identical member set, matching roles, boundary vertices
classified as the global clustering would), under every σ-resolution
tier.  This battery drives that claim over:

* every vertex of seeded random graphs × an (ε, μ) grid, per tier
  (cluster index / batched oracle), weighted and unweighted, with
  indexes built on every execution backend;
* ε pinned to *exact* σ ties (the ≥-vs-> off-by-one surface);
* hypothesis-generated arbitrary graphs and parameters;
* a chaos case: a faulted index tier degrades to the oracle tier with
  a witnessed DegradationEvent and an answer that is still exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import scan
from repro.errors import ConfigError, GraphError
from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.builder import GraphBuilder
from repro.graph.generators.random_graphs import (
    gnm_random_graph,
    planted_partition_graph,
)
from repro.graph.generators.weights import assign_random_weights
from repro.graph.traversal import frontier_expand
from repro.local import build_tiers, local_cluster
from repro.parallel.processes import (
    add_degradation_listener,
    remove_degradation_listener,
)
from repro.parallel.threads import ThreadBackend
from repro.result import VertexRole
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

pytestmark = pytest.mark.timeout(300)

TIERS = ("cluster-index", "oracle")


def _tier_kwargs(tier, graph):
    """local_cluster inputs that force one specific σ tier."""
    if tier == "cluster-index":
        return {"cluster_index": ClusteringIndex.build(graph)}
    return {}


def _assert_seed_exact(graph, reference, seed, epsilon, mu, order_seed, kw):
    """One seed's local answer vs the reference global clustering."""
    result = local_cluster(
        graph, seed, epsilon, mu, order_seed=order_seed, **kw
    )
    label = int(reference.labels[seed])
    role = VertexRole(int(reference.roles[seed]))
    assert result.seed_role == role, (seed, result.seed_role, role)
    if label >= 0:
        want = np.flatnonzero(reference.labels == label)
        np.testing.assert_array_equal(result.members, want)
        want_cores = want[
            reference.roles[want] == int(VertexRole.CORE)
        ]
        np.testing.assert_array_equal(result.core_members, want_cores)
        member_set = set(want.tolist())
        fringe = set()
        for m in member_set:
            fringe.update(
                int(r) for r in graph.neighbors(m)
                if int(r) not in member_set
            )
        assert set(result.boundary) == fringe
        for b, got_role in result.boundary.items():
            assert got_role == VertexRole(int(reference.roles[b])), b
    else:
        assert result.members.shape[0] == 0
        assert result.boundary == {}
        assert result.cluster_rank is None
    return result


# ----------------------------------------------------------------------
# the (tier × weighted) grid, every vertex a seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("weighted", [False, True])
def test_every_seed_matches_reference(tier, weighted):
    for gseed, (epsilon, mu) in (
        (0, (0.4, 2)),
        (1, (0.5, 3)),
        (2, (0.65, 4)),
    ):
        graph = gnm_random_graph(50, 150, seed=gseed)
        if weighted:
            graph = assign_random_weights(graph, seed=gseed + 11)
        kw = _tier_kwargs(tier, graph)
        for order_seed in (0, 3):
            reference = scan(graph, mu, epsilon, seed=order_seed)
            for seed in range(graph.num_vertices):
                result = _assert_seed_exact(
                    graph, reference, seed, epsilon, mu, order_seed, kw
                )
                # The requested tier answers; the index tier evaluates
                # no σ at all.
                assert result.stats.tier == tier
                if tier == "cluster-index":
                    assert result.stats.sigma_evaluations == 0


def test_community_graph_hub_border_outlier_seeds():
    """Planted communities: assert each role class is actually covered."""
    graph = planted_partition_graph(
        [18, 18, 18], p_in=0.5, p_out=0.08, seed=0
    )
    epsilon, mu = 0.55, 4  # yields all four roles and 3 clusters
    reference = scan(graph, mu, epsilon, seed=0)
    roles_seen = set()
    kw = _tier_kwargs("cluster-index", graph)
    for seed in range(graph.num_vertices):
        result = _assert_seed_exact(
            graph, reference, seed, epsilon, mu, 0, kw
        )
        roles_seen.add(result.seed_role)
    assert roles_seen == {
        VertexRole.CORE,
        VertexRole.BORDER,
        VertexRole.HUB,
        VertexRole.OUTLIER,
    }


@pytest.mark.parametrize("tier", TIERS)
def test_exact_sigma_tie_epsilons(tier):
    """ε pinned to the graph's own σ values: ≥ must behave as the
    reference does at exact ties, in every tier."""
    graph = gnm_random_graph(40, 130, seed=6)
    distinct = np.unique(ClusteringIndex.build(graph).edge.sigmas)
    distinct = distinct[distinct > 0]
    kw = _tier_kwargs(tier, graph)
    for epsilon in distinct[:: max(1, len(distinct) // 8)]:
        for mu in (2, 4):
            reference = scan(graph, mu, float(epsilon), seed=0)
            for seed in range(0, graph.num_vertices, 3):
                _assert_seed_exact(
                    graph, reference, seed, float(epsilon), mu, 0, kw
                )


@pytest.mark.parametrize(
    "backend",
    [None, ThreadBackend(threads=2, chunk_size=7)],
    ids=["None", "thread"],
)
def test_index_backend_invariance(backend):
    """Indexes built sequentially or on the thread backend answer
    identically."""
    graph = gnm_random_graph(60, 200, seed=9)
    index = ClusteringIndex.build(graph, backend=backend)
    reference = scan(graph, 3, 0.5, seed=0)
    for seed in range(0, graph.num_vertices, 5):
        _assert_seed_exact(
            graph, reference, seed, 0.5, 3, 0, {"cluster_index": index}
        )


# ----------------------------------------------------------------------
# tier agreement + instrumentation contracts
# ----------------------------------------------------------------------
def test_tiers_agree_and_index_tier_is_sigma_free():
    graph = gnm_random_graph(70, 220, seed=12)
    ci = ClusteringIndex.build(graph)
    for seed in (0, 7, 33):
        indexed = local_cluster(graph, seed, 0.5, 3, cluster_index=ci)
        baseline = local_cluster(graph, seed, 0.5, 3)
        assert indexed.stats.tier == "cluster-index"
        assert baseline.stats.tier == "oracle"
        np.testing.assert_array_equal(indexed.members, baseline.members)
        assert indexed.seed_role == baseline.seed_role
        assert indexed.boundary == baseline.boundary
        assert indexed.stats.sigma_evaluations == 0
        assert baseline.stats.sigma_evaluations > 0
        # The index tier reads qualifying prefixes; the oracle tier
        # reads every touched vertex's whole row.
        assert indexed.stats.touched_edges <= baseline.stats.touched_edges


def test_touched_edges_scale_with_cluster_not_graph():
    """Two far-apart communities: querying one must not touch the σ
    rows of the other (the local-work contract)."""
    builder = GraphBuilder(106)
    for base in (0, 100):  # two disjoint 6-cliques far apart in id space
        for i in range(6):
            for j in range(i + 1, 6):
                builder.add_edge(base + i, base + j)
    graph = builder.build()
    result = local_cluster(graph, 0, 0.5, 3)
    np.testing.assert_array_equal(result.members, np.arange(6))
    assert all(v < 6 for v in result.touched)
    assert result.stats.touched_edges <= 2 * graph.num_edges


def test_touched_read_set_covers_members_and_boundary():
    graph = gnm_random_graph(50, 160, seed=3)
    result = local_cluster(graph, 1, 0.45, 2)
    for v in result.members.tolist():
        assert v in result.touched
    for b in result.boundary:
        assert b in result.touched


def test_validation_errors():
    graph = gnm_random_graph(10, 20, seed=0)
    with pytest.raises(ConfigError):
        local_cluster(graph, 0, 0.0, 2)
    with pytest.raises(ConfigError):
        local_cluster(graph, 0, 0.5, 0)
    with pytest.raises(GraphError):
        local_cluster(graph, 10, 0.5, 2)
    with pytest.raises(GraphError):
        local_cluster(graph, -1, 0.5, 2)


def test_stale_index_is_rejected():
    graph = gnm_random_graph(30, 90, seed=1)
    other = gnm_random_graph(30, 91, seed=2)
    index = ClusteringIndex.build(other)
    with pytest.raises(ConfigError):
        local_cluster(graph, 0, 0.5, 2, cluster_index=index)


def test_oracle_semantic_mismatch_is_rejected():
    graph = gnm_random_graph(30, 90, seed=1)
    ci = ClusteringIndex.build(graph)  # cosine semantics
    oracle = SimilarityOracle(
        graph, SimilarityConfig(kind="jaccard", pruning=False)
    )
    with pytest.raises(ConfigError):
        local_cluster(graph, 0, 0.5, 2, cluster_index=ci, oracle=oracle)


def test_build_tiers_chain_shape():
    graph = gnm_random_graph(20, 50, seed=0)
    ci = ClusteringIndex.build(graph)
    chain = build_tiers(graph, cluster_index=ci)
    assert [t.name for t in chain] == ["cluster-index", "oracle"]
    chain = build_tiers(graph)
    assert [t.name for t in chain] == ["oracle"]


def test_frontier_expand_matches_bfs_order():
    from repro.graph.traversal import bfs_order

    graph = gnm_random_graph(40, 100, seed=5)
    order = frontier_expand(
        [0], lambda u: (int(v) for v in graph.neighbors(u))
    )
    np.testing.assert_array_equal(
        np.asarray(order), bfs_order(graph, 0)
    )


# ----------------------------------------------------------------------
# hypothesis: arbitrary graphs, parameters, and seeds
# ----------------------------------------------------------------------
def _build(edges):
    builder = GraphBuilder(12)
    seen = set()
    for u, v in edges:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        builder.add_edge(u, v)
    return builder.build()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
        ),
        min_size=1,
        max_size=40,
    ),
    mu=st.integers(min_value=1, max_value=5),
    epsilon=st.floats(
        min_value=0.05, max_value=1.0, allow_nan=False, exclude_min=False
    ),
    order_seed=st.integers(min_value=0, max_value=3),
)
def test_hypothesis_local_equals_scan(edges, mu, epsilon, order_seed):
    graph = _build(edges)
    reference = scan(graph, mu, epsilon, seed=order_seed)
    ci = ClusteringIndex.build(graph)
    for kw in ({"cluster_index": ci}, {}):
        for seed in range(graph.num_vertices):
            _assert_seed_exact(
                graph, reference, seed, epsilon, mu, order_seed, kw
            )


# ----------------------------------------------------------------------
# chaos: a faulted index tier degrades to the oracle, exactly and witnessed
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_faulted_index_tier_degrades_with_witnessed_event():
    graph = gnm_random_graph(50, 160, seed=8)
    ci = ClusteringIndex.build(graph)
    reference = scan(graph, 3, 0.5, seed=0)
    events = []
    listener = add_degradation_listener(events.append)
    try:
        plan = FaultPlan(
            [FaultRule(site="local.index_query", exception="RuntimeError")]
        )
        with armed(plan):
            result = _assert_seed_exact(
                graph, reference, 2, 0.5, 3, 0, {"cluster_index": ci}
            )
    finally:
        remove_degradation_listener(listener)
    assert result.stats.tier == "oracle"
    assert result.stats.degraded_from == ("cluster-index",)
    assert [e.backend for e in events] == ["local-cluster-index"]
    assert events[0].failures == 1


@pytest.mark.chaos
def test_double_fault_degrades_to_oracle():
    """A fault that keeps firing (every index read fails) still lands
    on the oracle tier after one witnessed degradation."""
    graph = gnm_random_graph(50, 160, seed=8)
    ci = ClusteringIndex.build(graph)
    reference = scan(graph, 3, 0.5, seed=0)
    events = []
    listener = add_degradation_listener(events.append)
    try:
        plan = FaultPlan(
            [
                FaultRule(
                    site="local.index_query",
                    exception="RuntimeError",
                    times=None,
                ),
            ]
        )
        with armed(plan):
            result = _assert_seed_exact(
                graph, reference, 2, 0.5, 3, 0, {"cluster_index": ci}
            )
    finally:
        remove_degradation_listener(listener)
    assert result.stats.tier == "oracle"
    assert result.stats.degraded_from == ("cluster-index",)
    assert [e.backend for e in events] == ["local-cluster-index"]


@pytest.mark.chaos
def test_fault_on_last_tier_raises():
    graph = gnm_random_graph(30, 90, seed=1)
    plan = FaultPlan(
        [FaultRule(site="sigma.query", exception="RuntimeError")]
    )
    with armed(plan):
        with pytest.raises(Exception):
            local_cluster(graph, 0, 0.5, 2)
