"""Property tests: the batched σ kernels agree with the scalar oracle.

The batched CSR kernels (:mod:`repro.similarity.kernels`) reformulate
the per-pair sorted-merge intersection as whole-array segment sums; this
battery pins them to the scalar reference bit for bit over random
weighted graphs — including isolated vertices, degree-1 rows, every similarity
kind, open and closed neighborhoods, and non-default self-weights — and
checks that the batch entry points charge the counters exactly like the
per-pair paths they replace.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.graph.builder import GraphBuilder
from repro.similarity import kernels
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

KINDS = ("cosine", "jaccard", "dice", "overlap")

# Random weighted graphs on 12 vertices: some vertices stay isolated,
# some rows have degree 1, weights are non-trivial.
weighted_edges = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.integers(0, 11),
        st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=30,
)


def build_graph(edges):
    builder = GraphBuilder(12)
    seen = set()
    for u, v, w in edges:
        if (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        builder.add_edge(u, v, weight=round(w, 3))
    return builder.build()


def all_pairs(n):
    ps, qs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ps.ravel().astype(np.int64), qs.ravel().astype(np.int64)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=weighted_edges,
    kind=st.sampled_from(KINDS),
    closed=st.booleans(),
    self_weight=st.sampled_from([1.0, 0.7]),
)
def test_sigma_batch_equals_scalar(edges, kind, closed, self_weight):
    graph = build_graph(edges)
    config = SimilarityConfig(
        kind=kind, closed=closed, self_weight=self_weight, pruning=False
    )
    oracle = SimilarityOracle(graph, config)
    ps, qs = all_pairs(graph.num_vertices)
    batched = oracle.sigma_pairs_unrecorded(ps, qs)
    for p, q, value in zip(ps, qs, batched):
        expected = oracle.sigma_unrecorded(int(p), int(q))
        assert value == expected, (
            kind, closed, self_weight, int(p), int(q),
        )


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=weighted_edges, epsilon=st.sampled_from([0.2, 0.5, 0.8]))
def test_batched_neighborhood_equals_scalar_loop(edges, epsilon):
    graph = build_graph(edges)
    config = SimilarityConfig(pruning=False)
    oracle = SimilarityOracle(graph, config)
    for p in range(graph.num_vertices):
        expected = [
            int(q)
            for q in graph.neighbors(p)
            if oracle.sigma_unrecorded(p, int(q)) >= epsilon
        ]
        got = oracle.eps_neighborhood(p, epsilon)
        assert got.tolist() == expected


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=weighted_edges, epsilon=st.sampled_from([0.3, 0.6]))
def test_pruned_neighborhood_equals_batched(edges, epsilon):
    graph = build_graph(edges)
    oracle = SimilarityOracle(graph, SimilarityConfig())
    for p in range(graph.num_vertices):
        full = oracle.eps_neighborhood(p, epsilon)
        pruned = oracle.eps_neighborhood_pruned(p, epsilon)
        assert pruned.tolist() == full.tolist()


class TestCounterParity:
    """Batched paths charge exactly what the per-pair accounting would."""

    @pytest.fixture()
    def graph(self):
        builder = GraphBuilder(8)
        for u, v in [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
        ]:
            builder.add_edge(u, v)
        return builder.build()

    def test_eps_neighborhood_cost_is_merge_work(self, graph):
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        p = 0
        oracle.eps_neighborhood(p, 0.5)
        degrees = np.diff(graph.indptr)
        expected_work = float(
            sum(degrees[p] + degrees[q] for q in graph.neighbors(p))
        )
        assert oracle.counters.neighborhood_queries == 1
        assert oracle.counters.sigma_evaluations == graph.degree(p)
        assert oracle.counters.work_units == pytest.approx(expected_work)

    def test_isolated_vertex_query_is_free_but_counted(self, graph):
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        hood = oracle.eps_neighborhood(6, 0.5)  # vertex 6 is isolated
        assert hood.shape == (0,)
        assert hood.dtype == np.int64
        assert oracle.counters.neighborhood_queries == 1
        assert oracle.counters.sigma_evaluations == 0
        assert oracle.counters.work_units == 0.0

    def test_pruned_neighborhood_counts_queries(self, graph):
        """Regression: the pruned query used to skip the query counter."""
        oracle = SimilarityOracle(graph, SimilarityConfig())
        oracle.eps_neighborhood_pruned(0, 0.5)
        oracle.eps_neighborhood_pruned(3, 0.5)
        assert oracle.counters.neighborhood_queries == 2

    def test_pruned_neighborhood_charges_no_more_than_full(self, graph):
        pruned = SimilarityOracle(graph, SimilarityConfig())
        full = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        for p in range(graph.num_vertices):
            pruned.eps_neighborhood_pruned(p, 0.7)
            full.eps_neighborhood(p, 0.7)
        assert pruned.counters.work_units <= full.counters.work_units
        assert (
            pruned.counters.neighborhood_queries
            == full.counters.neighborhood_queries
        )

    def test_sigma_batch_records_per_pair_costs(self, graph):
        batched = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        scalar = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        qs = graph.neighbors(0)
        batched.sigma_batch(0, qs)
        for q in qs:
            scalar.sigma(0, int(q))
        assert (
            batched.counters.sigma_evaluations
            == scalar.counters.sigma_evaluations
        )
        assert batched.counters.work_units == pytest.approx(
            scalar.counters.work_units
        )

    def test_sigma_batch_empty_is_free(self, graph):
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        out = oracle.sigma_batch(0, np.zeros(0, dtype=np.int64))
        assert out.shape == (0,)
        assert oracle.counters.sigma_evaluations == 0

    def test_similar_batch_matches_scalar_decisions(self, graph):
        batched = SimilarityOracle(graph, SimilarityConfig())
        scalar = SimilarityOracle(graph, SimilarityConfig())
        qs = graph.neighbors(3)
        decisions = batched.similar_batch(3, qs, 0.6)
        expected = [scalar.similar(3, int(q), 0.6) for q in qs]
        assert decisions.tolist() == expected
        assert (
            batched.counters.pruned_lemma5 == scalar.counters.pruned_lemma5
        )


class TestKernelEdgeCases:
    def test_bad_accumulate_raises(self):
        builder = GraphBuilder(3)
        builder.add_edge(0, 1)
        graph = builder.build()
        keys = kernels.directed_edge_keys(graph.indptr, graph.indices)
        with pytest.raises(ConfigError):
            kernels.pair_overlaps(
                graph.indptr,
                graph.indices,
                graph.weights,
                keys,
                np.array([0]),
                np.array([1]),
                accumulate="bogus",
                closed=True,
                self_weight=1.0,
            )

    def test_empty_graph(self):
        graph = GraphBuilder(4).build()
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        ps, qs = all_pairs(4)
        values = oracle.sigma_pairs_unrecorded(ps, qs)
        # Closed mode: σ(p, p) is 1 from the self term alone; every
        # distinct pair shares nothing.
        expected = np.where(ps == qs, 1.0, 0.0)
        np.testing.assert_array_equal(values, expected)

    def test_sigma_all_edges_respects_block_budget(self):
        builder = GraphBuilder(20)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            u, v = rng.integers(0, 20, 2)
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            builder.add_edge(int(u), int(v))
        graph = builder.build()
        oracle = SimilarityOracle(graph, SimilarityConfig(pruning=False))
        reference = kernels.sigma_all_edges(
            graph.indptr, graph.indices, graph.weights,
            kind="cosine", closed=True, self_weight=1.0,
            lengths=oracle.lengths, linear_sums=oracle.linear_sums,
        )
        tiny_blocks = kernels.sigma_all_edges(
            graph.indptr, graph.indices, graph.weights,
            kind="cosine", closed=True, self_weight=1.0,
            lengths=oracle.lengths, linear_sums=oracle.linear_sums,
            block_budget=4,
        )
        np.testing.assert_array_equal(reference, tiny_blocks)
