"""Tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_isolated_vertices(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert g.degree(4) == 0
        assert g.neighbors(4).shape[0] == 0

    def test_edges_with_weights(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 0.5])
        assert g.edge_weight(0, 1) == 2.0
        assert g.edge_weight(2, 1) == 0.5  # symmetric lookup

    def test_weights_length_mismatch_raises(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0])

    def test_duplicate_edge_raises(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_self_loop_raises(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 0)])

    def test_vertex_out_of_range_grows_graph(self):
        # from_edges uses the builder, which grows the vertex range.
        g = Graph.from_edges(2, [(0, 5)])
        assert g.num_vertices == 6

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            Graph(
                np.array([1, 2]),
                np.array([0]),
                np.array([1.0]),
            )

    def test_unsorted_neighbors_rejected(self):
        indptr = np.array([0, 2, 3, 4])  # wrong: unsorted row for vertex 0
        indices = np.array([2, 1, 0, 0])
        weights = np.ones(4)
        with pytest.raises(GraphError):
            Graph(indptr, indices, weights)

    def test_negative_weight_rejected(self):
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0])
        weights = np.array([-1.0, -1.0])
        with pytest.raises(GraphError):
            Graph(indptr, indices, weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN passes every `weight < 0` test; it must still be refused.
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0])
        with pytest.raises(GraphError, match="finite"):
            Graph(indptr, indices, np.array([bad, bad]))


class TestAccessors:
    def test_neighbors_sorted(self, karate):
        for v in range(karate.num_vertices):
            row = karate.neighbors(v)
            assert np.all(np.diff(row) > 0)

    def test_degree_matches_neighbors(self, karate):
        for v in range(karate.num_vertices):
            assert karate.degree(v) == karate.neighbors(v).shape[0]

    def test_degrees_vector(self, karate):
        degrees = karate.degrees
        assert degrees.sum() == 2 * karate.num_edges
        assert degrees[33] == 17  # the karate instructor

    def test_has_edge_symmetric(self, karate):
        assert karate.has_edge(0, 1)
        assert karate.has_edge(1, 0)
        assert not karate.has_edge(0, 33)

    def test_has_edge_self(self, karate):
        assert not karate.has_edge(3, 3)

    def test_edge_weight_missing_raises(self, karate):
        with pytest.raises(GraphError):
            karate.edge_weight(0, 33)

    def test_edges_iterates_each_once(self, karate):
        edges = list(karate.edges())
        assert len(edges) == karate.num_edges
        assert all(u < v for u, v, _ in edges)
        assert len(set((u, v) for u, v, _ in edges)) == len(edges)

    def test_vertex_out_of_range(self, karate):
        with pytest.raises(GraphError):
            karate.neighbors(99)
        with pytest.raises(GraphError):
            karate.degree(-1)

    def test_len_is_vertices(self, karate):
        assert len(karate) == 34

    def test_is_weighted(self, karate, weighted_triangle):
        assert not karate.is_weighted
        assert weighted_triangle.is_weighted

    def test_total_weight(self, weighted_triangle):
        assert weighted_triangle.total_weight == pytest.approx(3.5)


class TestTransformations:
    def test_with_unit_weights(self, weighted_triangle):
        g = weighted_triangle.with_unit_weights()
        assert not g.is_weighted
        assert g.num_edges == weighted_triangle.num_edges

    def test_subgraph_keeps_internal_edges(self, two_triangles_bridge):
        sub = two_triangles_bridge.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # the first triangle

    def test_subgraph_drops_external_edges(self, two_triangles_bridge):
        sub = two_triangles_bridge.subgraph([2, 3])
        assert sub.num_edges == 1  # only (2, 3)

    def test_subgraph_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([0, 7])

    def test_equality_and_hash(self, triangle):
        other = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_inequality_different_weights(self, triangle, weighted_triangle):
        assert triangle != weighted_triangle
