"""Mutable adjacency-based graph for dynamic clustering.

The CSR :class:`~repro.graph.csr.Graph` is immutable by design; dynamic
clustering (edges arriving/leaving over time, as in the DENGRAPH line of
work the paper cites) needs a mutable counterpart.  ``AdjacencyGraph``
stores per-vertex neighbor→weight dicts, supports O(1) edge updates, and
converts to/from CSR for interoperability with the batch algorithms.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.patch import check_vertex, check_weight

__all__ = ["AdjacencyGraph"]


class AdjacencyGraph:
    """Mutable undirected weighted graph."""

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._adj: List[Dict[int, float]] = [
            {} for _ in range(num_vertices)
        ]
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, graph: Graph) -> "AdjacencyGraph":
        """Copy a CSR graph into mutable form."""
        out = cls(graph.num_vertices)
        for u, v, w in graph.edges():
            out.add_edge(u, v, w)
        return out

    def to_csr(self) -> Graph:
        """Snapshot the current topology as an immutable CSR graph."""
        builder = GraphBuilder(self.num_vertices)
        for u, v, w in self.edges():
            builder.add_edge(u, v, w)
        return builder.build(dedup="error")

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        self._adj.append({})
        return self.num_vertices - 1

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert the undirected edge (u, v); re-inserting is an error."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        check_weight(weight)
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already exists")
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)
        self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> float:
        """Delete the edge (u, v); returns its weight."""
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise GraphError(f"no edge ({u}, {v})")
        weight = self._adj[u].pop(v)
        self._adj[v].pop(u)
        self._num_edges -= 1
        return weight

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Change an existing edge's weight."""
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise GraphError(f"no edge ({u}, {v})")
        check_weight(weight)
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> Dict[int, float]:
        """Neighbor→weight mapping (live view; do not mutate)."""
        self._check(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edge_weight(self, u: int, v: int) -> float:
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise GraphError(f"no edge ({u}, {v})")
        return self._adj[u][v]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Each undirected edge once, as (u, v, w) with u < v."""
        for u in range(self.num_vertices):
            for v, w in self._adj[u].items():
                if u < v:
                    yield u, v, w

    def _check(self, v: int) -> None:
        check_vertex(v, self.num_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdjacencyGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
