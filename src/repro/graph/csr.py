"""Compressed-sparse-row storage for undirected weighted graphs.

The whole library operates on :class:`Graph`, an immutable CSR structure
holding, for each vertex ``p`` in ``0..n-1``, a sorted array of neighbor ids
and the matching edge weights.  Both directions of every undirected edge are
stored, so ``degree(p) == len(neighbors(p))`` and the arrays support the
sort-merge similarity join used by all SCAN variants (Definition 1 of the
paper is evaluated in ``O(|N_p| + |N_q|)``).

Vertices are dense integers; loaders that accept arbitrary labels
(:mod:`repro.graph.io`) relabel on the way in and keep the mapping.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """An immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbors of vertex ``p`` live
        in ``indices[indptr[p]:indptr[p + 1]]``.
    indices:
        ``int64`` array of neighbor ids, sorted ascending within each vertex.
    weights:
        ``float64`` array parallel to ``indices``; ``weights[k]`` is the
        weight of the edge to ``indices[k]``.  For unweighted graphs all
        entries are ``1.0``.

    Use :class:`repro.graph.builder.GraphBuilder` or the generator /
    loader helpers instead of constructing the arrays by hand.
    """

    __slots__ = ("_indptr", "_indices", "_weights", "_num_edges")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        if validate:
            self._validate()
        self._num_edges = int(self._indices.shape[0]) // 2

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        indptr, indices, weights = self._indptr, self._indices, self._weights
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if indptr.shape[0] == 0:
            raise GraphError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise GraphError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.shape[0]} entries)"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if weights.shape[0] != indices.shape[0]:
            raise GraphError("weights must be parallel to indices")
        n = indptr.shape[0] - 1
        if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("neighbor id out of range")
        if indices.shape[0] % 2 != 0:
            raise GraphError(
                "undirected CSR must store both edge directions; "
                "odd number of directed entries found"
            )
        if indices.shape[0]:
            owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            same_row = owners[1:] == owners[:-1]
            unsorted = same_row & (np.diff(indices) <= 0)
            self_loops = indices == owners
            # Report the lowest-numbered offending vertex, and prefer the
            # sortedness error when both occur on the same vertex (matching
            # the order of the historical per-row checks).
            bad_sort = int(owners[1:][unsorted].min()) if unsorted.any() else n
            bad_loop = int(owners[self_loops].min()) if self_loops.any() else n
            if bad_sort <= bad_loop and bad_sort < n:
                raise GraphError(
                    f"neighbors of vertex {bad_sort} must be strictly "
                    "increasing (sorted, no parallel edges)"
                )
            if bad_loop < n:
                raise GraphError(
                    f"self-loop on vertex {bad_loop} is not allowed"
                )
        if np.any(weights < 0):
            raise GraphError("edge weights must be non-negative")
        if not np.all(np.isfinite(weights)):
            raise GraphError("edge weights must be finite")

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of undirected ``(u, v)`` pairs.

        Duplicate edges and self-loops raise :class:`GraphError`; use the
        :class:`~repro.graph.builder.GraphBuilder` for tolerant accumulation.
        """
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(num_vertices)
        if weights is None:
            for u, v in edges:
                builder.add_edge(int(u), int(v))
        else:
            if len(weights) != len(edges):
                raise GraphError("weights must be parallel to edges")
            for (u, v), w in zip(edges, weights):
                builder.add_edge(int(u), int(v), float(w))
        return builder.build(dedup="error")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self._indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR neighbor array (length ``2|E|``)."""
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        """Read-only CSR weight array, parallel to :attr:`indices`."""
        return self._weights

    def degree(self, p: int) -> int:
        """Number of neighbors ``|N_p|`` of vertex ``p``."""
        self._check_vertex(p)
        return int(self._indptr[p + 1] - self._indptr[p])

    @property
    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees."""
        return np.diff(self._indptr)

    def neighbors(self, p: int) -> np.ndarray:
        """Sorted neighbor ids ``N_p`` of vertex ``p`` (read-only view)."""
        self._check_vertex(p)
        return self._indices[self._indptr[p] : self._indptr[p + 1]]

    def neighbor_weights(self, p: int) -> np.ndarray:
        """Edge weights parallel to :meth:`neighbors` (read-only view)."""
        self._check_vertex(p)
        return self._weights[self._indptr[p] : self._indptr[p + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises :class:`GraphError` if absent."""
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        if pos >= row.shape[0] or int(row[pos]) != v:
            raise GraphError(f"no edge ({u}, {v})")
        return float(self.neighbor_weights(u)[pos])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        owners = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64),
            np.diff(self._indptr),
        )
        mask = owners < self._indices
        us = owners[mask].tolist()
        vs = self._indices[mask].tolist()
        ws = self._weights[mask].tolist()
        yield from zip(us, vs, ws)

    @property
    def is_weighted(self) -> bool:
        """``True`` when any edge weight differs from 1.0."""
        return bool(self._weights.shape[0]) and not np.all(self._weights == 1.0)

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights."""
        return float(self._weights.sum()) / 2.0

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_unit_weights(self) -> "Graph":
        """Return the same topology with every weight set to 1.0."""
        return Graph(
            self._indptr.copy(),
            self._indices.copy(),
            np.ones_like(self._weights),
            validate=False,
        )

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled to ``0..k-1``.

        The relabeling follows the order of ``vertices``.
        """
        keep = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
        if keep.shape[0] and (keep[0] < 0 or keep[-1] >= self.num_vertices):
            raise GraphError("subgraph vertex out of range")
        remap = -np.ones(self.num_vertices, dtype=np.int64)
        remap[keep] = np.arange(keep.shape[0])
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(keep.shape[0])
        for u in keep:
            row = self.neighbors(int(u))
            wts = self.neighbor_weights(int(u))
            for v, w in zip(row, wts):
                if u < v and remap[v] >= 0:
                    builder.add_edge(int(remap[u]), int(remap[v]), float(w))
        return builder.build(dedup="error")

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_vertices,
                self.num_edges,
                self._indices.tobytes(),
                self._weights.tobytes(),
            )
        )

    def _check_vertex(self, p: int) -> None:
        if not 0 <= p < self.num_vertices:
            raise GraphError(
                f"vertex {p} out of range [0, {self.num_vertices})"
            )
