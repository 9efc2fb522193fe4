"""Incremental SCAN maintenance under edge insertions and deletions.

The paper's related work cites DENGRAPH for clustering *dynamic* social
networks; this module provides that capability as an extension.

σ(x, y) depends only on the rows of ``x`` and ``y``, so an update of
the edge ``(u, v)`` only changes σ on the slots incident to ``u`` or
``v``.  :class:`DynamicSCAN` validates and applies each update on a
mutable :class:`~repro.dynamic.graph.AdjacencyGraph` and records its
endpoints; a read hands them to
:meth:`~repro.similarity.gsindex.ClusteringIndex.refresh`, which
recomputes exactly those slots with the batched σ kernels (every σ kind
and neighborhood mode), and answers the (ε, μ) query from the index
with no further σ work.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.dynamic.graph import AdjacencyGraph
from repro.errors import ConfigError
from repro.result import Clustering
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig

__all__ = ["DynamicSCAN"]


class DynamicSCAN:
    """SCAN clustering maintained under edge updates.

    Parameters
    ----------
    graph:
        The mutable graph; updates must go through this object so the
        touched rows are recorded.
    mu, epsilon:
        SCAN parameters.
    similarity:
        Similarity semantics, matching the batch oracle's defaults.

    ``sigma_recomputations`` counts the directed edge slots whose σ was
    computed: all of them at construction, then per read the slots
    incident to an endpoint touched since the previous read (the
    refresh's ``slots_recomputed``).

    Examples
    --------
    >>> g = AdjacencyGraph(5)
    >>> dyn = DynamicSCAN(g, mu=2, epsilon=0.5)
    >>> dyn.add_edge(0, 1); dyn.add_edge(1, 2); dyn.add_edge(0, 2)
    >>> dyn.clustering().num_clusters
    1
    """

    def __init__(
        self,
        graph: AdjacencyGraph,
        mu: int,
        epsilon: float,
        *,
        similarity: SimilarityConfig | None = None,
    ) -> None:
        if mu < 1:
            raise ConfigError("mu must be a positive integer")
        if not 0.0 < epsilon <= 1.0:
            raise ConfigError("epsilon must be in (0, 1]")
        self.graph = graph
        self.mu = mu
        self.epsilon = epsilon
        self.config = similarity or SimilarityConfig()
        self.config.validate()
        snapshot = graph.to_csr()
        self._index = ClusteringIndex.build(snapshot, self.config)
        self.sigma_recomputations = int(snapshot.indices.shape[0])
        self._touched: Set[int] = set()
        self._dirty = True

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append an isolated vertex."""
        self._dirty = True
        return self.graph.add_vertex()

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert an edge; its σ slots are refreshed on the next read."""
        self.graph.add_edge(u, v, weight)
        self._touch(u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete an edge; its σ slots are refreshed on the next read."""
        self.graph.remove_edge(u, v)
        self._touch(u, v)

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Change an edge weight; σ slots are refreshed on the next read."""
        self.graph.set_weight(u, v, weight)
        self._touch(u, v)

    def _touch(self, u: int, v: int) -> None:
        self._touched.update((u, v))
        self._dirty = True

    # ------------------------------------------------------------------
    # reading the clustering
    # ------------------------------------------------------------------
    def _refreshed(self) -> ClusteringIndex:
        """The index, with the slots touched since the last read redone."""
        old = self._index.graph
        if self._touched or old.num_vertices != self.graph.num_vertices:
            snapshot = self.graph.to_csr()
            self._index, stats = self._index.refresh(snapshot, self._touched)
            self.sigma_recomputations += stats["slots_recomputed"]
            self._touched.clear()
        return self._index

    def core_mask(self) -> np.ndarray:
        """Current boolean core indicator."""
        return self._refreshed().core_mask(self.epsilon, self.mu)

    def clustering(self, *, seed: int = 0) -> Clustering:
        """Exact SCAN clustering of the current graph: byte for byte
        :func:`repro.baselines.scan.scan` at the same ``seed``."""
        result = self._refreshed().query(self.epsilon, self.mu, seed=seed)
        self._dirty = False
        return result

    @property
    def pending_changes(self) -> bool:
        """Whether updates arrived since the last :meth:`clustering`."""
        return self._dirty

    def verify_cache(self) -> bool:
        """Whether the σ array is bitwise a fresh build's (test hook)."""
        index = self._refreshed()
        fresh = EdgeSimilarityIndex.build(index.graph, self.config)
        return index.edge.sigmas.tobytes() == fresh.sigmas.tobytes()
