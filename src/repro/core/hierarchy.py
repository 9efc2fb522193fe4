"""The ε-hierarchy: SCAN clusterings at every ε as one dendrogram.

For a fixed μ, SCAN's core clusters are monotone in ε: lowering ε only
creates cores and merges clusters.  The whole ε axis therefore forms a
dendrogram (the insight behind gSkeletonClu, cited in the paper's related
work):

* a vertex *becomes a core* at its core threshold ``t(v)``
  (:meth:`repro.similarity.gsindex.ClusteringIndex.core_thresholds`);
* a core-core edge ``(u, v)`` *activates* at
  ``min(σ(u, v), t(u), t(v))`` — the largest ε at which both endpoints
  are cores and the edge passes the threshold.

Both event kinds are read from one
:class:`~repro.similarity.gsindex.ClusteringIndex` in a vectorized pass;
processing them in descending level with a union–find yields the merge
tree.  :class:`EpsilonHierarchy` exposes

* :meth:`cut` — the exact SCAN clustering at any ε (the index's query,
  byte-identical to ``scan``; borders and hubs included);
* :meth:`core_partition_at` — the dendrogram's own core partition (used
  to cross-check the tree against the index's query in tests);
* :meth:`persistence_table` — birth/death/size of every cluster node;
* :meth:`suggest_cut` — the midpoint of the widest ε plateau on which
  the clustering does not change (a stability-based default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.validation import check_eps_mu
from repro.graph.csr import Graph
from repro.result import Clustering
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig
from repro.structures.disjoint_set import DisjointSet

__all__ = ["ClusterNode", "EpsilonHierarchy"]


@dataclass
class ClusterNode:
    """One node of the ε-dendrogram.

    ``birth`` is the ε at which this cluster comes into existence (a core
    appearing, or two clusters merging); ``death`` is the ε at which it
    is absorbed into its parent (0 if it survives to ε → 0).
    """

    node_id: int
    birth: float
    death: float = 0.0
    children: Tuple[int, ...] = ()
    size: int = 1
    parent: Optional[int] = None
    representative: int = -1

    @property
    def persistence(self) -> float:
        """ε range over which this exact cluster exists."""
        return self.birth - self.death


class EpsilonHierarchy:
    """Dendrogram of SCAN clusterings over ε for a fixed μ."""

    def __init__(
        self,
        graph: Graph,
        mu: int,
        *,
        similarity: SimilarityConfig | None = None,
        index: ClusteringIndex | None = None,
    ) -> None:
        check_eps_mu(mu=mu)
        self.graph = graph
        self.mu = mu
        if index is not None:
            index.require_compatible(graph=graph, config=similarity)
        else:
            index = ClusteringIndex.build(graph, similarity)
        self.index = index
        # "Never a core" reads 0 and "always a core" reads 1 here.
        self._thresholds = np.clip(index.core_thresholds(mu), 0.0, 1.0)
        self.nodes: Dict[int, ClusterNode] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        thresholds = self._thresholds
        # Vertex activation events, then edge activation events (only
        # edges whose both ends can be core), in one level array.
        vertices = np.flatnonzero(thresholds > 0)
        us, vs, sigmas = self.index.edge.forward_edges()
        tu, tv = thresholds[us], thresholds[vs]
        live = (tu > 0) & (tv > 0) & (sigmas > 0)
        us, vs = us[live], vs[live]
        merge_levels = np.minimum(
            sigmas[live], np.minimum(tu[live], tv[live])
        )
        self._levels = np.concatenate([thresholds[vertices], merge_levels])
        firsts = np.concatenate([vertices, us]).tolist()
        seconds = np.concatenate([vertices, vs]).tolist()
        level_of = self._levels.tolist()
        num_vertex_events = int(vertices.shape[0])
        kinds = np.arange(len(level_of)) >= num_vertex_events

        # Sweep descending; vertex events before merges at equal level,
        # each kind in vertex id / edge order (lexsort is stable).
        dsu = DisjointSet(self.graph.num_vertices)
        node_of_root: Dict[int, int] = {}
        next_id = 0
        for event in np.lexsort((kinds, -self._levels)).tolist():
            level, u = level_of[event], firsts[event]
            if event < num_vertex_events:
                node = ClusterNode(
                    node_id=next_id, birth=level, representative=u
                )
                self.nodes[next_id] = node
                node_of_root[dsu.find(u)] = next_id
                next_id += 1
                continue
            v = seconds[event]
            ru, rv = dsu.find(u), dsu.find(v)
            if ru == rv:
                continue
            left = node_of_root.pop(ru)
            right = node_of_root.pop(rv)
            self.nodes[left].death = level
            self.nodes[right].death = level
            merged = ClusterNode(
                node_id=next_id,
                birth=level,
                children=(left, right),
                size=self.nodes[left].size + self.nodes[right].size,
                representative=self.nodes[left].representative,
            )
            self.nodes[left].parent = next_id
            self.nodes[right].parent = next_id
            self.nodes[next_id] = merged
            dsu.union(u, v)
            node_of_root[dsu.find(u)] = next_id
            next_id += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def roots(self) -> List[ClusterNode]:
        """Nodes alive at ε → 0 (the dendrogram's forest roots)."""
        return [n for n in self.nodes.values() if n.parent is None]

    def cut(self, epsilon: float) -> Clustering:
        """Exact SCAN clustering at (μ, ε) — borders and hubs included."""
        check_eps_mu(epsilon=epsilon)
        return self.index.query(epsilon, self.mu)

    def core_partition_at(self, epsilon: float) -> List[frozenset]:
        """Core partition from the dendrogram itself (for cross-checks).

        A node represents a live cluster at ε iff it was born at or above
        ε and dies strictly below it.
        """
        check_eps_mu(epsilon=epsilon)
        live = [
            node
            for node in self.nodes.values()
            if node.birth >= epsilon > node.death
        ]
        out: List[frozenset] = []
        for node in live:
            members: List[int] = []
            stack = [node.node_id]
            while stack:
                nid = stack.pop()
                current = self.nodes[nid]
                if current.children:
                    stack.extend(current.children)
                else:
                    members.append(current.representative)
            # Restrict to vertices that are cores at this ε.
            cores = [
                v for v in members if self._thresholds[v] >= epsilon
            ]
            if cores:
                out.append(frozenset(cores))
        return out

    def persistence_table(
        self, *, min_size: int = 1
    ) -> List[Tuple[int, float, float, int]]:
        """(node_id, birth, persistence, size), most persistent first."""
        rows = [
            (n.node_id, n.birth, n.persistence, n.size)
            for n in self.nodes.values()
            if n.size >= min_size
        ]
        rows.sort(key=lambda r: -r[2])
        return rows

    def levels(self) -> np.ndarray:
        """Distinct ε levels at which the clustering changes (descending)."""
        return np.unique(self._levels)[::-1]

    def suggest_cut(self, *, min_clusters: int = 2) -> float:
        """ε in the middle of the widest stability plateau.

        Between consecutive event levels the clustering is constant; the
        widest such interval whose clustering has at least
        ``min_clusters`` live clusters is the most stable regime.
        """
        levels = self.levels()
        if levels.shape[0] == 0:
            return 0.5
        # Candidate intervals: (levels[i+1], levels[i]) plus the tails.
        bounds = np.concatenate([[1.0], levels, [0.0]])
        best_eps, best_width = 0.5, -1.0
        for hi, lo in zip(bounds[:-1], bounds[1:]):
            width = hi - lo
            if width <= best_width:
                continue
            eps = (hi + lo) / 2.0
            if eps <= 0.0:
                continue
            alive = sum(
                1
                for n in self.nodes.values()
                if n.birth >= eps > n.death and n.size >= 1
            )
            if alive >= min_clusters:
                best_eps, best_width = eps, width
        return float(best_eps)
