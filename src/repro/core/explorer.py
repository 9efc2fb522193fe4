"""Interactive parameter exploration: many (μ, ε) clusterings, one pass.

The paper's motivation is interactivity under expensive similarity
computation; a natural companion problem (tackled by SCOT and
gSkeletonClu, both cited in Section V) is *parameter setting*: users
rarely know the right (μ, ε) up front.  :class:`ParameterExplorer` is a
view over one :class:`~repro.similarity.gsindex.ClusteringIndex`: it
pays the O(|E|) similarity cost **once** (building the index) and then
answers any ``(μ, ε)`` query with zero σ work:

* ``clustering_at(mu, eps)`` — the exact SCAN result for that setting,
  byte-identical to ``scan(graph, mu, eps)`` (it is ``index.query``);
* ``core_thresholds(mu)`` — per vertex, the largest ε at which it is
  still a core (the index's thresholds, clipped to [0, 1]);
* ``epsilon_candidates(mu)`` — the distinct thresholds where the
  clustering can change, with the number of cores at each — the data a
  UI would render as an "ε slider" with meaningful stops.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.validation import check_eps_mu
from repro.graph.csr import Graph
from repro.result import Clustering
from repro.similarity.counters import SimilarityCounters
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig

__all__ = ["ParameterExplorer"]


class ParameterExplorer:
    """(μ, ε) queries, suggestions and ε stops over one clustering index."""

    def __init__(
        self,
        graph: Graph,
        *,
        similarity: SimilarityConfig | None = None,
        index: ClusteringIndex | None = None,
    ) -> None:
        self.graph = graph
        self.counters = SimilarityCounters()
        if index is not None:
            # A prebuilt index already holds every σ this explorer
            # would compute; adopt it and charge nothing.
            index.require_compatible(graph=graph, config=similarity)
        else:
            index = ClusteringIndex.build(graph, similarity)
            # Charge what one scalar σ per edge costs: |N_u| + |N_v|.
            us, vs, _ = index.edge.forward_edges()
            degrees = graph.degrees
            self.counters.record_sigma_batch(
                int(us.shape[0]), float((degrees[us] + degrees[vs]).sum())
            )
        self.index = index

    @property
    def precompute_cost(self) -> float:
        """Work units spent on the one-time σ table."""
        return self.counters.work_units

    def sigma_values(self) -> np.ndarray:
        """All |E| edge similarities in ``graph.edges()`` order (a copy)."""
        return self.index.edge.forward_edges()[2].copy()

    def core_thresholds(self, mu: int) -> np.ndarray:
        """Per vertex: largest ε at which it is a core (0 if never, 1 if
        at every ε).

        A vertex needs ``μ`` ε-similar neighbors counting itself (when
        ``count_self``), i.e. its (μ-1)-th largest incident σ must reach
        ε; without self-counting, the μ-th largest.
        """
        check_eps_mu(mu=mu)
        return np.clip(self.index.core_thresholds(mu), 0.0, 1.0)

    def cores_at(self, mu: int, epsilon: float) -> np.ndarray:
        """Boolean core mask for the given parameters."""
        check_eps_mu(mu=mu, epsilon=epsilon)
        return self.index.core_mask(epsilon, mu)

    def clustering_at(self, mu: int, epsilon: float) -> Clustering:
        """Exact SCAN clustering for ``(μ, ε)``: ``scan(graph, mu, eps)``."""
        check_eps_mu(mu=mu, epsilon=epsilon)
        return self.index.query(epsilon, mu)

    def epsilon_candidates(self, mu: int) -> List[Tuple[float, int]]:
        """Distinct ε thresholds and how many cores survive each.

        The clustering can only change at an edge's σ or a vertex's core
        threshold; this returns the (descending) core-threshold steps —
        the natural stops for an interactive ε slider.
        """
        check_eps_mu(mu=mu)
        thresholds = self.core_thresholds(mu)
        distinct = np.unique(thresholds[thresholds > 0])[::-1]
        return [
            (float(eps), int(np.sum(thresholds >= eps))) for eps in distinct
        ]

    def suggest_epsilon(
        self,
        mu: int,
        *,
        min_cores: int = 2,
        objective: str = "modularity",
        grid: int = 12,
    ) -> float:
        """Data-driven ε suggestion.

        ``objective="modularity"`` (default) evaluates a quantile grid of
        core-threshold candidates and returns the ε whose clustering
        maximizes modularity — each probe is one σ-free index query.
        ``objective="gap"`` returns the midpoint of the widest gap in
        the sorted core-threshold profile (a knee heuristic, no
        clustering probes).
        """
        check_eps_mu(mu=mu)
        thresholds = np.sort(self.core_thresholds(mu))[::-1]
        eligible = thresholds[thresholds > 0]
        if eligible.shape[0] < max(min_cores, 2):
            return 0.5  # nothing to suggest; SCAN's common default
        if objective == "gap":
            tail = eligible[max(min_cores, 2) - 1 :]
            gaps = -np.diff(tail)
            if gaps.shape[0] == 0:
                return float(tail[0])
            k = int(np.argmax(gaps))
            return float((tail[k] + tail[k + 1]) / 2.0)
        if objective != "modularity":
            raise ConfigError(
                f"unknown objective {objective!r}; 'modularity' or 'gap'"
            )
        from repro.metrics.quality import modularity as modularity_of

        quantiles = np.linspace(0.02, 0.98, max(grid, 2))
        candidates = np.unique(np.quantile(eligible, quantiles))
        best_eps, best_q = 0.5, -np.inf
        for eps in candidates:
            eps = float(min(max(eps, 1e-9), 1.0))
            result = self.clustering_at(mu, eps)
            if result.num_clusters < 1:
                continue
            q = modularity_of(self.graph, result)
            if q > best_q:
                best_eps, best_q = eps, q
        return best_eps
