"""σ-resolution tiers for seeded local clustering.

A local query needs two primitives per touched vertex: "is ``v`` a
μ-core at ε?" and "which neighbors of ``v`` have σ ≥ ε?".  Two tiers
answer them at very different costs, and :func:`repro.local.local_cluster`
picks the best available automatically:

``cluster-index``
    :class:`~repro.similarity.gsindex.ClusteringIndex` — core check is a
    single precomputed-threshold read, the ε-neighborhood is a binary
    search over the σ-sorted row.  **Zero** σ evaluations; the touched
    work is the qualifying prefix, not the degree.
``oracle``
    :class:`~repro.similarity.weighted.SimilarityOracle` — batched
    on-the-fly kernels (``sigma_batch`` under ``eps_neighborhood``);
    ``deg(v)`` σ evaluations per touched vertex, charged to the oracle's
    :class:`~repro.similarity.counters.SimilarityCounters` exactly as
    the global algorithms charge them.

Tier instances keep *query-local* stats (``touched_edges``,
``sigma_evaluations``, …) separate from any shared counters, so a
threaded service can report per-request numbers without double-counting
a shared index's global accounting.  Tiers are not thread-safe; build
one per query.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import _SEMANTIC_FIELDS
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.validation import check_eps_mu

__all__ = [
    "SigmaTier",
    "ClusterIndexTier",
    "OracleTier",
    "build_tiers",
]


class SigmaTier:
    """Interface one σ-resolution tier presents to the local search."""

    #: Human-readable tier name (appears in stats, metrics, benches).
    name: str = "abstract"
    #: Whether :meth:`core_check` is cheaper than reading the hood.
    fast_core_check: bool = False

    def __init__(self) -> None:
        self.touched_edges = 0
        self.sigma_evaluations = 0
        self.neighborhood_queries = 0
        self.core_checks = 0

    @property
    def count_self(self) -> bool:
        raise NotImplementedError

    def qualifying(self, v: int, epsilon: float) -> np.ndarray:
        """Neighbors of ``v`` with σ(v, ·) ≥ ε, ascending ids."""
        check_eps_mu(epsilon=epsilon)
        raise NotImplementedError

    def core_check(self, v: int, mu: int, epsilon: float) -> bool:
        """Direct core test; only when :attr:`fast_core_check`."""
        check_eps_mu(mu=mu, epsilon=epsilon)
        raise NotImplementedError

    def stats(self) -> Dict[str, int]:
        return {
            "tier": self.name,
            "touched_edges": int(self.touched_edges),
            "sigma_evaluations": int(self.sigma_evaluations),
            "neighborhood_queries": int(self.neighborhood_queries),
            "core_checks": int(self.core_checks),
        }


class ClusterIndexTier(SigmaTier):
    """Tier 1: the GS*-style :class:`ClusteringIndex` (0 σ evals)."""

    name = "cluster-index"
    fast_core_check = True

    def __init__(self, index: ClusteringIndex) -> None:
        super().__init__()
        self.index = index

    @property
    def count_self(self) -> bool:
        return bool(self.index.config.count_self)

    def qualifying(self, v: int, epsilon: float) -> np.ndarray:
        check_eps_mu(epsilon=epsilon)
        fault_point("local.index_query")
        hood = self.index.eps_neighborhood(v, epsilon)
        # A binary search finds the qualifying prefix; only that prefix
        # of the σ-sorted row is materialized, so the touched work is
        # output-proportional, not degree-proportional.
        self.touched_edges += int(hood.shape[0])
        self.neighborhood_queries += 1
        return hood

    def core_check(self, v: int, mu: int, epsilon: float) -> bool:
        check_eps_mu(mu=mu, epsilon=epsilon)
        fault_point("local.index_query")
        self.core_checks += 1
        return self.index.core_epsilon(v, mu) >= epsilon


class OracleTier(SigmaTier):
    """Tier 2: on-the-fly batched σ kernels (index-less graphs).

    Constructed lazily: the oracle's O(n + m) invariant precompute only
    runs if this tier actually serves a query, so an index-backed chain
    that never degrades stays output-proportional.
    """

    name = "oracle"
    fast_core_check = False

    def __init__(
        self,
        oracle: Optional[SimilarityOracle] = None,
        *,
        graph: Optional[Graph] = None,
        config: Optional[SimilarityConfig] = None,
    ) -> None:
        super().__init__()
        if oracle is None and graph is None:
            raise ConfigError("OracleTier needs an oracle or a graph")
        self._oracle = oracle
        self._graph = graph
        self._config = config

    @property
    def oracle(self) -> SimilarityOracle:
        if self._oracle is None:
            self._oracle = SimilarityOracle(self._graph, self._config)
        return self._oracle

    @property
    def count_self(self) -> bool:
        if self._oracle is not None:
            return bool(self._oracle.config.count_self)
        config = self._config or SimilarityConfig()
        return bool(config.count_self)

    def qualifying(self, v: int, epsilon: float) -> np.ndarray:
        check_eps_mu(epsilon=epsilon)
        # oracle.eps_neighborhood carries its own fault site
        # ("sigma.query") and charges the oracle's shared counters; the
        # tier keeps a per-query delta for the response stats.
        before = int(self.oracle.counters.sigma_evaluations)
        hood = self.oracle.eps_neighborhood(v, epsilon)
        self.sigma_evaluations += (
            int(self.oracle.counters.sigma_evaluations) - before
        )
        self.touched_edges += int(self.oracle.graph.degree(v))
        self.neighborhood_queries += 1
        return hood


def build_tiers(
    graph: Graph,
    *,
    cluster_index: Optional[ClusteringIndex] = None,
    oracle: Optional[SimilarityOracle] = None,
    similarity_config: Optional[SimilarityConfig] = None,
) -> List[SigmaTier]:
    """Degradation chain of usable tiers, best first.

    Compatibility with ``graph`` (fingerprint) and the σ semantics is
    enforced up front — a stale index must fail loudly, not silently
    answer for the wrong graph.  The oracle tier is always appended as
    the last resort (built lazily from ``similarity_config`` when the
    caller did not pass one), so every chain can degrade to a tier that
    needs no precomputation.
    """
    tiers: List[SigmaTier] = []
    config = similarity_config
    if cluster_index is not None:
        cluster_index.require_compatible(graph=graph, config=config)
        config = config or cluster_index.config
        tiers.append(ClusterIndexTier(cluster_index))
    if oracle is not None:
        if config is not None and any(
            getattr(oracle.config, name) != getattr(config, name)
            for name in _SEMANTIC_FIELDS
        ):
            raise ConfigError(
                "oracle similarity semantics disagree with the supplied "
                "index/config"
            )
        tiers.append(OracleTier(oracle))
    else:
        # Pruning is a query-time optimization with no effect on the
        # σ values themselves; reuse the index's semantic fields but
        # keep the reference default (no pruning) like baselines.scan.
        if config is None:
            oracle_config = SimilarityConfig(pruning=False)
        else:
            oracle_config = SimilarityConfig(
                closed=config.closed,
                self_weight=config.self_weight,
                count_self=config.count_self,
                pruning=False,
                kind=config.kind,
            )
        tiers.append(OracleTier(graph=graph, config=oracle_config))
    return tiers
