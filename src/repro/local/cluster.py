"""Seeded local structural clustering: exact scan replay from one seed.

``local_cluster(graph, seed, epsilon, mu)`` returns exactly the cluster
the reference :func:`repro.baselines.scan.scan` would assign the seed at
``(ε, μ, order_seed)`` — byte-identical members and roles — while
touching only the neighborhood of the answer (plus whatever competing
clusters are needed to adjudicate contested borders), in the spirit of
*Parallel Local Graph Clustering* (Shun et al.).

Why an exact local replay is possible
-------------------------------------
The sequential reference's outcome is a pure function of structures a
local search can discover incrementally (the same argument behind
:meth:`repro.similarity.gsindex.ClusteringIndex.query`):

* the member partition of cores equals the connected components of the
  qualifying (σ ≥ ε) core-core subgraph — discoverable by a frontier
  expansion from the seed that resolves core-ness lazily;
* cluster ids are assigned in discovery order along the seeded vertex
  permutation, so a component's identity is the minimal permutation
  rank among its cores ("min-rank");
* a shared border keeps its *first* cluster — the adjacent component
  with the smallest min-rank — so a contested border is adjudicated by
  expanding only the components that actually compete for it;
* hubs and outliers depend only on the memberships of their direct
  neighbors (:func:`repro.baselines._postprocess.classify_non_members`).

The only Ω(n) work is materializing the rank array of the seeded
permutation (pure array arithmetic, no σ); every σ-bearing touch is
proportional to the discovered clusters' neighborhoods.

Degradation
-----------
σ resolution goes through the tier chain from :mod:`repro.local.tiers`;
if a tier faults mid-query the search restarts on the next tier and a
:class:`~repro.parallel.processes.DegradationEvent` is emitted through
the process-wide listener channel (the service bridges it into
``/metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import Graph
from repro.graph.traversal import frontier_expand
from repro.local.tiers import SigmaTier, build_tiers
from repro.parallel.processes import DegradationEvent, emit_degradation
from repro.result import VertexRole
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle
from repro.validation import check_eps_mu

__all__ = ["LocalQueryStats", "LocalClusterResult", "local_cluster"]


@dataclass(frozen=True)
class LocalQueryStats:
    """Work accounting for one local query (per-request, not shared)."""

    tier: str
    touched_edges: int
    sigma_evaluations: int
    neighborhood_queries: int
    core_checks: int
    touched_vertices: int
    components_expanded: int
    degraded_from: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "tier": self.tier,
            "touched_edges": self.touched_edges,
            "sigma_evaluations": self.sigma_evaluations,
            "neighborhood_queries": self.neighborhood_queries,
            "core_checks": self.core_checks,
            "touched_vertices": self.touched_vertices,
            "components_expanded": self.components_expanded,
            "degraded_from": list(self.degraded_from),
        }


@dataclass(frozen=True)
class LocalClusterResult:
    """The seed's cluster exactly as the reference scan would report it.

    ``members`` is empty when the seed is a hub or outlier; ``boundary``
    maps each non-member vertex adjacent to the cluster to the role the
    global clustering would assign it (so hubs/outliers are classified
    relative to the discovered boundary).  ``touched`` is the read set —
    every vertex whose σ row or adjacency the query inspected — which is
    what makes exact cache invalidation under edge updates possible:
    an update that doesn't intersect the read set cannot change the
    answer (σ changes are confined to the endpoints' neighborhoods).
    """

    seed: int
    epsilon: float
    mu: int
    order_seed: int
    seed_role: VertexRole
    members: np.ndarray
    core_members: np.ndarray
    border_members: np.ndarray
    boundary: Dict[int, VertexRole]
    cluster_rank: Optional[int]
    stats: LocalQueryStats
    touched: FrozenSet[int] = field(default=frozenset())

    @property
    def cluster_size(self) -> int:
        return int(self.members.shape[0])

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (service responses, CLI ``--json``)."""
        return {
            "seed": self.seed,
            "epsilon": self.epsilon,
            "mu": self.mu,
            "order_seed": self.order_seed,
            "seed_role": self.seed_role.name.lower(),
            "members": [int(v) for v in self.members.tolist()],
            "core_members": [int(v) for v in self.core_members.tolist()],
            "border_members": [int(v) for v in self.border_members.tolist()],
            "boundary": {
                str(v): role.name.lower()
                for v, role in sorted(self.boundary.items())
            },
            "cluster_size": self.cluster_size,
            "cluster_rank": self.cluster_rank,
            "stats": self.stats.to_dict(),
        }


class _Component:
    """One connected component of the qualifying core-core subgraph."""

    __slots__ = ("cores", "border_candidates", "min_rank")

    def __init__(
        self, cores: Set[int], border_candidates: Set[int], min_rank: int
    ) -> None:
        self.cores = cores
        self.border_candidates = border_candidates
        self.min_rank = min_rank


class _LocalSearch:
    """Memoized frontier machinery shared by one query's phases."""

    def __init__(
        self, graph: Graph, tier: SigmaTier, epsilon: float, mu: int,
        rank: np.ndarray,
    ) -> None:
        self.graph = graph
        self.tier = tier
        self.epsilon = epsilon
        self.mu = mu
        self.rank = rank
        self.self_count = 1 if tier.count_self else 0
        self._hoods: Dict[int, np.ndarray] = {}
        self._core_known: Dict[int, bool] = {}
        self._comp_of: Dict[int, _Component] = {}
        self._attach_of: Dict[int, Optional[_Component]] = {}
        self.components_expanded = 0
        self.touched: Set[int] = set()

    # -- σ-row primitives (each row resolved at most once) -------------
    def hood(self, v: int) -> np.ndarray:
        hood = self._hoods.get(v)
        if hood is None:
            hood = self.tier.qualifying(v, self.epsilon)
            self._hoods[v] = hood
            self.touched.add(v)
        return hood

    def is_core(self, v: int) -> bool:
        known = self._core_known.get(v)
        if known is None:
            if self.tier.fast_core_check and v not in self._hoods:
                known = self.tier.core_check(v, self.mu, self.epsilon)
                self.touched.add(v)
            else:
                size = self.hood(v).shape[0] + self.self_count
                known = size >= self.mu
            self._core_known[v] = known
        return known

    # -- component expansion -------------------------------------------
    def expand(self, start_core: int) -> _Component:
        """The qualifying core-core component containing ``start_core``.

        Memoized: contested-border adjudication revisits competitor
        components, and every core of a discovered component maps to
        the same :class:`_Component` object.
        """
        comp = self._comp_of.get(start_core)
        if comp is not None:
            return comp
        candidates: Set[int] = set()

        def successors(v: int) -> List[int]:
            nxt: List[int] = []
            for q in self.hood(v):
                q = int(q)
                if self.is_core(q):
                    nxt.append(q)
                else:
                    candidates.add(q)
            return nxt

        cores = set(frontier_expand([start_core], successors))
        min_rank = min(int(self.rank[c]) for c in cores)
        comp = _Component(cores, candidates, min_rank)
        for c in cores:
            self._comp_of[c] = comp
        self.components_expanded += 1
        return comp

    def attach_component(self, q: int) -> Optional[_Component]:
        """The component a non-core ``q`` joins as border, or ``None``.

        The reference attaches a shared border to the *first* cluster
        that reaches it; clusters are discovered in min-rank order, so
        the winner is the adjacent qualifying component with the
        smallest min-rank.
        """
        if q in self._attach_of:
            return self._attach_of[q]
        best: Optional[_Component] = None
        for u in self.hood(q):
            u = int(u)
            if self.is_core(u):
                comp = self.expand(u)
                if best is None or comp.min_rank < best.min_rank:
                    best = comp
        self._attach_of[q] = best
        return best

    def membership(self, v: int) -> Optional[_Component]:
        """The component ``v`` is a member of (core or border), if any."""
        if self.is_core(v):
            return self.expand(v)
        return self.attach_component(v)

    def non_member_role(self, v: int) -> VertexRole:
        """HUB/OUTLIER for a vertex that joins no cluster.

        Mirrors :func:`repro.baselines._postprocess.classify_non_members`:
        a non-member bridging ≥ 2 distinct clusters is a hub.  Distinct
        clusters ⇔ distinct components (ids are injective in min-rank).
        """
        self.touched.add(v)  # reads v's adjacency
        seen: Set[int] = set()
        for r in self.graph.neighbors(v):
            comp = self.membership(int(r))
            if comp is not None:
                seen.add(comp.min_rank)
                if len(seen) >= 2:
                    return VertexRole.HUB
        return VertexRole.OUTLIER


def _resolve(
    graph: Graph,
    tier: SigmaTier,
    seed: int,
    epsilon: float,
    mu: int,
    rank: np.ndarray,
    classify_boundary: bool,
) -> Tuple[
    _LocalSearch,
    Optional[_Component],
    VertexRole,
    np.ndarray,
    np.ndarray,
    Dict[int, VertexRole],
]:
    """Run one tier's *entire* search (so degradation can restart it).

    Returns the search (for stats/read-set), the seed's component (or
    ``None``), the seed's role, sorted core/border member arrays, and
    the boundary classification.
    """
    search = _LocalSearch(graph, tier, epsilon, mu, rank)
    if search.is_core(seed):
        comp: Optional[_Component] = search.expand(seed)
        seed_role = VertexRole.CORE
    else:
        comp = search.attach_component(seed)
        if comp is not None:
            seed_role = VertexRole.BORDER
        else:
            seed_role = search.non_member_role(seed)

    boundary: Dict[int, VertexRole] = {}
    if comp is None:
        cores = np.zeros(0, dtype=np.int64)
        borders = np.zeros(0, dtype=np.int64)
        return search, comp, seed_role, cores, borders, boundary

    core_list = sorted(comp.cores)
    border_list = sorted(
        q for q in comp.border_candidates
        if search.attach_component(q) is comp
    )
    cores = np.asarray(core_list, dtype=np.int64)
    borders = np.asarray(border_list, dtype=np.int64)
    if classify_boundary:
        member_set = set(core_list) | set(border_list)
        fringe: Set[int] = set()
        for m in member_set:
            search.touched.add(m)  # reads m's adjacency
            for r in graph.neighbors(m):
                r = int(r)
                if r not in member_set:
                    fringe.add(r)
        for b in sorted(fringe):
            other = search.membership(b)
            if other is not None:
                boundary[b] = (
                    VertexRole.CORE
                    if search.is_core(b)
                    else VertexRole.BORDER
                )
            else:
                boundary[b] = search.non_member_role(b)
    return search, comp, seed_role, cores, borders, boundary


def local_cluster(
    graph: Graph,
    seed: int,
    epsilon: float,
    mu: int,
    *,
    cluster_index: Optional[ClusteringIndex] = None,
    oracle: Optional[SimilarityOracle] = None,
    similarity_config: Optional[SimilarityConfig] = None,
    order_seed: int = 0,
    classify_boundary: bool = True,
) -> LocalClusterResult:
    """Exactly the seed's cluster under ``scan(graph, μ, ε, order_seed)``.

    Parameters
    ----------
    graph:
        The undirected (optionally weighted) graph.
    seed:
        The query vertex whose cluster is wanted.
    epsilon, mu:
        SCAN's density parameters (Definition 3).
    cluster_index, oracle, similarity_config:
        σ-resolution inputs; the best available tier is chosen
        automatically (cluster index → batched oracle) and a faulting
        index tier degrades to the oracle with a witnessed
        :class:`DegradationEvent`.
    order_seed:
        The reference scan's vertex-visit shuffle seed; shared borders
        may move between clusters under different orders, and this
        replays the same order.
    classify_boundary:
        Also classify every non-member vertex adjacent to the cluster
        (core/border of another cluster, hub, or outlier), exactly as
        the global clustering would.

    Returns
    -------
    LocalClusterResult
        Members, roles, boundary classification, work stats, and the
        touched read set (for exact cache invalidation).
    """
    check_eps_mu(mu=mu, epsilon=epsilon)
    if not 0 <= int(seed) < graph.num_vertices:
        raise GraphError(f"seed {seed} out of range")
    seed = int(seed)

    tiers = build_tiers(
        graph,
        cluster_index=cluster_index,
        oracle=oracle,
        similarity_config=similarity_config,
    )

    # Rank of each vertex in the reference's seeded visit permutation:
    # the only O(n) step, pure array arithmetic with zero σ work.
    rng = np.random.default_rng(order_seed)
    perm = rng.permutation(graph.num_vertices)
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[perm] = np.arange(graph.num_vertices, dtype=np.int64)

    degraded_from: List[str] = []
    last = len(tiers) - 1
    for pos, tier in enumerate(tiers):
        try:
            search, comp, seed_role, cores, borders, boundary = _resolve(
                graph, tier, seed, epsilon, mu, rank, classify_boundary
            )
            break
        except Exception as exc:
            if pos == last:
                raise
            degraded_from.append(tier.name)
            emit_degradation(
                DegradationEvent(
                    backend=f"local-{tier.name}",
                    reason=f"{type(exc).__name__}: {exc}",
                    failures=1,
                    workers=0,
                )
            )

    if comp is None:
        members = np.zeros(0, dtype=np.int64)
        cluster_rank: Optional[int] = None
    else:
        members = np.unique(np.concatenate([cores, borders]))
        cluster_rank = comp.min_rank

    tier_stats = search.tier.stats()
    stats = LocalQueryStats(
        tier=str(tier_stats["tier"]),
        touched_edges=int(tier_stats["touched_edges"]),
        sigma_evaluations=int(tier_stats["sigma_evaluations"]),
        neighborhood_queries=int(tier_stats["neighborhood_queries"]),
        core_checks=int(tier_stats["core_checks"]),
        touched_vertices=len(search.touched),
        components_expanded=search.components_expanded,
        degraded_from=tuple(degraded_from),
    )
    return LocalClusterResult(
        seed=seed,
        epsilon=float(epsilon),
        mu=int(mu),
        order_seed=int(order_seed),
        seed_role=seed_role,
        members=members,
        core_members=cores,
        border_members=borders,
        boundary=boundary,
        cluster_rank=cluster_rank,
        stats=stats,
        touched=frozenset(search.touched),
    )
