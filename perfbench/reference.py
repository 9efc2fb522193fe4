"""Reference answers, computed in the benchmark process after timing.

σ comes from a fresh :class:`EdgeSimilarityIndex` build over the
generated edges (never from the program under test's own state); the
clustering is then replayed here with whole-array operations, following
the definition of sequential SCAN (``repro.baselines.scan.scan``):
cores are vertices with ≥ μ ε-neighbours (themselves included), cluster
ids follow the seeded visit order of each cluster's first core, a
shared border joins the smallest adjacent cluster id, and non-members
are hubs when adjacent to two clusters, outliers otherwise.  The smoke
test pins this replay to ``scan`` on small graphs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from perfbench.common import BenchError

HUB, OUTLIER = -1, -2  # repro.result's labels for non-members


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component representative (min vertex id) per vertex."""
    comp = np.arange(n, dtype=np.int64)
    while True:
        nxt = comp.copy()
        np.minimum.at(nxt, a, comp[b])
        np.minimum.at(nxt, b, comp[a])
        nxt = nxt[nxt]
        if np.array_equal(nxt, comp):
            return comp
        comp = nxt


class Reference:
    """Exact SCAN answers for one graph (cosine σ, closed neighbourhoods)."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        from repro.graph.csr import Graph
        from repro.similarity.index import EdgeSimilarityIndex

        self.n = n
        edges = np.asarray(edges, dtype=np.int64)
        both = np.concatenate([edges, edges[:, ::-1]])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        self.owners, self.nbrs = both[:, 0], both[:, 1]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.owners, minlength=n), out=indptr[1:])
        graph = Graph(indptr, self.nbrs, np.ones(self.nbrs.shape[0]))
        self.sigmas = EdgeSimilarityIndex.build(graph).sigmas
        self._cache: Dict[Tuple[float, int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def clustering(
        self, eps: float, mu: int, seed: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(labels, core_mask)`` exactly as ``scan(graph, mu, eps, seed)``."""
        key = (eps, mu, seed)
        if key in self._cache:
            return self._cache[key]
        n, owners, nbrs = self.n, self.owners, self.nbrs
        qualifying = self.sigmas >= eps
        core = np.bincount(owners[qualifying], minlength=n) + 1 >= mu
        from_core = qualifying & core[owners]
        cc = from_core & core[nbrs]
        comp = _components(n, owners[cc], nbrs[cc])
        rank = np.empty(n, dtype=np.int64)
        rank[np.random.default_rng(seed).permutation(n)] = np.arange(n)
        first = np.full(n, n, dtype=np.int64)
        cores = np.flatnonzero(core)
        np.minimum.at(first, comp[cores], rank[cores])
        roots = np.flatnonzero(first < n)
        cid = np.full(n, -1, dtype=np.int64)
        cid[roots[np.argsort(first[roots], kind="stable")]] = np.arange(
            roots.shape[0]
        )
        labels = np.full(n, -4, dtype=np.int64)
        labels[cores] = cid[comp[cores]]
        border = from_core & ~core[nbrs]
        best = np.full(n, n, dtype=np.int64)
        np.minimum.at(best, nbrs[border], labels[owners[border]])
        attach = best < n
        labels[attach] = best[attach]
        # Hubs touch two distinct clusters; every other non-member is an
        # outlier.
        outside = labels < 0
        touching = outside[owners] & (labels[nbrs] >= 0)
        pairs = np.unique(
            np.stack([owners[touching], labels[nbrs[touching]]], axis=1),
            axis=0,
        )
        distinct = np.bincount(pairs[:, 0], minlength=n) if pairs.size else \
            np.zeros(n, dtype=np.int64)
        labels[outside] = np.where(distinct[outside] >= 2, HUB, OUTLIER)
        self._cache[key] = (labels, core)
        return labels, core

    # ------------------------------------------------------------------
    # checks (each raises BenchError on a wrong answer)
    # ------------------------------------------------------------------
    def check_exact(self, what: str, eps: float, mu: int, labels) -> None:
        """Byte-identical to sequential SCAN (index-served answers)."""
        expected, _ = self.clustering(eps, mu)
        got = np.asarray(labels, dtype=np.int64)
        if got.shape != expected.shape or not np.array_equal(got, expected):
            wrong = int(np.count_nonzero(got != expected)) \
                if got.shape == expected.shape else -1
            raise BenchError(
                f"{what} at eps={eps} mu={mu}: {wrong} labels differ "
                "from the sequential SCAN reference"
            )

    def check_equivalent(self, what: str, eps: float, mu: int, labels) -> None:
        """SCAN-equivalent (anySCAN may place a shared border in another
        adjacent cluster): same members, same core partition, and every
        border attached to a same-cluster core by a qualifying edge."""
        expected, core = self.clustering(eps, mu)
        got = np.asarray(labels, dtype=np.int64)
        problems: List[str] = []
        if got.shape != expected.shape:
            raise BenchError(f"{what}: {got.shape[0]} labels for {self.n} vertices")
        if not np.array_equal(got >= 0, expected >= 0):
            problems.append("member sets differ")
        cores = np.flatnonzero(core)
        pairs = np.unique(
            np.stack([expected[cores], got[cores]], axis=1), axis=0
        )
        if (pairs[:, 1] < 0).any() or \
                np.unique(pairs[:, 0]).shape[0] != pairs.shape[0] or \
                np.unique(pairs[:, 1]).shape[0] != pairs.shape[0]:
            problems.append("core partitions differ")
        owners, nbrs = self.owners, self.nbrs
        borders = (got >= 0) & ~core
        ok = (self.sigmas >= eps) & core[nbrs] & (got[owners] == got[nbrs])
        attached = np.zeros(self.n, dtype=bool)
        attached[owners[ok]] = True
        if (borders & ~attached).any():
            problems.append("a border has no qualifying same-cluster core")
        if problems:
            raise BenchError(
                f"{what} at eps={eps} mu={mu}: " + "; ".join(problems)
            )

    def check_local(self, what: str, eps: float, mu: int, vertex: int,
                    body: dict) -> None:
        """The seed vertex's cluster (members and role) as SCAN has it."""
        labels, core = self.clustering(eps, mu)
        label = int(labels[vertex])
        members = np.flatnonzero(labels == label).tolist() if label >= 0 else []
        if core[vertex]:
            role = "core"
        elif label >= 0:
            role = "border"
        else:
            role = "hub" if label == HUB else "outlier"
        if body.get("members") != members or body.get("seed_role") != role:
            raise BenchError(
                f"{what}: local cluster of {vertex} at eps={eps} mu={mu} "
                f"has {len(body.get('members') or [])} members "
                f"({body.get('seed_role')}), reference {len(members)} ({role})"
            )
