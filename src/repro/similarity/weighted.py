"""Weighted structural similarity (Definition 1) and its oracle.

The paper defines

    σ(p, q) = Σ_{r ∈ N_p ∩ N_q} w_pr · w_qr
              / sqrt( (Σ_{r ∈ N_p} w_pr²) · (Σ_{r ∈ N_q} w_qr²) )

and claims SCAN's unweighted similarity is the all-ones special case.
Classic SCAN uses *closed* neighborhoods Γ(p) = N(p) ∪ {p}; the claim only
holds in that reading, so closed neighborhoods (with a configurable
self-weight, default 1.0) are the default here, and an ``closed=False``
literal mode implements Definition 1 verbatim.  Every algorithm in the
repository shares one :class:`SimilarityOracle`, so comparisons between
algorithms are always internally consistent.  Its per-pair σ is computed
in the arithmetic of :mod:`repro.similarity.kernels` (the same terms,
summed in the same order, over the same denominator), so per-pair,
batched and indexed σ agree bit for bit, and every threshold test —
pruned, early-exited or not — decides ``σ ≥ ε`` on that value.

Per-vertex invariants are precomputed once (the paper's preprocessing
step): the squared length ``l_p`` and the maximum incident weight ``w_p``
used by the Lemma 5 pruning bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.similarity import kernels
from repro.similarity.counters import SimilarityCounters

__all__ = ["SimilarityConfig", "SimilarityOracle"]


@dataclass(frozen=True)
class SimilarityConfig:
    """Choices that fix the similarity semantics.

    Attributes
    ----------
    closed:
        Use closed neighborhoods Γ(p) = N(p) ∪ {p} (classic SCAN).  When
        ``False``, Definition 1 is applied verbatim over open neighborhoods.
    self_weight:
        Weight of the implicit self-edge in closed mode.
    count_self:
        Whether ``p`` itself counts toward ``|N_p^ε|`` in the core test
        (also in open mode, where σ(p, p) need not be 1).  Classic SCAN
        counts it.
    pruning:
        Enable the Lemma 5 constant-time filter and early exit in
        threshold tests (the Section III-D optimizations); they change
        counters, never a σ ≥ ε answer.  Only
        available for the ``"cosine"`` kind, whose bound Lemma 5 targets.
    kind:
        Which structural similarity to use.  ``"cosine"`` is the paper's
        Definition 1; ``"jaccard"``, ``"dice"``, and ``"overlap"`` are
        the weighted set-similarity variants used elsewhere in the SCAN
        literature (min/max, Dice, and overlap coefficients over the
        neighborhood weight vectors).  All reduce to their classic
        unweighted forms when every weight is 1.
    """

    closed: bool = True
    self_weight: float = 1.0
    count_self: bool = True
    pruning: bool = True
    kind: str = "cosine"

    _KINDS = ("cosine", "jaccard", "dice", "overlap")

    def validate(self) -> None:
        if self.self_weight <= 0:
            raise ConfigError("self_weight must be positive")
        if self.kind not in self._KINDS:
            raise ConfigError(
                f"unknown similarity kind {self.kind!r}; one of {self._KINDS}"
            )
        if self.pruning and self.kind != "cosine":
            raise ConfigError(
                "Lemma 5 pruning is only sound for the cosine kind; "
                "pass pruning=False for set-similarity variants"
            )


class SimilarityOracle:
    """Precomputed similarity evaluator for one graph.

    All σ evaluations go through this object so the instrumentation in
    :class:`~repro.similarity.counters.SimilarityCounters` sees every one
    of them (Figure 7 of the paper is regenerated from these counters).
    """

    def __init__(
        self,
        graph: Graph,
        config: SimilarityConfig | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or SimilarityConfig()
        self.config.validate()
        self.counters = SimilarityCounters()
        self._lengths, self._max_weights, self._linear_sums = (
            self._precompute()
        )
        self._edge_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # preprocessing (O(|E|) total, as in the paper)
    # ------------------------------------------------------------------
    def _precompute(self) -> tuple:
        graph, cfg = self.graph, self.config
        n = graph.num_vertices
        lengths = np.zeros(n, dtype=np.float64)
        max_weights = np.zeros(n, dtype=np.float64)
        linear = np.zeros(n, dtype=np.float64)
        weights = graph.weights
        nonempty = graph.degrees > 0
        starts = graph.indptr[:-1][nonempty]
        if starts.shape[0]:
            # Segmented reductions over the CSR weight array: reduceat
            # segments run from each nonempty row's start to the next,
            # skipping empty rows (whose start equals the next start).
            lengths[nonempty] = np.add.reduceat(weights * weights, starts)
            linear[nonempty] = np.add.reduceat(weights, starts)
            max_weights[nonempty] = np.maximum.reduceat(weights, starts)
        if cfg.closed:
            lengths += cfg.self_weight * cfg.self_weight
            linear += cfg.self_weight
        return lengths, max_weights, linear

    @property
    def lengths(self) -> np.ndarray:
        """Squared lengths ``l_p`` (with the self term in closed mode)."""
        return self._lengths

    @property
    def max_weights(self) -> np.ndarray:
        """Per-vertex maximum incident edge weight ``w_p``."""
        return self._max_weights

    @property
    def linear_sums(self) -> np.ndarray:
        """Per-vertex linear weight sums (set-similarity denominators)."""
        return self._linear_sums

    # ------------------------------------------------------------------
    # core similarity
    # ------------------------------------------------------------------
    def _pair_rows(self, p: int, q: int) -> tuple:
        """``((N_p, w_p, N_q, w_q), extra)``: both CSR rows, read straight
        from ``indptr``/``indices``/``weights`` as the kernels read them,
        and ``extra``, the closed-mode r = p and r = q numerator terms
        (so σ(p, p) = 1), which :func:`kernels.pair_overlaps` also adds
        once, after the common-neighbour sum."""
        graph, cfg = self.graph, self.config
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        a, b, c, d = indptr[p], indptr[p + 1], indptr[q], indptr[q + 1]
        p_nbrs, p_weights = indices[a:b], weights[a:b]
        extra, sw, cosine = 0.0, cfg.self_weight, cfg.kind == "cosine"
        if cfg.closed and p == q:
            extra = sw * sw if cosine else sw
        elif cfg.closed:
            pos = int(p_nbrs.searchsorted(q))
            if pos < p_nbrs.shape[0] and int(p_nbrs[pos]) == q:
                w_pq = float(p_weights[pos])
                extra = 2.0 * sw * w_pq if cosine else 2.0 * min(sw, w_pq)
        return (p_nbrs, p_weights, indices[c:d], weights[c:d]), extra

    def _running_sums(self, p_nbrs, p_weights, q_nbrs, q_weights):
        """Running sum of the terms ``w_pr · w_qr`` (cosine) or
        ``min(w_pr, w_qr)`` (set kinds) over the common r, ascending —
        the order in which the kernels' ``bincount`` adds them (their
        zero terms for other r add nothing), so the last entry plus the
        closed term is the kernels' numerator bit for bit."""
        _, ip, iq = np.intersect1d(
            p_nbrs, q_nbrs, assume_unique=True, return_indices=True
        )
        wp, wq = p_weights[ip], q_weights[iq]
        terms = wp * wq if self.config.kind == "cosine" else np.minimum(wp, wq)
        return terms.cumsum()

    def _denominator(self, p: int, q: int, overlap: float | None):
        kind = self.config.kind
        invariants = self._lengths if kind == "cosine" else self._linear_sums
        return kernels.sigma_denominator(
            kind, overlap, invariants[p], invariants[q]
        )

    def _sigma_value(self, p: int, q: int) -> tuple:
        """``(σ, merge cost)`` of one pair, in the kernels' arithmetic."""
        rows, extra = self._pair_rows(p, q)
        running = self._running_sums(*rows)
        num = (float(running[-1]) if running.shape[0] else 0.0) + extra
        value = kernels.sigma_ratio(num, self._denominator(p, q, num))
        return value, float(rows[0].shape[0] + rows[2].shape[0])

    def sigma(self, p: int, q: int) -> float:
        """Exact σ(p, q); records one full evaluation."""
        value, cost = self._sigma_value(p, q)
        self.counters.record_sigma(cost)
        return value

    def sigma_unrecorded(self, p: int, q: int) -> float:
        """σ(p, q) without touching the counters (tests, ground truth)."""
        value, _ = self._sigma_value(p, q)
        return value

    # ------------------------------------------------------------------
    # batched similarity (repro.similarity.kernels)
    # ------------------------------------------------------------------
    @property
    def edge_keys(self) -> np.ndarray:
        """Global sorted edge keys for the batched kernels (lazy, cached)."""
        if self._edge_keys is None:
            self._edge_keys = kernels.directed_edge_keys(
                self.graph.indptr, self.graph.indices
            )
        return self._edge_keys

    def _pair_sigmas(self, ps: np.ndarray, qs: np.ndarray) -> tuple:
        """Batched (σ values, merge costs) for aligned pair arrays."""
        graph, cfg = self.graph, self.config
        return kernels.sigma_for_pairs(
            graph.indptr, graph.indices, graph.weights, self.edge_keys,
            ps, qs,
            kind=cfg.kind, closed=cfg.closed, self_weight=cfg.self_weight,
            lengths=self._lengths, linear_sums=self._linear_sums,
        )

    def sigma_pairs_unrecorded(
        self, ps: np.ndarray, qs: np.ndarray
    ) -> np.ndarray:
        """Batched σ for aligned pair arrays, without touching counters."""
        ps = np.ascontiguousarray(ps, dtype=np.int64)
        qs = np.ascontiguousarray(qs, dtype=np.int64)
        values, _ = self._pair_sigmas(ps, qs)
        return values

    def sigma_batch(self, p: int, qs: np.ndarray) -> np.ndarray:
        """Exact σ(p, q) for a batch of targets, one numpy pass.

        Counters are charged equivalently to ``len(qs)`` scalar
        :meth:`sigma` calls: one evaluation each, full merge cost
        ``|N_p| + |N_q|`` each.
        """
        qs = np.ascontiguousarray(qs, dtype=np.int64)
        if qs.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        ps = np.full(qs.shape[0], int(p), dtype=np.int64)
        values, costs = self._pair_sigmas(ps, qs)
        self.counters.record_sigma_batch(
            int(qs.shape[0]), float(costs.sum())
        )
        return values

    def similar_batch(
        self, p: int, qs: np.ndarray, epsilon: float
    ) -> np.ndarray:
        """Batched threshold tests σ(p, q) ≥ ε with Lemma 5 pre-filtering.

        With pruning enabled, the whole batch goes through the scalar
        path's Lemma 5 test first, vectorized; pruned pairs cost 1 work
        unit each and only the survivors are evaluated (at full merge
        cost — the batch path has no per-pair early exit, so its
        recorded work is an upper bound on the scalar path's).
        """
        qs = np.ascontiguousarray(qs, dtype=np.int64)
        if qs.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        cfg = self.config
        ps = np.full(qs.shape[0], int(p), dtype=np.int64)
        survivors = np.ones(qs.shape[0], dtype=bool)
        if cfg.pruning:  # the same prune test as the scalar path's
            bounds = kernels.lemma5_bounds(
                self.graph.degrees, self._max_weights, ps, qs,
                closed=cfg.closed, self_weight=cfg.self_weight,
            )
            denom = kernels.sigma_denominator(
                "cosine", None, self._lengths[p], self._lengths[qs]
            )
            survivors = ~(kernels.sigma_ratio(bounds, denom) < epsilon)
        out = np.zeros(qs.shape[0], dtype=bool)
        count = int(survivors.sum())
        if count:
            values, costs = self._pair_sigmas(ps[survivors], qs[survivors])
            out[survivors] = values >= epsilon
            self.counters.record_sigma_batch(count, float(costs.sum()))
        if count < qs.shape[0]:
            self.counters.record_prune(int(qs.shape[0]) - count)
        return out

    def sigma_row_block(self, lo: int, hi: int) -> np.ndarray:
        """σ for every CSR slot of the vertex block ``[lo, hi)``, unrecorded.

        The unit of work of the edge-similarity index build (see
        :mod:`repro.similarity.index`): deterministic per slot, so any
        partition of the vertex range reassembles bitwise-identically.
        """
        graph, cfg = self.graph, self.config
        return kernels.sigma_row_block(
            graph.indptr, graph.indices, graph.weights, int(lo), int(hi),
            kind=cfg.kind, closed=cfg.closed, self_weight=cfg.self_weight,
            lengths=self._lengths, linear_sums=self._linear_sums,
            edge_keys=self.edge_keys,
        )

    # ------------------------------------------------------------------
    # threshold tests with the Section III-D optimizations
    # ------------------------------------------------------------------
    def lemma5_bound(self, p: int, q: int) -> float:
        """Safe upper bound on the σ numerator (corrected Lemma 5).

        The paper bounds the numerator by ``min(|N_p|, |N_q|)·max(w_p, w_q)``,
        which is only valid for weights ≤ 1; each term satisfies
        ``w_pr · w_qr ≤ w_p · w_q``, so the sound bound used here is
        ``min(|N_p|, |N_q|) · w_p · w_q`` plus the self terms in closed
        mode.  The deviation is documented in DESIGN.md.
        """
        cfg, indptr = self.config, self.graph.indptr
        dp, dq = indptr[p + 1] - indptr[p], indptr[q + 1] - indptr[q]
        wp, wq = float(self._max_weights[p]), float(self._max_weights[q])
        bound = int(min(dp, dq)) * wp * wq
        if cfg.closed:
            bound += cfg.self_weight * (wp + wq)
        return float(bound)

    def similar(self, p: int, q: int, epsilon: float) -> bool:
        """Whether σ(p, q) ≥ ε, using pruning when enabled.

        The answer is always ``sigma(p, q) >= epsilon``.  The Lemma 5
        filter answers in O(1) when the bound already fails; otherwise
        the merge join is (conceptually) early-exited: as soon as the
        accumulated dot product crosses the threshold σ ≥ ε is certain.
        The recorded cost reflects the consumed prefix of the merge.
        """
        passed, cost, outcome = self._threshold_test(p, q, epsilon)
        if outcome == "prune":
            self.counters.record_prune()
        else:
            self.counters.record_sigma(cost, early_exit=outcome == "early")
        return passed

    def _threshold_test(self, p: int, q: int, epsilon: float) -> tuple:
        """``(passed, cost, outcome)`` with outcome in prune/early/full.

        The unrecorded core of :meth:`similar`; range queries aggregate
        many of these into a single counter record.
        """
        if not self.config.pruning:
            value, cost = self._sigma_value(p, q)
            return value >= epsilon, cost, "full"
        # Pruning implies the cosine kind (SimilarityConfig.validate).
        # Each shortcut divides by σ's own denominator and compares with
        # ε, like σ itself.  Rounding is monotone, so bound ≥ numerator
        # gives bound / denom ≥ σ (a prune implies σ < ε), and the self
        # terms ≤ numerator give extra / denom ≤ σ (a pass implies
        # σ ≥ ε).  For an edge the bound also counts q ∈ N_p, which is
        # not in N_q, so it exceeds the real numerator by a whole term.
        denom = float(self._denominator(p, q, None))
        if kernels.sigma_ratio(self.lemma5_bound(p, q), denom) < epsilon:
            return False, 1.0, "prune"
        rows, extra = self._pair_rows(p, q)
        if kernels.sigma_ratio(extra, denom) >= epsilon:
            return True, 2.0, "early"
        running = extra + self._running_sums(*rows)
        dp, dq = rows[0].shape[0], rows[2].shape[0]
        full_cost = float(dp + dq)
        count = running.shape[0]
        if count == 0:  # σ = extra / denom, below ε
            return False, min(full_cost, 2.0 + float(min(dp, dq))), "early"
        if kernels.sigma_ratio(float(running[-1]), denom) < epsilon:
            return False, full_cost, "full"
        # A sequential merge could stop at the term whose running sum
        # first crosses ε · denom; the charge is that prefix.
        k = min(int(running.searchsorted(epsilon * denom)) + 1, count)
        fraction = k / count
        cost = max(2.0, fraction * full_cost)
        return True, cost, ("early" if fraction < 1.0 else "full")

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def eps_neighborhood(self, p: int, epsilon: float) -> np.ndarray:
        """Structural neighborhood ``N_p^ε`` (Definition 2), excluding ``p``.

        One batched kernel pass over the whole row (no per-pair Python
        work); records one range query whose cost is the sum of the full
        merge costs of all neighbor evaluations — identical accounting to
        the historical per-pair loop (the dominant cost of Step 1).
        """
        fault_point("sigma.query")
        neighbors = self.graph.neighbors(p)
        if neighbors.shape[0] == 0:
            self.counters.record_neighborhood_query(0.0, evaluations=0)
            return np.zeros(0, dtype=np.int64)
        ps = np.full(neighbors.shape[0], int(p), dtype=np.int64)
        values, costs = self._pair_sigmas(ps, neighbors)
        self.counters.record_neighborhood_query(
            float(costs.sum()), evaluations=int(neighbors.shape[0])
        )
        return neighbors[values >= epsilon].astype(np.int64, copy=False)

    def eps_neighborhood_pruned(self, p: int, epsilon: float) -> np.ndarray:
        """``N_p^ε`` computed with per-neighbor threshold tests.

        This is the SCAN-B range query: each neighbor goes through the
        Lemma 5 filter and early-exit test instead of a full σ evaluation,
        so for high ε most of the merge work is skipped.  Like
        :meth:`eps_neighborhood` it records one range query charging the
        consumed costs (prunes, early exits, and full merges included),
        so Figure-7-style reports count SCAN-B's range queries too.
        """
        neighbors = self.graph.neighbors(p)
        tests = [
            self._threshold_test(p, int(q), epsilon) for q in neighbors
        ]
        passing = [
            int(q) for q, (ok, _, _) in zip(neighbors, tests) if ok
        ]
        pruned = sum(1 for _, _, outcome in tests if outcome == "prune")
        early = sum(1 for _, _, outcome in tests if outcome == "early")
        cost = sum(c for _, c, outcome in tests if outcome != "prune")
        self.counters.record_neighborhood_query(
            float(cost),
            evaluations=len(tests) - pruned,
            early_exits=early,
            pruned=pruned,
        )
        return np.asarray(passing, dtype=np.int64)

    def max_possible_eps_neighbors(self, p: int) -> int:
        """Upper bound on ``|N_p^ε|``: degree plus the self term."""
        return self.graph.degree(p) + (1 if self.config.count_self else 0)
