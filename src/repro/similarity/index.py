"""Materialized per-edge similarities for interactive re-clustering.

The paper's use case is *interactive*: a user explores many (ε, μ)
settings over one fixed graph.  σ(p, q) does not depend on either
parameter, so paying the σ phase once and indexing the result turns
every subsequent query into array passes — the design of Tseng,
Dhulipala & Shun's index-based parallel SCAN, adapted to this
repository's CSR layout:

* :class:`EdgeSimilarityIndex` stores one float64 per **directed** CSR
  edge slot, aligned with ``graph.indices`` — σ for vertex ``p``'s whole
  row is a contiguous slice, and an ε-neighborhood is a mask over it.
* The build runs through the batched kernels
  (:mod:`repro.similarity.kernels`), optionally fanned out over the
  thread/process backends; every path produces the bitwise-identical
  array (each slot (u, v) is always computed by expanding v's row).
* ``save``/``load`` round-trip through ``.npz`` with a graph fingerprint,
  the similarity config, and a payload checksum embedded.  Saves are
  atomic (write-to-temp + ``os.replace``), so a crashed writer can never
  leave a half-written archive under the real name.  Loads verify the
  checksum; damage of any kind (truncation, flipped bytes, a zeroed
  header, missing fields) raises
  :class:`~repro.errors.IndexIntegrityError`, and
  :meth:`EdgeSimilarityIndex.load_or_rebuild` turns that into quarantine
  (``{path}.quarantined``) plus a fresh rebuild instead of a crash.  A
  graph/semantics mismatch still raises plain
  :class:`~repro.errors.ConfigError` rather than silently returning σ
  values for the wrong graph or semantics.
* :class:`IndexedOracle` is a drop-in
  :class:`~repro.similarity.weighted.SimilarityOracle` whose σ lookups
  hit the index: re-clustering at a new (ε, μ) performs **zero** σ
  evaluations (the counters stay near zero; ``index_lookups`` tallies
  the hits instead).

Memory cost: one float64 per directed edge — the same footprint as the
CSR ``weights`` array.
"""

from __future__ import annotations

import hashlib
import os
from typing import Tuple

import numpy as np

from repro.errors import ConfigError, IndexIntegrityError
from repro.faults import fault_point
from repro.graph.csr import Graph
from repro.similarity import kernels
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

__all__ = ["EdgeSimilarityIndex", "IndexedOracle", "graph_fingerprint"]

#: Config fields that change σ values.  ``pruning`` only changes how
#: threshold tests are *scheduled*, never their results, so indexes stay
#: usable across pruning settings.
_SEMANTIC_FIELDS = ("kind", "closed", "self_weight", "count_self")


def graph_fingerprint(graph: Graph) -> str:
    """Stable digest of the CSR arrays identifying one exact graph."""
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_vertices).tobytes())
    digest.update(np.ascontiguousarray(graph.indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.indices).tobytes())
    digest.update(np.ascontiguousarray(graph.weights).tobytes())
    return digest.hexdigest()


def _config_signature(config: SimilarityConfig) -> dict:
    return {name: getattr(config, name) for name in _SEMANTIC_FIELDS}


def _archive_path(path) -> str:
    """The on-disk name ``np.savez`` would use (it appends ``.npz``)."""
    text = os.fspath(path)
    return text if text.endswith(".npz") else text + ".npz"


def _payload_checksum(
    fingerprint: str, sigmas: np.ndarray, config: SimilarityConfig
) -> str:
    """Digest binding the σ payload to its graph and semantics."""
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(
        np.ascontiguousarray(sigmas, dtype=np.float64).tobytes()
    )
    for name in _SEMANTIC_FIELDS + ("pruning",):
        digest.update(f"{name}={getattr(config, name)!r};".encode())
    return digest.hexdigest()


class EdgeSimilarityIndex:
    """σ for every directed CSR edge of one graph, computed once."""

    def __init__(
        self,
        graph: Graph,
        config: SimilarityConfig | None,
        sigmas: np.ndarray,
        *,
        fingerprint: str | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or SimilarityConfig()
        self.config.validate()
        sigmas = np.ascontiguousarray(sigmas, dtype=np.float64)
        if sigmas.shape != graph.indices.shape:
            raise ConfigError(
                f"sigma array has shape {sigmas.shape}, expected one value "
                f"per directed CSR edge {graph.indices.shape}"
            )
        self._sigmas = sigmas
        self.fingerprint = fingerprint or graph_fingerprint(graph)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        config: SimilarityConfig | None = None,
        *,
        backend=None,
        workers: int | None = None,
    ) -> "EdgeSimilarityIndex":
        """Materialize σ for every edge through the batched kernels.

        ``backend`` selects how the row blocks are computed: ``None``
        runs in-process (one bounded-memory kernel sweep), a registry
        name (``"thread" | "process" | "auto"``) or backend object fans
        the blocks out over the parallel backends — the process path
        reduces directly into a shared-memory σ segment (see
        :meth:`~repro.parallel.processes.ProcessBackend.map_sigma_rows`).
        All paths yield the bitwise-identical array.
        """
        config = config or SimilarityConfig()
        config.validate()
        if backend is None:
            oracle = SimilarityOracle(graph, config)
            sigmas = kernels.sigma_all_edges(
                graph.indptr, graph.indices, graph.weights,
                kind=config.kind, closed=config.closed,
                self_weight=config.self_weight,
                lengths=oracle.lengths, linear_sums=oracle.linear_sums,
            )
            return cls(graph, config, sigmas)
        # Local import: repro.parallel imports this package.
        from repro.parallel.backends import (
            close_backend, create_backend, run_sigma_rows,
        )

        owned = isinstance(backend, str)
        resolved = (
            create_backend(backend, workers=workers) if owned else backend
        )
        try:
            sigmas = run_sigma_rows(graph, backend=resolved, config=config)
        finally:
            if owned:
                close_backend(resolved)
        return cls(graph, config, sigmas)

    # ------------------------------------------------------------------
    # queries (plain array passes; no σ evaluations)
    # ------------------------------------------------------------------
    @property
    def sigmas(self) -> np.ndarray:
        """All directed-edge σ values, aligned with ``graph.indices``."""
        return self._sigmas

    def sigma_row(self, p: int) -> np.ndarray:
        """σ against every neighbor of ``p`` (view over ``p``'s CSR row)."""
        indptr = self.graph.indptr
        return self._sigmas[int(indptr[p]) : int(indptr[p + 1])]

    def lookup(
        self, ps: np.ndarray, qs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``(σ values, found)`` for pair arrays.

        ``found`` is False where (p, q) is not a stored edge (σ of a
        non-adjacent pair is not materialized; callers fall back to the
        kernels for those).
        """
        graph = self.graph
        ps = np.ascontiguousarray(ps, dtype=np.int64)
        qs = np.ascontiguousarray(qs, dtype=np.int64)
        n = graph.num_vertices
        keys = ps * np.int64(n) + qs
        edge_keys = kernels.directed_edge_keys(graph.indptr, graph.indices)
        if edge_keys.shape[0] == 0:
            zeros = np.zeros(keys.shape[0], dtype=np.float64)
            return zeros, np.zeros(keys.shape[0], dtype=bool)
        pos = np.searchsorted(edge_keys, keys)
        in_range = pos < edge_keys.shape[0]
        safe = np.where(in_range, pos, 0)
        found = in_range & (edge_keys[safe] == keys)
        return np.where(found, self._sigmas[safe], 0.0), found

    def lookup_one(self, p: int, q: int) -> Tuple[float, bool]:
        """``(σ, found)`` for one pair; O(log deg) row bisection."""
        graph = self.graph
        indptr = graph.indptr
        lo, hi = int(indptr[p]), int(indptr[p + 1])
        pos = lo + int(np.searchsorted(graph.indices[lo:hi], q))
        if pos < hi and int(graph.indices[pos]) == q:
            return float(self._sigmas[pos]), True
        return 0.0, False

    def eps_neighborhood(self, p: int, epsilon: float) -> np.ndarray:
        """``N_p^ε`` as a mask over the stored row — no σ work at all."""
        row = self.sigma_row(p)
        return self.graph.neighbors(p)[row >= epsilon].astype(
            np.int64, copy=False
        )

    def eps_counts(self, epsilon: float) -> np.ndarray:
        """``|N_p^ε|`` for every vertex (excluding self), one pass."""
        graph = self.graph
        n = graph.num_vertices
        passing = (self._sigmas >= epsilon).astype(np.int64)
        counts = np.zeros(n, dtype=np.int64)
        nonempty = graph.degrees > 0
        starts = graph.indptr[:-1][nonempty]
        if starts.shape[0]:
            counts[nonempty] = np.add.reduceat(passing, starts)
        return counts

    def forward_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(us, vs, σ)`` for each undirected edge with u < v, CSR order.

        The same order :meth:`repro.graph.csr.Graph.edges` iterates;
        the explorer's ``sigma_values`` and the ε-hierarchy's edge
        events read σ per undirected edge through it.
        """
        graph = self.graph
        owners = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
        )
        mask = owners < graph.indices
        return (
            owners[mask],
            graph.indices[mask].astype(np.int64, copy=False),
            self._sigmas[mask],
        )

    # ------------------------------------------------------------------
    # compatibility checks and persistence
    # ------------------------------------------------------------------
    def require_compatible(
        self,
        graph: Graph | None = None,
        config: SimilarityConfig | None = None,
    ) -> None:
        """Raise :class:`ConfigError` unless the index answers for these.

        ``graph`` is compared by fingerprint (exact CSR content);
        ``config`` by the semantic fields only — ``pruning`` does not
        change σ values, so an index built without pruning serves a
        pruning oracle and vice versa.
        """
        if graph is not None and graph is not self.graph:
            found = graph_fingerprint(graph)
            if found != self.fingerprint:
                raise ConfigError(
                    "similarity index was built for a different graph "
                    f"(fingerprint {self.fingerprint[:12]}…, queried graph "
                    f"{found[:12]}…); rebuild with EdgeSimilarityIndex.build"
                )
        if config is not None:
            mine = _config_signature(self.config)
            theirs = _config_signature(config)
            if mine != theirs:
                raise ConfigError(
                    "similarity index semantics mismatch: index was built "
                    f"with {mine}, queried with {theirs}; rebuild the index "
                    "or pass a matching SimilarityConfig"
                )

    def save(self, path) -> None:
        """Persist atomically to ``.npz`` (σ + fingerprint + checksum).

        The archive is written to a temporary sibling and moved into
        place with ``os.replace``, so a crash mid-write (or an injected
        ``index.save`` fault) leaves the previous file — never a torn
        one — under the real name.
        """
        fault_point("index.save")
        cfg = self.config
        final = _archive_path(path)
        tmp = f"{final}.tmp-{os.getpid()}.npz"
        try:
            np.savez_compressed(
                tmp,
                sigmas=self._sigmas,
                fingerprint=np.str_(self.fingerprint),
                checksum=np.str_(
                    _payload_checksum(self.fingerprint, self._sigmas, cfg)
                ),
                kind=np.str_(cfg.kind),
                closed=np.bool_(cfg.closed),
                self_weight=np.float64(cfg.self_weight),
                count_self=np.bool_(cfg.count_self),
                pruning=np.bool_(cfg.pruning),
            )
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(
        cls,
        path,
        graph: Graph,
        *,
        config: SimilarityConfig | None = None,
    ) -> "EdgeSimilarityIndex":
        """Load an index saved by :meth:`save` and bind it to ``graph``.

        Raises :class:`IndexIntegrityError` when the archive is
        unreadable, incomplete, or fails its checksum (disk rot, a torn
        write by some other tool), and plain :class:`ConfigError` when
        the archive is intact but answers for a different graph or —
        if ``config`` is given — different semantics.
        """
        fault_point("index.load")
        final = _archive_path(path)
        try:
            with np.load(final, allow_pickle=False) as data:
                sigmas = np.asarray(data["sigmas"], dtype=np.float64)
                fingerprint = str(data["fingerprint"])
                checksum = str(data["checksum"])
                stored = SimilarityConfig(
                    kind=str(data["kind"]),
                    closed=bool(data["closed"]),
                    self_weight=float(data["self_weight"]),
                    count_self=bool(data["count_self"]),
                    pruning=bool(data["pruning"]),
                )
        except Exception as exc:
            # Damaged archives surface as an open-ended set of parse
            # errors (BadZipFile, zlib.error, struct.error, KeyError,
            # even NotImplementedError for mangled flag bits); all of
            # them mean the same thing here and the chain is preserved.
            raise IndexIntegrityError(
                f"similarity index at {final!s} is unreadable or incomplete "
                f"({type(exc).__name__}: {exc}); quarantine and rebuild"
            ) from exc
        expected = _payload_checksum(fingerprint, sigmas, stored)
        if checksum != expected:
            raise IndexIntegrityError(
                f"similarity index at {final!s} failed checksum verification "
                f"(stored {checksum[:12]}…, computed {expected[:12]}…); the "
                "archive is damaged — quarantine and rebuild"
            )
        found = graph_fingerprint(graph)
        if fingerprint != found:
            raise ConfigError(
                f"similarity index at {final!s} was built for a different "
                f"graph (stored fingerprint {fingerprint[:12]}…, this graph "
                f"{found[:12]}…)"
            )
        index = cls(graph, stored, sigmas, fingerprint=fingerprint)
        if config is not None:
            index.require_compatible(config=config)
        return index

    @classmethod
    def load_or_rebuild(
        cls,
        path,
        graph: Graph,
        *,
        config: SimilarityConfig | None = None,
        backend=None,
        workers: int | None = None,
    ) -> Tuple["EdgeSimilarityIndex", bool]:
        """Load ``path``; on damage, quarantine it and rebuild from σ.

        Returns ``(index, recovered)`` — ``recovered`` is True when the
        stored archive was damaged (or missing) and a fresh index was
        built and saved in its place; the damaged file is preserved as
        ``{path}.quarantined`` for post-mortems.  A fingerprint or
        semantics mismatch is *not* recovered from: that is a caller
        error (wrong file for this graph) and still raises
        :class:`ConfigError`.
        """
        final = _archive_path(path)
        try:
            return cls.load(final, graph, config=config), False
        except IndexIntegrityError:
            try:
                os.replace(final, final + ".quarantined")
            except FileNotFoundError:
                pass  # missing archive: nothing to quarantine
            index = cls.build(graph, config, backend=backend, workers=workers)
            index.save(final)
            return index, True


class IndexedOracle(SimilarityOracle):
    """A :class:`SimilarityOracle` whose σ lookups hit a prebuilt index.

    Every query answerable from the index performs zero σ evaluations
    and charges zero work; ``index_lookups``/``index_misses`` count the
    traffic instead (misses — pairs that are not stored edges — fall
    back to the exact batched kernels and are charged normally).
    """

    def __init__(
        self,
        index: EdgeSimilarityIndex,
        *,
        graph: Graph | None = None,
        config: SimilarityConfig | None = None,
    ) -> None:
        graph = graph if graph is not None else index.graph
        index.require_compatible(graph=graph, config=config)
        super().__init__(graph, config or index.config)
        self.index = index
        self.index_lookups = 0
        self.index_misses = 0

    def sigma(self, p: int, q: int) -> float:
        value, found = self.index.lookup_one(int(p), int(q))
        if found:
            self.index_lookups += 1
            return value
        self.index_misses += 1
        return super().sigma(p, q)

    def sigma_unrecorded(self, p: int, q: int) -> float:
        value, found = self.index.lookup_one(int(p), int(q))
        if found:
            self.index_lookups += 1
            return value
        self.index_misses += 1
        return super().sigma_unrecorded(p, q)

    def sigma_batch(self, p: int, qs: np.ndarray) -> np.ndarray:
        qs = np.ascontiguousarray(qs, dtype=np.int64)
        if qs.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        ps = np.full(qs.shape[0], int(p), dtype=np.int64)
        values, found = self.index.lookup(ps, qs)
        hits = int(found.sum())
        self.index_lookups += hits
        if hits < qs.shape[0]:
            missing = ~found
            self.index_misses += int(missing.sum())
            exact, costs = self._pair_sigmas(ps[missing], qs[missing])
            values[missing] = exact
            self.counters.record_sigma_batch(
                int(missing.sum()), float(costs.sum())
            )
        return values

    def similar(self, p: int, q: int, epsilon: float) -> bool:
        value, found = self.index.lookup_one(int(p), int(q))
        if found:
            self.index_lookups += 1
            return value >= epsilon
        self.index_misses += 1
        return super().similar(p, q, epsilon)

    def similar_batch(
        self, p: int, qs: np.ndarray, epsilon: float
    ) -> np.ndarray:
        return self.sigma_batch(p, qs) >= epsilon

    def eps_neighborhood(self, p: int, epsilon: float) -> np.ndarray:
        hood = self.index.eps_neighborhood(int(p), epsilon)
        self.index_lookups += self.graph.degree(int(p))
        self.counters.record_neighborhood_query(0.0, evaluations=0)
        return hood

    def eps_neighborhood_pruned(self, p: int, epsilon: float) -> np.ndarray:
        # The index already answers exactly; pruning would only add work.
        return self.eps_neighborhood(p, epsilon)
