"""Materialized per-edge similarities: the σ array of a clustering index.

σ(p, q) depends on neither ε nor μ, so paying the σ phase once and
storing the result turns every later (ε, μ) query into array passes —
the design of Tseng, Dhulipala & Shun's index-based parallel SCAN,
adapted to this repository's CSR layout.  :class:`EdgeSimilarityIndex`
is that σ array; :class:`~repro.similarity.gsindex.ClusteringIndex`
(its ``.edge``) derives the σ-sorted rows that answer queries:

* One float64 per **directed** CSR edge slot, aligned with
  ``graph.indices`` — σ for vertex ``p``'s whole row is a contiguous
  slice.
* The build runs through the batched kernels
  (:mod:`repro.similarity.kernels`), optionally fanned out over the
  thread backend; both paths produce the bitwise-identical array (each
  slot (u, v) is always computed by expanding v's row).
* ``save``/``load`` round-trip through ``.npz`` with a graph fingerprint,
  the similarity config, and a payload checksum embedded.  Saves are
  atomic (write-to-temp + ``os.replace``), so a crashed writer can never
  leave a half-written archive under the real name.  Loads verify the
  checksum; damage of any kind (truncation, flipped bytes, a zeroed
  header, missing fields) raises
  :class:`~repro.errors.IndexIntegrityError`, which
  :meth:`ClusteringIndex.load_or_rebuild
  <repro.similarity.gsindex.ClusteringIndex.load_or_rebuild>` turns
  into quarantine plus a fresh rebuild.  A graph/semantics mismatch
  raises plain :class:`~repro.errors.ConfigError` rather than silently
  returning σ values for the wrong graph or semantics.

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

__all__ = ["EdgeSimilarityIndex", "graph_fingerprint"]

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
    ) -> "EdgeSimilarityIndex":
        """Materialize σ for every edge through the batched kernels.

        ``backend`` selects how the row blocks are computed: ``None``
        runs in-process (one bounded-memory kernel sweep), a
        :class:`~repro.parallel.threads.ThreadBackend` fans the row
        blocks out over its thread pool.  Both yield the
        bitwise-identical array.
        """
        config = config or SimilarityConfig()
        config.validate()
        if backend is not None:
            return cls(graph, config, backend.sigma_rows(graph, config))
        oracle = SimilarityOracle(graph, config)
        sigmas = kernels.sigma_all_edges(
            graph.indptr, graph.indices, graph.weights,
            kind=config.kind, closed=config.closed,
            self_weight=config.self_weight,
            lengths=oracle.lengths, linear_sums=oracle.linear_sums,
        )
        return cls(graph, config, sigmas)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def sigmas(self) -> np.ndarray:
        """All directed-edge σ values, aligned with ``graph.indices``."""
        return self._sigmas

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
                    f"{found[:12]}…); rebuild it for this graph"
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
