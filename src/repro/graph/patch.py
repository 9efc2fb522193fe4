"""Edge-update batches applied straight to CSR arrays.

:func:`apply_edge_batch` owns the decision "how an ``update-edges``
batch changes a graph".  It replays the batch with the sequential
semantics of a mutable adjacency structure (``add_vertices``, then the
inserts in order, then the deletes in order; the first invalid op stops
the batch with the valid prefix applied), checks each op against the
sorted directed-edge keys ``owner · n + neighbor`` by binary search, and
merges the surviving changes into the arrays in one vectorized pass.
The result is bitwise ``AdjacencyGraph.to_csr()`` of the same state.

:func:`affected_rows` gives the σ rows such a batch can change; the
service's index refresh and ``DynamicSCAN`` both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.csr import Graph

__all__ = [
    "EdgeBatchResult",
    "affected_rows",
    "apply_edge_batch",
    "check_vertex",
    "check_weight",
]


def check_vertex(v: int, num_vertices: int) -> None:
    """Raise :class:`GraphError` unless ``0 <= v < num_vertices``."""
    if not 0 <= v < num_vertices:
        raise GraphError(f"vertex {v} out of range")


def check_weight(weight: float) -> None:
    """Raise :class:`GraphError` for a negative or non-finite weight."""
    if weight < 0:
        raise GraphError("edge weights must be non-negative")
    if not math.isfinite(weight):
        raise GraphError("edge weights must be finite")


@dataclass(frozen=True)
class EdgeBatchResult:
    """The applied prefix (``graph`` is the input when nothing applied),
    its op counts, the affected rows, and the error that stopped it."""

    graph: Graph
    inserted: int
    deleted: int
    affected: np.ndarray
    error: Optional[Exception] = None


def apply_edge_batch(
    graph: Graph,
    *,
    insert: Sequence[Sequence[float]] = (),
    delete: Sequence[Sequence[int]] = (),
    add_vertices: int = 0,
) -> EdgeBatchResult:
    """Apply one batch; the stopping error is returned, not raised, so
    the caller can install the prefix first.

    An op fails on a malformed spec (:class:`ConfigError`), an
    out-of-range endpoint, a self-loop, a negative or non-finite weight,
    inserting a present edge or deleting an absent one
    (:class:`GraphError`).
    """
    old_n = graph.num_vertices
    n = old_n + int(add_vertices)
    owners = np.repeat(np.arange(old_n, dtype=np.int64), graph.degrees)
    keys = owners * np.int64(n) + graph.indices

    def present(key: int) -> bool:
        pos = int(np.searchsorted(keys, key))
        return pos < keys.shape[0] and int(keys[pos]) == key

    added: Dict[int, Tuple[int, int, float]] = {}
    removed: Dict[int, Tuple[int, int]] = {}
    endpoints: List[int] = []
    inserted = deleted = 0
    error: Optional[Exception] = None
    # Any exception stops the batch — a malformed spec raises whatever
    # int()/float()/len() raise — and is handed back with the prefix.
    try:
        for spec in insert:
            if len(spec) == 2:
                u, v, weight = int(spec[0]), int(spec[1]), 1.0
            elif len(spec) == 3:
                u, v, weight = int(spec[0]), int(spec[1]), float(spec[2])
            else:
                raise ConfigError(
                    "insert entries must be [u, v] or [u, v, weight]"
                )
            endpoints.extend(x for x in (u, v) if 0 <= x < n)
            check_vertex(u, n)
            check_vertex(v, n)
            if u == v:
                raise GraphError("self-loops are not allowed")
            check_weight(weight)
            key = min(u, v) * n + max(u, v)
            if key in added or present(key):
                raise GraphError(f"edge ({u}, {v}) already exists")
            added[key] = (min(u, v), max(u, v), weight)
            inserted += 1
        for spec in delete:
            if len(spec) != 2:
                raise ConfigError("delete entries must be [u, v]")
            u, v = int(spec[0]), int(spec[1])
            endpoints.extend(x for x in (u, v) if 0 <= x < n)
            check_vertex(u, n)
            check_vertex(v, n)
            key = min(u, v) * n + max(u, v)
            if added.pop(key, None) is None:  # else: delete-after-insert
                if key in removed or not present(key):
                    raise GraphError(f"no edge ({u}, {v})")
                removed[key] = (min(u, v), max(u, v))
            deleted += 1
    except Exception as exc:
        error = exc
    affected = affected_rows(graph, endpoints, n)
    if not (inserted or deleted or add_vertices):
        return EdgeBatchResult(graph, 0, 0, affected, error)
    degrees = np.zeros(n, dtype=np.int64)
    degrees[:old_n] = graph.degrees
    indices, weights = graph.indices, graph.weights
    if removed:
        gone = np.asarray(list(removed.values()), dtype=np.int64)
        src = np.concatenate([gone[:, 0], gone[:, 1]])
        dst = np.concatenate([gone[:, 1], gone[:, 0]])
        keep = np.ones(keys.shape[0], dtype=bool)
        keep[np.searchsorted(keys, src * n + dst)] = False
        keys, indices, weights = keys[keep], indices[keep], weights[keep]
        degrees -= np.bincount(src, minlength=n)
    if added:
        rows = list(added.values())
        ends = np.asarray([(a, b) for a, b, _ in rows], dtype=np.int64)
        wts = np.asarray([w for _, _, w in rows], dtype=np.float64)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.argsort(src * n + dst)
        pos = np.searchsorted(keys, (src * n + dst)[order])
        indices = np.insert(indices, pos, dst[order])
        weights = np.insert(weights, pos, np.concatenate([wts, wts])[order])
        degrees += np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    patched = Graph(indptr, indices, weights, validate=False)
    return EdgeBatchResult(patched, inserted, deleted, affected, error)


def affected_rows(
    graph: Graph, endpoints: Iterable[int], num_vertices: int
) -> np.ndarray:
    """Sorted rows whose σ can change when edge ops touch ``endpoints``.

    σ(x, y) depends only on the neighborhoods of x and y, so row x
    changes iff x is an endpoint or adjacent to one.  Adjacency gained
    in a batch joins two endpoints and adjacency lost existed before,
    so the set is E ∪ N(E) with N from the pre-batch ``graph``.
    Endpoints outside ``[0, num_vertices)`` are ignored.
    """
    ends = np.unique(np.fromiter(endpoints, dtype=np.int64))
    ends = ends[(ends >= 0) & (ends < num_vertices)]
    old = ends[ends < graph.num_vertices]
    starts = graph.indptr[old]
    lengths = graph.indptr[old + 1] - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    slots = offsets + np.arange(offsets.shape[0], dtype=np.int64)
    return np.union1d(ends, graph.indices[slots])
