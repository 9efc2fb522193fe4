"""Batched CSR σ-kernels: whole vertex blocks in one numpy pass.

The scalar oracle evaluates σ(p, q) one pair at a time, in the same
arithmetic but with a Python call and several allocations per edge.
The GPUSCAN++ formulation of the σ phase replaces that with *segmented*
intersections: all pairs of a vertex block are expanded at once and the
sorted-merge becomes a single vectorized membership probe against the
CSR adjacency, so the per-pair Python overhead disappears.

The trick that keeps everything segment-free is a **global edge key**:
with rows sorted and ``owners`` nondecreasing, ``owner · n + neighbor``
is strictly increasing over the whole ``indices`` array, so one
``np.searchsorted`` answers "is r adjacent to p, and with what weight?"
for *any* batch of (p, r) probes — no per-row bisection needed.  For a
pair (p, q) the common-neighbor sum then falls out of expanding q's row
once and probing p:

    Σ_{r ∈ N_p ∩ N_q} f(w_pr, w_qr)
      = Σ_{r ∈ N_q, (p,r) ∈ E} f(w_pr, w_qr)

accumulated per pair with ``np.bincount``.  Closed-mode self terms and
the four kinds (cosine / jaccard / dice / overlap) are vectorized
corrections on top.  Work costs are charged exactly like the scalar
path: a full evaluation of (p, q) costs ``|N_p| + |N_q|`` merge units.

Everything here is plain array algebra over ``indptr``/``indices``/
``weights`` — this module falls under the R3 vectorization gate and
carries no pragmas.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "directed_edge_keys",
    "edge_weight_lookup",
    "pair_overlaps",
    "sigma_denominator",
    "sigma_ratio",
    "sigma_for_pairs",
    "lemma5_bounds",
    "block_pairs",
    "sigma_row_block",
    "sigma_all_edges",
]

def directed_edge_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Strictly increasing int64 key per directed CSR edge slot.

    ``key = owner * n + neighbor``: owners are nondecreasing along the
    CSR and neighbor ids strictly increase within a row, so the keys are
    globally sorted — the precondition for :func:`edge_weight_lookup`.
    """
    n = int(indptr.shape[0]) - 1
    owners = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(indptr).astype(np.int64)
    )
    return owners * np.int64(n) + indices.astype(np.int64, copy=False)


def edge_weight_lookup(
    weights: np.ndarray,
    edge_keys: np.ndarray,
    num_vertices: int,
    ps: np.ndarray,
    qs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized adjacency probe: ``(w[p, q], found)`` for pair arrays.

    ``w`` is 0.0 where (p, q) is not an edge.  One binary search over the
    global key array per probe, all at C speed.
    """
    keys = ps.astype(np.int64, copy=False) * np.int64(num_vertices) + qs
    if edge_keys.shape[0] == 0:
        zeros = np.zeros(keys.shape[0], dtype=np.float64)
        return zeros, np.zeros(keys.shape[0], dtype=bool)
    pos = np.searchsorted(edge_keys, keys)
    in_range = pos < edge_keys.shape[0]
    safe = np.where(in_range, pos, 0)
    found = in_range & (edge_keys[safe] == keys)
    return np.where(found, weights[safe], 0.0), found


def pair_overlaps(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    edge_keys: np.ndarray,
    ps: np.ndarray,
    qs: np.ndarray,
    *,
    accumulate: str,
    closed: bool,
    self_weight: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Common-neighborhood sums and merge costs for arbitrary pair arrays.

    ``accumulate="dot"`` returns the σ numerator Σ w_pr · w_qr (cosine);
    ``accumulate="min"`` returns Σ min(w_pr, w_qr) (set kinds).  Both
    include the closed-mode self terms when ``closed`` and charge each
    pair the full sorted-merge cost ``|N_p| + |N_q|`` — identical to the
    scalar oracle's accounting.
    """
    if accumulate not in ("dot", "min"):
        raise ConfigError(f"unknown accumulate mode {accumulate!r}")
    n = int(indptr.shape[0]) - 1
    degrees = np.diff(indptr).astype(np.int64)
    ps = ps.astype(np.int64, copy=False)
    qs = qs.astype(np.int64, copy=False)
    npairs = int(ps.shape[0])
    costs = (degrees[ps] + degrees[qs]).astype(np.float64)

    # Expand every q's row: one flat array of (pair id, r, w_qr) triples.
    qdeg = degrees[qs]
    total = int(qdeg.sum())
    sums = np.zeros(npairs, dtype=np.float64)
    if total:
        seg = np.repeat(np.arange(npairs, dtype=np.int64), qdeg)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(qdeg)[:-1])
        )
        flat = indptr[qs][seg] + (np.arange(total, dtype=np.int64) - offsets[seg])
        r = indices[flat]
        w_qr = weights[flat]
        w_pr, found = edge_weight_lookup(weights, edge_keys, n, ps[seg], r)
        if accumulate == "dot":
            contrib = w_pr * w_qr
        else:
            contrib = np.minimum(w_pr, w_qr)
        contrib = np.where(found, contrib, 0.0)
        sums = np.bincount(seg, weights=contrib, minlength=npairs)

    if closed:
        # Γ = N ∪ {self}: the r = p and r = q terms, which the expansion
        # above cannot see because self loops are not stored.
        sw = float(self_weight)
        w_pq, adjacent = edge_weight_lookup(weights, edge_keys, n, ps, qs)
        same = ps == qs
        if accumulate == "dot":
            extra = np.where(
                same, sw * sw, np.where(adjacent, 2.0 * sw * w_pq, 0.0)
            )
        else:
            extra = np.where(
                same,
                sw,
                np.where(adjacent, 2.0 * np.minimum(sw, w_pq), 0.0),
            )
        sums = sums + extra
    return sums, costs


def sigma_denominator(kind: str, overlap, a, b):
    """σ's denominator, for scalars (the per-pair oracle) or arrays.

    ``a``/``b``: the endpoints' squared lengths (cosine) or linear
    weight sums (set kinds); only Jaccard reads ``overlap``.
    """
    if kind == "cosine":
        return np.sqrt(a * b)
    if kind == "jaccard":
        return a + b - overlap
    if kind == "dice":
        return (a + b) / 2.0
    if kind == "overlap":
        return np.minimum(a, b)
    raise ConfigError(f"unknown similarity kind {kind!r}")


def sigma_ratio(num, denom):
    """``num / denom``, 0.0 where ``denom`` is not positive: the same
    IEEE division for a scalar (a float out) or an array."""
    if isinstance(denom, np.ndarray):
        out = np.zeros(denom.shape, dtype=np.float64)
        np.divide(num, denom, out=out, where=denom > 0)
        return out
    return float(num / denom) if denom > 0 else 0.0


def sigma_for_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    edge_keys: np.ndarray,
    ps: np.ndarray,
    qs: np.ndarray,
    *,
    kind: str,
    closed: bool,
    self_weight: float,
    lengths: np.ndarray,
    linear_sums: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """σ(p, q) and merge costs for arbitrary pair arrays, any kind.

    ``lengths``/``linear_sums`` are the oracle's precomputed per-vertex
    invariants (self terms already folded in for closed mode).  The
    oracle's per-pair σ sums the same terms in the same order and ends
    in the same :func:`sigma_denominator`/:func:`sigma_ratio`, so every
    value here equals its scalar σ bit for bit.
    """
    cosine = kind == "cosine"  # an unknown kind raises in the denominator
    num, costs = pair_overlaps(
        indptr, indices, weights, edge_keys, ps, qs,
        accumulate="dot" if cosine else "min",
        closed=closed, self_weight=self_weight,
    )
    invariants = lengths if cosine else linear_sums
    denom = sigma_denominator(kind, num, invariants[ps], invariants[qs])
    return sigma_ratio(num, denom), costs


def lemma5_bounds(
    degrees: np.ndarray,
    max_weights: np.ndarray,
    ps: np.ndarray,
    qs: np.ndarray,
    *,
    closed: bool,
    self_weight: float,
) -> np.ndarray:
    """Batched corrected Lemma 5 numerator bounds (cosine pre-filter).

    Vectorization of :meth:`SimilarityOracle.lemma5_bound`:
    ``min(|N_p|, |N_q|) · w_p · w_q`` plus the closed-mode self terms.
    Dividing by σ's denominator and comparing with ε prunes a whole
    batch of threshold tests in O(1) work each, before any row is
    expanded.
    """
    wp = max_weights[ps]
    wq = max_weights[qs]
    bound = np.minimum(degrees[ps], degrees[qs]) * wp * wq
    if closed:
        bound = bound + float(self_weight) * (wp + wq)
    return bound


def block_pairs(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All directed edge pairs owned by the vertex block ``[lo, hi)``.

    Returns ``(ps, qs)`` aligned with the CSR slots
    ``indptr[lo]:indptr[hi]`` — the unit of work for the row-block
    kernels and the parallel index build.
    """
    degrees = np.diff(indptr[lo : hi + 1]).astype(np.int64)
    ps = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees)
    qs = indices[int(indptr[lo]) : int(indptr[hi])].astype(np.int64, copy=False)
    return ps, qs


def sigma_row_block(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    lo: int,
    hi: int,
    *,
    kind: str,
    closed: bool,
    self_weight: float,
    lengths: np.ndarray,
    linear_sums: np.ndarray,
    edge_keys: np.ndarray,
) -> np.ndarray:
    """σ for every edge incident to the vertex block ``[lo, hi)``.

    One numpy pass over all slots ``indptr[lo]:indptr[hi]``; the result
    is aligned with that slice of the CSR.  Deterministic per slot (the
    slot (u, v) always expands v's row), so any partition of the vertex
    range — sequential, thread chunks, process chunks — reassembles into
    the bitwise-identical array.
    """
    ps, qs = block_pairs(indptr, indices, lo, hi)
    values, _ = sigma_for_pairs(
        indptr, indices, weights, edge_keys, ps, qs,
        kind=kind, closed=closed, self_weight=self_weight,
        lengths=lengths, linear_sums=linear_sums,
    )
    return values


def sigma_all_edges(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    *,
    kind: str,
    closed: bool,
    self_weight: float,
    lengths: np.ndarray,
    linear_sums: np.ndarray,
    block_budget: int = 1 << 20,
) -> np.ndarray:
    """σ for every directed CSR edge, processed in bounded vertex blocks.

    ``block_budget`` caps the expansion size (Σ over the block's edges of
    the far endpoint's degree) so peak memory stays flat on skewed degree
    distributions; each block is one :func:`sigma_row_block` pass.
    """
    n = int(indptr.shape[0]) - 1
    out = np.empty(int(indices.shape[0]), dtype=np.float64)
    if out.shape[0] == 0:
        return out
    edge_keys = directed_edge_keys(indptr, indices)
    degrees = np.diff(indptr).astype(np.int64)
    # Expansion cost of vertex v's row: Σ_{q ∈ N(v)} deg(q).
    slot_cost = degrees[indices]
    vertex_cost = np.zeros(n, dtype=np.int64)
    nonempty = degrees > 0
    starts = indptr[:-1][nonempty]
    if starts.shape[0]:
        vertex_cost[nonempty] = np.add.reduceat(slot_cost, starts)
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(vertex_cost)))
    budget = max(int(block_budget), 1)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(cum, cum[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        a, b = int(indptr[lo]), int(indptr[hi])
        out[a:b] = sigma_row_block(
            indptr, indices, weights, lo, hi,
            kind=kind, closed=closed, self_weight=self_weight,
            lengths=lengths, linear_sums=linear_sums, edge_keys=edge_keys,
        )
        lo = hi
    return out
