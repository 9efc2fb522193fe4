"""Differential battery for :meth:`ClusteringIndex.refresh`.

After every edge batch the refreshed index must be bitwise the index a
fresh :meth:`ClusteringIndex.build` derives on the updated graph — the
σ array, ``owners``, ``sorted_sigmas`` and ``sorted_neighbors`` — for
all four σ kinds in closed and open neighborhoods, unweighted and with
random weights.  The batches cover ``add_vertices``, deletes, a delete
of an edge inserted by the same batch, and batches stopped by an
invalid op.  The cost side is checked against an independent count:
σ is recomputed on exactly the directed slots incident to a changed
row, and the O(m log m) ``_derive`` sort never runs.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest

from repro.dynamic.graph import AdjacencyGraph
from repro.dynamic.scan import DynamicSCAN
from repro.errors import ConfigError
from repro.graph.csr import Graph
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.weights import assign_random_weights
from repro.graph.patch import apply_edge_batch
from repro.similarity import gsindex
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

_KINDS = ("cosine", "jaccard", "dice", "overlap")
_N = 300


def _config(kind: str, closed: bool) -> SimilarityConfig:
    return SimilarityConfig(
        kind=kind, closed=closed, pruning=kind == "cosine"
    )


@pytest.fixture(scope="module")
def base():
    graph, _ = lfr_graph(
        LFRParams(n=_N, average_degree=8, max_degree=30, mixing=0.3, seed=7)
    )
    return graph


@pytest.fixture(scope="module")
def weighted(base):
    return assign_random_weights(base, seed=3)


def _row(graph: Graph, x: int):
    lo, hi = int(graph.indptr[x]), int(graph.indptr[x + 1])
    return graph.indices[lo:hi].tolist(), graph.weights[lo:hi].tolist()


def _changed_rows(old: Graph, new: Graph) -> set:
    """E by a per-row Python comparison (new vertices always change)."""
    return {
        x
        for x in range(new.num_vertices)
        if x >= old.num_vertices or _row(old, x) != _row(new, x)
    }


def _incident_slots(graph: Graph, changed: set) -> int:
    owners = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    return sum(
        1
        for x, y in zip(owners.tolist(), graph.indices.tolist())
        if x in changed or y in changed
    )


@contextlib.contextmanager
def _no_derive(monkeypatch):
    """Fail if ``_derive`` runs inside the block."""
    calls = []
    original = ClusteringIndex._derive

    def spy(self):
        calls.append(self)
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(ClusteringIndex, "_derive", spy)
        yield
    assert calls == [], "refresh re-derived the whole index"


def _assert_fresh(index: ClusteringIndex, graph: Graph) -> None:
    fresh = ClusteringIndex.build(graph, index.config)
    assert index.fingerprint == fresh.fingerprint
    assert index.edge.sigmas.tobytes() == fresh.edge.sigmas.tobytes()
    ours, theirs = index.derived_arrays(), fresh.derived_arrays()
    for label in ClusteringIndex.DERIVED_LABELS:
        assert ours[label].dtype == theirs[label].dtype, label
        assert ours[label].tobytes() == theirs[label].tobytes(), label


def _refresh_checked(index, new_graph, affected, monkeypatch):
    """Refresh, then check exactness and the incident-slot cost model."""
    old_graph = index.graph
    with _no_derive(monkeypatch):
        patched, stats = index.refresh(new_graph, affected)
    _assert_fresh(patched, new_graph)
    changed = _changed_rows(old_graph, new_graph)
    rows = set(changed)
    for x in changed:
        rows.update(new_graph.neighbors(x).tolist())
    assert stats["rows_recomputed"] == len(rows)
    assert stats["slots_recomputed"] == _incident_slots(new_graph, changed)
    assert stats["slots_recomputed"] <= 2 * sum(
        new_graph.degree(x) for x in changed
    )
    assert stats["slots_recomputed"] + stats["slots_copied"] == int(
        new_graph.indices.shape[0]
    )
    return patched, stats


def _batches(graph: Graph, weighted: bool, seed: int):
    """Seeded (insert, delete, add_vertices) batches over ``graph``."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    taken = set()

    def fresh_edges(count, ids):
        out = []
        while len(out) < count:
            u, v = sorted(int(x) for x in rng.choice(ids, 2, replace=False))
            if not graph.has_edge(u, v) and (u, v) not in taken:
                taken.add((u, v))
                w = round(float(rng.uniform(0.5, 1.5)), 3)
                out.append([u, v, w] if weighted else [u, v])
        return out

    present = list(itertools.islice(graph.edges(), 0, None, 37))[:6]
    # Inserts only; then deletes of pre-existing edges.
    yield fresh_edges(4, n), [], 0
    yield [], [[u, v] for u, v, _ in present[:3]], 0
    # A delete of an edge the same batch inserted (inserts apply first).
    ins = fresh_edges(3, n)
    yield ins, [ins[0][:2]], 0
    # New vertices: one wired in, one left isolated.
    yield [[n, 5], [n, 17]], [[u, v] for u, v, _ in present[3:4]], 2
    # Stopped by an invalid op: the second insert repeats the first.
    first = fresh_edges(1, n)[0]
    yield [first, first, fresh_edges(1, n)[0]], [], 0


@pytest.mark.parametrize("weighted_graph", [False, True])
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
def test_refresh_stream_is_bitwise_a_fresh_build(
    base, weighted, kind, closed, weighted_graph, monkeypatch
):
    graph = weighted if weighted_graph else base
    index = ClusteringIndex.build(graph, _config(kind, closed))
    batches = 0
    for insert, delete, add in _batches(graph, weighted_graph, seed=11):
        batch = apply_edge_batch(
            index.graph, insert=insert, delete=delete, add_vertices=add
        )
        index, _ = _refresh_checked(
            index, batch.graph, batch.affected, monkeypatch
        )
        batches += batch.error is not None
    assert batches == 1  # the invalid-op batch stopped after its prefix
    assert index.graph.num_vertices == graph.num_vertices + 2


def test_refresh_with_endpoints_only_is_exact(base, monkeypatch):
    """Deleting (u, v) changes rows u and v only; N(u) ∪ N(v) need not
    be declared."""
    index = ClusteringIndex.build(base)
    u = 0
    v = int(base.neighbors(u)[0])
    batch = apply_edge_batch(base, delete=[[u, v]])
    _, stats = _refresh_checked(index, batch.graph, {u, v}, monkeypatch)
    assert stats["slots_recomputed"] < 2 * (
        base.degree(u) + base.degree(v)
    )


@pytest.mark.parametrize("budget", [None, 64])
def test_refresh_scattered_and_consecutive_rows(base, budget, monkeypatch):
    """Changed rows in consecutive runs and isolated ids alike, in one
    kernel pass or, over a small expansion budget, in several."""
    index = ClusteringIndex.build(base)
    ids = [1, 2, 3, 7, 9, 10]
    insert = [
        [u, v]
        for u, v in itertools.combinations(ids, 2)
        if not base.has_edge(u, v)
    ]
    batch = apply_edge_batch(base, insert=insert)
    if budget is not None:
        monkeypatch.setattr(gsindex, "_EXPANSION_BUDGET", budget)
    passes = []
    original = SimilarityOracle.sigma_pairs_unrecorded

    def spy(self, ps, qs):
        passes.append(ps.shape[0])
        return original(self, ps, qs)

    monkeypatch.setattr(SimilarityOracle, "sigma_pairs_unrecorded", spy)
    _, stats = _refresh_checked(index, batch.graph, ids, monkeypatch)
    assert sum(passes) == stats["slots_recomputed"]
    assert (len(passes) == 1) == (budget is None)


def test_refresh_tracks_dynamic_set_weight(weighted, monkeypatch):
    dyn = DynamicSCAN(AdjacencyGraph.from_csr(weighted), 3, 0.5)
    u = 4
    v = int(weighted.neighbors(u)[-1])
    before = dyn.sigma_recomputations
    dyn.set_weight(u, v, 3.0)
    with _no_derive(monkeypatch):
        dyn.clustering()
    snapshot = dyn.graph.to_csr()
    _assert_fresh(dyn._index, snapshot)
    assert dyn.sigma_recomputations - before == _incident_slots(
        snapshot, {u, v}
    )


def _reweighted(graph: Graph, u: int, v: int, weight: float) -> Graph:
    weights = graph.weights.copy()
    for a, b in ((u, v), (v, u)):
        lo = int(graph.indptr[a])
        row = graph.indices[lo : int(graph.indptr[a + 1])]
        weights[lo + int(np.searchsorted(row, b))] = weight
    return Graph(graph.indptr, graph.indices, weights)


def test_refresh_rejects_undeclared_weight_change(base, monkeypatch):
    index = ClusteringIndex.build(base)
    u = 0
    v = int(base.neighbors(u)[0])
    changed = _reweighted(base, u, v, 3.0)
    with pytest.raises(ConfigError, match="affected set"):
        index.refresh(changed, [])
    with pytest.raises(ConfigError, match="affected set"):
        index.refresh(changed, [u])  # v's weights changed too
    _refresh_checked(index, changed, [u, v], monkeypatch)


def test_refresh_rejects_undeclared_adjacency_change(base):
    index = ClusteringIndex.build(base)
    u, v = next(
        (0, x) for x in range(1, _N) if not base.has_edge(0, x)
    )
    batch = apply_edge_batch(base, insert=[[u, v]])
    with pytest.raises(ConfigError, match="affected set"):
        index.refresh(batch.graph, [])
