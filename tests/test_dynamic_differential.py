"""Property-based differential tests for the dynamic-update path.

Three claims, each checked against an independent reference:

* **stream ≡ fresh**: any interleaved insert/delete stream applied
  through :class:`~repro.dynamic.scan.DynamicSCAN` yields exactly the
  clustering a from-scratch sequential ``scan`` computes on the final
  graph (and the maintained σ array matches a full recompute), for
  every σ kind in closed and open neighborhoods;
* **store ≡ fresh index**: the same stream sent as ``update-edges``
  batches keeps the store's CSR arrays and fingerprint bitwise equal to
  an :class:`~repro.dynamic.graph.AdjacencyGraph` replay after every
  batch, and its refreshed clustering index answers exactly like a
  fresh :meth:`ClusteringIndex.build` on the final graph;
* **exact invalidation**: after a service-level ``update-edges``, the
  result cache loses precisely the entries keyed by the pre-update
  fingerprint — never a bystander graph's entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.scan import scan
from repro.dynamic.graph import AdjacencyGraph
from repro.dynamic.scan import DynamicSCAN
from repro.graph.builder import GraphBuilder
from repro.service.store import (
    CachedResult,
    GraphStore,
    ResultCache,
    make_cache_key,
)
from repro.similarity.gsindex import ClusteringIndex
from repro.similarity.index import graph_fingerprint
from repro.similarity.weighted import SimilarityConfig

_KINDS = ("cosine", "jaccard", "dice", "overlap")

_N = 12

# A stream of edge "toggles": present -> delete, absent -> insert.
# Toggling sidesteps duplicate-insert/missing-delete bookkeeping while
# still exercising arbitrary interleavings of both operations.
toggle_streams = st.lists(
    st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=25,
)

seed_edges = st.lists(
    st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=20,
)


def _key(u, v):
    return (u, v) if u < v else (v, u)


def _csr_of(edge_weights):
    builder = GraphBuilder(_N)
    for (u, v), w in sorted(edge_weights.items()):
        builder.add_edge(u, v, w)
    return builder.build(dedup="error")


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=seed_edges, stream=toggle_streams, mu=st.integers(2, 4))
def test_update_stream_equals_fresh_scan(seed, stream, mu):
    model = {}
    for u, v in seed:
        model[_key(u, v)] = 1.0
    dynamic = DynamicSCAN(
        AdjacencyGraph.from_csr(_csr_of(model)), mu=mu, epsilon=0.5
    )
    for u, v in stream:
        if _key(u, v) in model:
            dynamic.remove_edge(u, v)
            del model[_key(u, v)]
        else:
            dynamic.add_edge(u, v)
            model[_key(u, v)] = 1.0
    dynamic.verify_cache()  # incremental σ ≡ from-scratch σ
    fresh = _csr_of(model)
    expected = scan(fresh, mu, 0.5).canonical().labels
    got = dynamic.clustering().canonical().labels
    assert np.array_equal(got, expected)
    assert graph_fingerprint(dynamic.graph.to_csr()) == graph_fingerprint(
        fresh
    )


# Denser seeds and weighted toggles: the σ kinds differ most on
# weighted graphs with many shared neighbors.
dense_seed_edges = st.lists(
    st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=10,
    max_size=40,
)
weighted_streams = st.lists(
    st.tuples(
        st.integers(0, _N - 1),
        st.integers(0, _N - 1),
        st.sampled_from((0.5, 1.0, 2.0)),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=25,
)


def _config(kind, closed):
    return SimilarityConfig(
        kind=kind, closed=closed, pruning=kind == "cosine"
    )


def _toggle(model, u, v, weight):
    """Flip (u, v) in ``model``; returns ``("insert"|"delete", spec)``."""
    key = _key(u, v)
    if key in model:
        del model[key]
        return "delete", [u, v]
    model[key] = weight
    return "insert", [u, v, weight]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=dense_seed_edges,
    stream=weighted_streams,
    mu=st.integers(2, 4),
    epsilon=st.sampled_from((0.2, 0.35, 0.5, 0.7)),
)
def test_every_kind_stream_equals_fresh_scan(
    kind, closed, seed, stream, mu, epsilon
):
    config = _config(kind, closed)
    model = {_key(u, v): 1.0 for u, v in seed}
    dynamic = DynamicSCAN(
        AdjacencyGraph.from_csr(_csr_of(model)),
        mu=mu,
        epsilon=epsilon,
        similarity=config,
    )
    for i, (u, v, weight) in enumerate(stream):
        op, _ = _toggle(model, u, v, weight)
        if op == "delete":
            dynamic.remove_edge(u, v)
        else:
            dynamic.add_edge(u, v, weight)
        if i % 7 == 6:  # interleave reads: refreshes mid-stream
            dynamic.clustering(seed=i)
    assert dynamic.verify_cache()
    fresh = _csr_of(model)
    for order_seed in (0, 3):
        expected = scan(
            fresh, mu, epsilon, similarity_config=config, seed=order_seed
        )
        got = dynamic.clustering(seed=order_seed)
        assert np.array_equal(got.labels, expected.labels)
    assert np.array_equal(
        np.flatnonzero(dynamic.core_mask()), expected.cores()
    )


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=dense_seed_edges,
    stream=weighted_streams,
    batch=st.integers(1, 6),
    mu=st.integers(2, 4),
)
def test_every_kind_store_batches_equal_fresh_index(
    kind, closed, seed, stream, batch, mu
):
    config = _config(kind, closed)
    model = {_key(u, v): 1.0 for u, v in seed}
    store = GraphStore()
    store.add(
        "g", _csr_of(model), similarity=config, build_cluster_index=True
    )
    reference = AdjacencyGraph.from_csr(_csr_of(model))
    for start in range(0, len(stream), batch):
        insert, delete, touched = [], [], set()
        for u, v, weight in stream[start : start + batch]:
            if _key(u, v) in touched:
                continue  # one op per pair and batch: order-free
            touched.add(_key(u, v))
            op, spec = _toggle(model, u, v, weight)
            if op == "delete":
                delete.append(spec)
                reference.remove_edge(u, v)
            else:
                insert.append(spec)
                reference.add_edge(u, v, weight)
        store.update_edges("g", insert=insert, delete=delete)
        entry = store.get("g")
        expected = reference.to_csr()
        for name in ("indptr", "indices", "weights"):
            assert (
                getattr(entry.graph, name).tobytes()
                == getattr(expected, name).tobytes()
            )
        assert entry.fingerprint == graph_fingerprint(expected)
    entry = store.get("g")
    fresh = ClusteringIndex.build(_csr_of(model), config)
    assert entry.cluster_index.edge.sigmas.tobytes() == (
        fresh.edge.sigmas.tobytes()
    )
    for epsilon in (0.3, 0.5, 0.7):
        assert np.array_equal(
            entry.cluster_index.query(epsilon, mu, seed=2).labels,
            fresh.query(epsilon, mu, seed=2).labels,
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=seed_edges, stream=toggle_streams)
def test_update_edges_invalidates_exactly_affected_entries(seed, stream):
    model = {}
    for u, v in seed:
        model[_key(u, v)] = 1.0
    store = GraphStore()
    entry = store.add("target", _csr_of(model))
    cache = ResultCache(capacity=64)
    config = SimilarityConfig()

    target_keys = [
        make_cache_key(entry.fingerprint, config, mu, eps)
        for mu, eps in ((2, 0.4), (3, 0.6))
    ]
    bystander_keys = [
        make_cache_key("other-graph", config, mu, eps)
        for mu, eps in ((2, 0.4), (2, 0.7), (4, 0.5))
    ]
    blank = CachedResult(
        labels=np.zeros(_N, dtype=np.int64),
        num_clusters=0,
        sigma_evaluations=0,
        compute_seconds=0.0,
    )
    for key in target_keys + bystander_keys:
        cache.put(key, blank)

    insert = [[u, v] for u, v in stream if _key(u, v) not in model][:1]
    delete = (
        [list(next(iter(model)))] if model and not insert else []
    )
    if not insert and not delete:
        return  # nothing to mutate this example
    stats = store.update_edges("target", insert=insert, delete=delete)
    assert cache.invalidate_fingerprint(stats.old_fingerprint) == len(
        target_keys
    )
    remaining = cache.keys()
    assert len(remaining) == len(bystander_keys)
    assert all(key.fingerprint == "other-graph" for key in remaining)
    # The refreshed fingerprint keys future queries against the new
    # graph content, distinct from the invalidated generation.
    assert stats.new_fingerprint != stats.old_fingerprint
