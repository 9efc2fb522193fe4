"""Differential tests for the CSR edge-batch patch.

The reference is a sequential replay through the mutable
:class:`~repro.dynamic.graph.AdjacencyGraph`: parse each spec, record
the endpoints and their current neighbors, apply the op, record again,
and stop at the first exception with the valid prefix kept.
:func:`repro.graph.patch.apply_edge_batch` must reproduce that replay
exactly — arrays and fingerprint bitwise, the same exception type and
message after the same prefix, the same counts and the same affected
rows — on random batches with failing specs at random positions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dynamic.graph import AdjacencyGraph
from repro.errors import ConfigError, GraphError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.graph.patch import affected_rows, apply_edge_batch
from repro.service.store import GraphStore
from repro.similarity.index import graph_fingerprint


def _reference(graph, insert, delete, add_vertices):
    """Sequential AdjacencyGraph replay of one batch."""
    mirror = AdjacencyGraph.from_csr(graph)
    affected = set()
    counts = {"inserted": 0, "deleted": 0}

    def collect(u, v):
        for x in (u, v):
            if 0 <= x < mirror.num_vertices:
                affected.add(x)
                affected.update(mirror.neighbors(x))

    error = None
    try:
        for _ in range(add_vertices):
            mirror.add_vertex()
        for spec in insert:
            if len(spec) == 2:
                u, v, weight = int(spec[0]), int(spec[1]), 1.0
            elif len(spec) == 3:
                u, v, weight = int(spec[0]), int(spec[1]), float(spec[2])
            else:
                raise ConfigError(
                    "insert entries must be [u, v] or [u, v, weight]"
                )
            collect(u, v)
            mirror.add_edge(u, v, weight)
            collect(u, v)
            counts["inserted"] += 1
        for spec in delete:
            if len(spec) != 2:
                raise ConfigError("delete entries must be [u, v]")
            u, v = int(spec[0]), int(spec[1])
            collect(u, v)
            mirror.remove_edge(u, v)
            collect(u, v)
            counts["deleted"] += 1
    except Exception as exc:
        error = exc
    return mirror.to_csr(), counts, sorted(affected), error


def _bad_insert(rng, n, present):
    kind = rng.integers(6)
    if kind == 0 and present:  # duplicate of an existing edge
        u, v = present[int(rng.integers(len(present)))]
        return [v, u]
    if kind == 1:
        return [int(rng.integers(n)), n + int(rng.integers(3))]
    if kind == 2:
        return [-1 - int(rng.integers(3)), int(rng.integers(n))]
    if kind == 3:
        u = int(rng.integers(n))
        return [u, u]
    if kind == 4:
        u, v = rng.choice(n, 2, replace=False)
        return [int(u), int(v), [-1.0, math.nan, math.inf][rng.integers(3)]]
    return [int(rng.integers(n))] * int(rng.choice([1, 4]))


def _bad_delete(rng, n):
    kind = rng.integers(4)
    if kind == 0:  # almost surely missing in a sparse graph
        u, v = rng.choice(n, 2, replace=False)
        return [int(u), int(v)]
    if kind == 1:
        return [int(rng.integers(n)), n + 5]
    if kind == 2:
        u = int(rng.integers(n))
        return [u, u]
    return [int(rng.integers(n))]


def _random_batch(rng, graph):
    n = graph.num_vertices
    add = int(rng.integers(3)) if rng.random() < 0.3 else 0
    total = n + add
    present = [(u, v) for u, v, _ in graph.edges()]
    taken = {(min(u, v), max(u, v)) for u, v in present}
    insert, delete = [], []
    for _ in range(int(rng.integers(0, 10))):
        u, v = (int(x) for x in rng.choice(total, 2, replace=False))
        if (min(u, v), max(u, v)) in taken:
            continue
        taken.add((min(u, v), max(u, v)))
        spec = [u, v]
        if rng.random() < 0.5:
            spec.append(float(rng.choice([0.5, 1.0, 2.5, 0.0])))
        insert.append(spec)
    if insert and rng.random() < 0.3:  # duplicate within the batch
        insert.append(list(insert[int(rng.integers(len(insert)))]))
    for _ in range(int(rng.integers(0, 8))):
        if insert and rng.random() < 0.3:  # delete-after-insert
            u, v = insert[int(rng.integers(len(insert)))][:2]
        elif present:
            u, v = present[int(rng.integers(len(present)))]
        else:
            continue
        delete.append([v, u] if rng.random() < 0.5 else [u, v])
    if rng.random() < 0.6:
        if rng.random() < 0.5 or not delete:
            insert.insert(
                int(rng.integers(len(insert) + 1)),
                _bad_insert(rng, n, present),
            )
        else:
            delete.insert(
                int(rng.integers(len(delete) + 1)), _bad_delete(rng, n)
            )
    return insert, delete, add


def _assert_same(graph, insert, delete, add):
    ref_graph, counts, ref_affected, ref_error = _reference(
        graph, insert, delete, add
    )
    result = apply_edge_batch(
        graph, insert=insert, delete=delete, add_vertices=add
    )
    assert type(result.error) is type(ref_error)
    assert str(result.error) == str(ref_error)
    assert result.inserted == counts["inserted"]
    assert result.deleted == counts["deleted"]
    got = result.graph
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(ref_graph, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert graph_fingerprint(got) == graph_fingerprint(ref_graph)
    n = got.num_vertices
    assert result.affected.tolist() == [v for v in ref_affected if v < n]
    return result


@pytest.mark.parametrize("seed", range(40))
def test_random_batches_match_adjacency_replay(seed):
    rng = np.random.default_rng(seed)
    graph = gnm_random_graph(25, 40, seed=seed)
    for _ in range(8):
        insert, delete, add = _random_batch(rng, graph)
        result = _assert_same(graph, insert, delete, add)
        graph = result.graph


@pytest.mark.parametrize("seed", range(10))
def test_store_updates_match_adjacency_replay(seed):
    """The same batches through ``GraphStore.update_edges``: raised
    errors, installed arrays, fingerprints and ``affected_vertices``."""
    rng = np.random.default_rng(100 + seed)
    store = GraphStore()
    graph = gnm_random_graph(25, 40, seed=seed)
    store.add("g", graph, build_cluster_index=True)
    for _ in range(8):
        graph = store.get("g").graph
        insert, delete, add = _random_batch(rng, graph)
        ref_graph, counts, ref_affected, ref_error = _reference(
            graph, insert, delete, add
        )
        try:
            stats = store.update_edges(
                "g", insert=insert, delete=delete, add_vertices=add
            )
        except Exception as exc:
            assert type(exc) is type(ref_error)
            assert str(exc) == str(ref_error)
        else:
            assert ref_error is None
            assert (stats.inserted, stats.deleted) == (
                counts["inserted"], counts["deleted"]
            )
            assert list(stats.affected_vertices) == ref_affected
        entry = store.get("g")
        for name in ("indptr", "indices", "weights"):
            assert getattr(entry.graph, name).tobytes() == (
                getattr(ref_graph, name).tobytes()
            )
        assert entry.fingerprint == graph_fingerprint(ref_graph)
        if entry.cluster_index is not None:
            assert entry.cluster_index.fingerprint == entry.fingerprint


def test_prefix_stays_applied_before_the_error():
    graph = gnm_random_graph(10, 12, seed=1)
    free = next(
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not graph.has_edge(u, v)
    )
    result = apply_edge_batch(
        graph, insert=[list(free), [3, 3], [0, 1]], add_vertices=2
    )
    assert isinstance(result.error, GraphError)
    assert str(result.error) == "self-loops are not allowed"
    assert result.inserted == 1
    assert result.graph.num_vertices == 12
    assert result.graph.has_edge(*free)


def test_untouched_batch_returns_the_input_graph():
    graph = gnm_random_graph(10, 12, seed=2)
    result = apply_edge_batch(graph, delete=[[0]])
    assert result.graph is graph
    assert isinstance(result.error, ConfigError)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_rejected(weight):
    graph = gnm_random_graph(10, 12, seed=3)
    u, v = next(
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not graph.has_edge(u, v)
    )
    result = apply_edge_batch(graph, insert=[[u, v, weight]])
    assert isinstance(result.error, GraphError)
    assert result.graph is graph
    with pytest.raises(GraphError):
        AdjacencyGraph.from_csr(graph).add_edge(u, v, weight)


def test_affected_rows_ignores_out_of_range_and_new_vertices():
    graph = gnm_random_graph(8, 10, seed=4)
    rows = affected_rows(graph, [0, -1, 9, 12], 10)
    expected = {0, 9} | set(graph.neighbors(0).tolist())
    assert rows.tolist() == sorted(expected)
