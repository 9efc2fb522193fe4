"""Shared fixtures: canonical small graphs and generated test graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.random_graphs import (
    gnm_random_graph,
    relaxed_caveman_graph,
)
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

# Zachary's karate club (34 vertices, 78 edges) — the classic community
# detection testbed; SCAN's original paper uses networks of this flavor.
KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21),
    (0, 31), (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19),
    (1, 21), (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13),
    (2, 27), (2, 28), (2, 32), (3, 7), (3, 12), (3, 13), (4, 6),
    (4, 10), (5, 6), (5, 10), (5, 16), (6, 16), (8, 30), (8, 32),
    (8, 33), (9, 33), (13, 33), (14, 32), (14, 33), (15, 32),
    (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32),
    (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29),
    (26, 33), (27, 33), (28, 31), (28, 33), (29, 32), (29, 33),
    (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
]


@pytest.fixture(autouse=True)
def _bench_artifacts_in_tmp(tmp_path, monkeypatch):
    """Keep bench JSON artifacts (BENCH_*.json) out of the working tree."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))


@pytest.fixture(scope="session")
def karate() -> Graph:
    return Graph.from_edges(34, KARATE_EDGES)


@pytest.fixture(scope="session")
def triangle() -> Graph:
    """A single triangle: the smallest graph with a SCAN cluster."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge edge (3-4)."""
    return Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    )


@pytest.fixture(scope="session")
def path_graph() -> Graph:
    """A path — no triangles, so σ between neighbors is low."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def star_graph() -> Graph:
    """A 6-leaf star: hub vertex with no closed triangles."""
    return Graph.from_edges(7, [(0, i) for i in range(1, 7)])


@pytest.fixture(scope="session")
def weighted_triangle() -> Graph:
    builder = GraphBuilder(3)
    builder.add_edge(0, 1, 2.0)
    builder.add_edge(1, 2, 0.5)
    builder.add_edge(0, 2, 1.0)
    return builder.build()


@pytest.fixture(scope="session")
def lfr_small() -> Graph:
    graph, _ = lfr_graph(
        LFRParams(n=300, average_degree=10, max_degree=30, mixing=0.25, seed=5)
    )
    return graph


@pytest.fixture(scope="session")
def lfr_medium() -> Graph:
    graph, _ = lfr_graph(
        LFRParams(n=800, average_degree=14, max_degree=60, mixing=0.3, seed=9)
    )
    return graph


@pytest.fixture(scope="session")
def caveman() -> Graph:
    return relaxed_caveman_graph(10, 8, 0.15, seed=3)


@pytest.fixture(scope="session")
def random_sparse() -> Graph:
    return gnm_random_graph(200, 600, seed=13)


@pytest.fixture()
def oracle(karate) -> SimilarityOracle:
    return SimilarityOracle(karate, SimilarityConfig())


def make_oracle(graph: Graph, **kwargs) -> SimilarityOracle:
    """Helper for tests needing a custom-config oracle."""
    return SimilarityOracle(graph, SimilarityConfig(**kwargs))


def brute_force_sigma(graph: Graph, p: int, q: int, *, closed=True, sw=1.0):
    """Independent O(n) σ implementation used to validate the oracle."""
    def closed_items(v):
        items = {
            int(u): float(w)
            for u, w in zip(graph.neighbors(v), graph.neighbor_weights(v))
        }
        if closed:
            items[v] = sw
        return items

    a, b = closed_items(p), closed_items(q)
    num = sum(w * b[r] for r, w in a.items() if r in b)
    la = sum(w * w for w in a.values())
    lb = sum(w * w for w in b.values())
    denom = np.sqrt(la * lb)
    return num / denom if denom else 0.0


@pytest.fixture()
def sigma_passes(monkeypatch):
    """Record every σ computation: each batched σ kernel call and each
    :meth:`EdgeSimilarityIndex.build`.  A test asserts the list stays
    empty across an operation that must reuse a stored σ array."""
    from repro.similarity import kernels
    from repro.similarity.index import EdgeSimilarityIndex

    calls = []
    for name in ("sigma_for_pairs", "sigma_row_block", "sigma_all_edges"):
        original = getattr(kernels, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    build = EdgeSimilarityIndex.build.__func__

    def spy_build(cls, *args, **kwargs):
        calls.append("EdgeSimilarityIndex.build")
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(EdgeSimilarityIndex, "build", classmethod(spy_build))
    return calls
