"""Unit tests for the GS*-style clustering index (DESIGN.md §10).

Covers the derived structures in isolation — σ-sorted rows, the core
thresholds gathered from them, σ-sorted neighborhood prefixes — plus persistence, incremental
refresh, and the zero-σ counter contract.  The differential battery
against the sequential reference lives in ``test_index_differential``;
metamorphic properties in ``test_index_properties``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import scan
from repro.errors import ConfigError, IndexIntegrityError
from repro.graph.csr import Graph
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.gsindex import ClusteringIndex, _consecutive_runs
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle


@pytest.fixture(scope="module")
def medium():
    return gnm_random_graph(120, 420, seed=5)


@pytest.fixture(scope="module")
def index(medium):
    return ClusteringIndex.build(medium)


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------
def test_sorted_rows_are_permuted_csr_rows(medium, index):
    """Each σ-sorted row holds exactly the CSR row, σ non-increasing,
    ties broken by ascending neighbor id."""
    for v in range(medium.num_vertices):
        lo, hi = int(medium.indptr[v]), int(medium.indptr[v + 1])
        neighbors = index._sorted_neighbors[lo:hi]
        sigmas = index._sorted_sigmas[lo:hi]
        assert sorted(neighbors) == sorted(medium.indices[lo:hi])
        assert np.all(np.diff(sigmas) <= 0)
        for i in range(len(sigmas) - 1):
            if sigmas[i] == sigmas[i + 1]:
                assert neighbors[i] < neighbors[i + 1]


def test_core_epsilon_is_kth_largest_sigma(medium, index):
    """ε̂_μ(v) equals the (μ − self)-th largest σ of v's row (brute
    force recomputation), with the documented sentinels elsewhere."""
    oracle = SimilarityOracle(medium, index.config)
    for v in range(medium.num_vertices):
        row = np.asarray(
            sorted(
                (oracle.sigma(v, int(q)) for q in medium.neighbors(v)),
                reverse=True,
            )
        )
        for mu in (1, 2, 3, 6, 9, 40):
            k = mu - 1  # count_self=True by default
            expected = (
                2.0 if k <= 0 else (-1.0 if k > row.shape[0] else row[k - 1])
            )
            assert index.core_epsilon(v, mu) == pytest.approx(expected)


def test_core_mask_matches_thresholds(medium, index):
    for epsilon in (0.2, 0.5, 0.8):
        for mu in (2, 4, 6):
            mask = index.core_mask(epsilon, mu)
            for v in range(medium.num_vertices):
                assert mask[v] == (index.core_epsilon(v, mu) >= epsilon)


def _kth_largest_reference(index, mu):
    """Per vertex, straight from ``edge.sigmas``: the (μ − self)-th
    largest σ of its CSR row, 2.0 when μ ≤ self, −1.0 when the row is
    too short."""
    graph = index.graph
    k = mu - (1 if index.config.count_self else 0)
    expected = np.empty(graph.num_vertices, dtype=np.float64)
    for v in range(graph.num_vertices):
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        row = sorted(index.edge.sigmas[lo:hi].tolist(), reverse=True)
        if k <= 0:
            expected[v] = 2.0
        elif k > len(row):
            expected[v] = -1.0
        else:
            expected[v] = row[k - 1]
    return expected


@pytest.mark.parametrize("count_self", [True, False])
def test_core_thresholds_match_kth_largest_reference(medium, count_self):
    """``core_thresholds`` and ``core_epsilon`` equal the per-row
    reference bit for bit at every μ from 1 to max degree + 2, both
    sentinels included (a graph with isolated vertices adds rows too
    short at every μ > self)."""
    config = SimilarityConfig(count_self=count_self)
    small = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3)])
    for graph in (medium, small):
        idx = ClusteringIndex.build(graph, config)
        for mu in range(1, int(graph.degrees.max()) + 3):
            expected = _kth_largest_reference(idx, mu)
            thresholds = idx.core_thresholds(mu)
            np.testing.assert_array_equal(thresholds, expected)
            for v in range(graph.num_vertices):
                assert idx.core_epsilon(v, mu) == expected[v]
            # A fresh array: writing to it leaves the index untouched.
            thresholds[:] = 0.0
            np.testing.assert_array_equal(idx.core_thresholds(mu), expected)
            np.testing.assert_array_equal(
                idx.core_mask(0.5, mu), expected >= 0.5
            )


def test_core_mask_exact_threshold_is_inclusive(medium, index):
    """ε exactly equal to a vertex's threshold keeps it a core (σ ≥ ε)."""
    v = int(np.argmax(medium.degrees))
    threshold = index.core_epsilon(v, 3)
    assert 0 < threshold <= 1
    assert index.core_mask(threshold, 3)[v]


def test_eps_neighborhood_matches_oracle(medium, index):
    oracle = SimilarityOracle(medium, index.config)
    for v in (0, 7, 42, 119):
        for epsilon in (0.25, 0.5, 0.75):
            expected = np.asarray(
                sorted(
                    q
                    for q in medium.neighbors(v)
                    if oracle.sigma(v, int(q)) >= epsilon
                ),
                dtype=np.int64,
            )
            got = index.eps_neighborhood(v, epsilon)
            np.testing.assert_array_equal(got, expected)


def test_cores_ascending(medium, index):
    cores = index.cores(0.5, 3)
    assert np.all(np.diff(cores) > 0)
    assert np.array_equal(cores, np.flatnonzero(index.core_mask(0.5, 3)))


# ----------------------------------------------------------------------
# zero-σ contract
# ----------------------------------------------------------------------
def test_queries_never_evaluate_sigma(medium):
    """The whole point: after build, σ counters stay frozen at zero."""
    idx = ClusteringIndex.build(medium)
    assert idx.counters.sigma_evaluations == 0
    for epsilon, mu in ((0.3, 2), (0.5, 4), (0.7, 9), (0.9, 2)):
        idx.query(epsilon, mu, seed=3)
        idx.core_mask(epsilon, mu)
        idx.eps_neighborhood(0, epsilon)
        assert idx.counters.sigma_evaluations == 0
        assert idx.last_query["sigma_evaluations"] == 0
        assert idx.last_query["epsilon"] == pytest.approx(epsilon)
        assert idx.last_query["mu"] == mu
    # Each query() and each eps_neighborhood() is one recorded range
    # query (the latter so index-tier accounting round-trips the same
    # way the oracle tiers' does), all with zero σ evaluations.
    assert idx.counters.neighborhood_queries == 8


def test_query_matches_scan_smoke(medium, index):
    result = index.query(0.5, 3, seed=1)
    reference = scan(medium, 3, 0.5, seed=1)
    np.testing.assert_array_equal(result.labels, reference.labels)


def test_query_validates_parameters(index):
    with pytest.raises(ConfigError):
        index.query(0.0, 2)
    with pytest.raises(ConfigError):
        index.query(0.5, 0)


def test_empty_graph():
    empty = Graph.from_edges(5, [])
    idx = ClusteringIndex.build(empty)
    assert idx.query(0.5, 2).num_clusters == 0
    assert not idx.core_mask(0.5, 2).any()
    # μ=1 with count_self: every vertex is trivially a core.
    assert idx.core_mask(0.5, 1).all()


def test_info_reports_structure(index, medium):
    info = index.info()
    assert info["num_vertices"] == medium.num_vertices
    assert info["slots"] == int(medium.indices.shape[0])
    # σ array + σ-sorted rows: 8 + 8 + 8 bytes per CSR slot.
    assert info["bytes"] == 24 * int(medium.indices.shape[0])
    assert info["fingerprint"] == index.fingerprint


# ----------------------------------------------------------------------
# cross-backend determinism
# ----------------------------------------------------------------------
def test_build_bitwise_identical_across_backends(medium):
    base = ClusteringIndex.build(medium)
    for chunk_size in (1, 13, 1000):
        backend = ThreadBackend(threads=2, chunk_size=chunk_size)
        other = ClusteringIndex.build(medium, backend=backend)
        assert other.edge.sigmas.tobytes() == base.edge.sigmas.tobytes()
        for label, array in base.derived_arrays().items():
            assert other.derived_arrays()[label].tobytes() == array.tobytes()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, medium, index):
    path = tmp_path / "g.gsindex.npz"
    index.save(path)
    loaded = ClusteringIndex.load(path, medium)
    np.testing.assert_array_equal(loaded.edge.sigmas, index.edge.sigmas)
    np.testing.assert_array_equal(
        loaded._sorted_neighbors, index._sorted_neighbors
    )


def test_archive_is_edge_index_superset(tmp_path, medium, index):
    """A clustering-index archive loads as a plain edge index, and an
    edge-index archive loads as a clustering index."""
    path = tmp_path / "g.gsindex.npz"
    index.save(path)
    edge = EdgeSimilarityIndex.load(path, medium)
    np.testing.assert_array_equal(edge.sigmas, index.edge.sigmas)

    other = tmp_path / "g.sigma.npz"
    index.edge.save(other)
    upgraded = ClusteringIndex.load(other, medium)
    np.testing.assert_array_equal(upgraded.edge.sigmas, index.edge.sigmas)


def test_load_rejects_wrong_graph(tmp_path, medium, index):
    path = tmp_path / "g.gsindex.npz"
    index.save(path)
    other = gnm_random_graph(120, 420, seed=6)
    with pytest.raises(ConfigError):
        ClusteringIndex.load(path, other)


def test_load_missing_raises_integrity(tmp_path, medium):
    with pytest.raises(IndexIntegrityError):
        ClusteringIndex.load(tmp_path / "missing.npz", medium)


def test_load_or_rebuild_quarantines_garbage(tmp_path, medium):
    path = tmp_path / "g.gsindex.npz"
    path.write_bytes(b"not an archive")
    idx, recovered = ClusteringIndex.load_or_rebuild(path, medium)
    assert recovered
    assert (tmp_path / "g.gsindex.npz.quarantined").exists()
    # The rebuilt archive is valid now.
    again, recovered_again = ClusteringIndex.load_or_rebuild(path, medium)
    assert not recovered_again
    np.testing.assert_array_equal(again.edge.sigmas, idx.edge.sigmas)


@pytest.mark.parametrize("stored_cap", [16, 3, 0, -2])
def test_archive_with_a_stored_mu_cap_still_loads(
    tmp_path, medium, index, stored_cap
):
    """Older archives carry a ``mu_cap`` field outside the σ checksum.
    Nothing reads it now, so any stored value — even one < 1 — loads
    without a rebuild; the σ checksum stays the integrity check."""
    path = tmp_path / "old.gsindex.npz"
    index.save(path)
    with np.load(path, allow_pickle=False) as archive:
        fields = {name: archive[name] for name in archive.files}
    np.savez_compressed(path, mu_cap=np.int64(stored_cap), **fields)
    loaded = ClusteringIndex.load(path, medium)
    np.testing.assert_array_equal(loaded.edge.sigmas, index.edge.sigmas)
    again, recovered = ClusteringIndex.load_or_rebuild(path, medium)
    assert not recovered
    assert not (tmp_path / "old.gsindex.npz.quarantined").exists()
    np.testing.assert_array_equal(
        again._sorted_neighbors, index._sorted_neighbors
    )
    result = again.query(0.5, 3, seed=1)
    np.testing.assert_array_equal(
        result.labels, scan(medium, 3, 0.5, seed=1).labels
    )


# ----------------------------------------------------------------------
# incremental refresh
# ----------------------------------------------------------------------
def _drop_one_edge(graph: Graph):
    """Remove the first undirected edge; return (new_graph, u, v)."""
    owners = np.repeat(
        np.arange(graph.num_vertices), np.diff(graph.indptr)
    )
    mask = owners < graph.indices
    u = int(owners[mask][0])
    v = int(graph.indices[mask][0])
    pairs = list(zip(owners[mask].tolist(), graph.indices[mask].tolist()))
    pairs.remove((u, v))
    return Graph.from_edges(graph.num_vertices, pairs), u, v


def test_refresh_bitwise_equals_fresh_build(medium, index):
    new_graph, u, v = _drop_one_edge(medium)
    affected = {u, v}
    affected.update(int(q) for q in medium.neighbors(u))
    affected.update(int(q) for q in medium.neighbors(v))
    patched, stats = index.refresh(new_graph, affected)
    fresh = ClusteringIndex.build(new_graph)
    np.testing.assert_array_equal(patched.edge.sigmas, fresh.edge.sigmas)
    np.testing.assert_array_equal(
        patched._sorted_neighbors, fresh._sorted_neighbors
    )
    assert stats["rows_recomputed"] == len(affected)
    assert stats["slots_recomputed"] + stats["slots_copied"] == int(
        new_graph.indices.shape[0]
    )
    assert stats["slots_copied"] > 0  # most rows were untouched


def test_refresh_rejects_insufficient_affected_set(medium, index):
    new_graph, u, v = _drop_one_edge(medium)
    with pytest.raises(ConfigError, match="affected set"):
        index.refresh(new_graph, {u})  # v's row changed too


def test_refresh_rejects_out_of_range_ids(medium, index):
    with pytest.raises(ConfigError, match="out of range"):
        index.refresh(medium, {medium.num_vertices + 3})


def test_consecutive_runs():
    assert _consecutive_runs(np.asarray([], dtype=np.int64)) == []
    assert _consecutive_runs(np.asarray([4])) == [(4, 5)]
    assert _consecutive_runs(np.asarray([1, 2, 3, 7, 9, 10])) == [
        (1, 4),
        (7, 8),
        (9, 11),
    ]
