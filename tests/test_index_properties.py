"""Property and metamorphic tests for the clustering index.

Where the differential battery compares against the sequential
reference, these tests pin *relations between the index's own answers*
that must hold regardless of the input graph:

* **parameter monotonicity** — raising ε or μ never grows the core
  set, and never grows any cluster's core set: clusters *refine* (each
  stricter-parameter cluster's cores live inside one looser-parameter
  cluster);
* **tie-order invariance** — permuting equal-σ slots inside the
  σ-sorted rows changes no query answer (the tie-break is pinned for
  determinism of the *structure*, but the *answers* cannot depend on
  it);
* **persistence transparency** — a persisted-then-loaded index answers
  every query identically to the in-memory original, including after a
  corruption → quarantine → rebuild cycle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.similarity.gsindex import ClusteringIndex

pytestmark = [pytest.mark.index_differential, pytest.mark.timeout(300)]

_EPS_LADDER = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
_MU_LADDER = (2, 3, 4, 6, 9)


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(110, 400, seed=9)


@pytest.fixture(scope="module")
def index(graph):
    return ClusteringIndex.build(graph)


def _core_sets_by_cluster(index, epsilon, mu):
    """{cluster id: frozenset of its core vertices} at (ε, μ)."""
    clustering = index.query(epsilon, mu)
    mask = index.core_mask(epsilon, mu)
    cores = np.flatnonzero(mask)
    out = {}
    for v in cores.tolist():
        out.setdefault(int(clustering.labels[v]), set()).add(v)
    return {cid: frozenset(vs) for cid, vs in out.items()}


# ----------------------------------------------------------------------
# monotonicity in ε and μ
# ----------------------------------------------------------------------
def test_core_set_antitone_in_epsilon(index):
    for mu in _MU_LADDER:
        previous = None
        for epsilon in _EPS_LADDER:
            mask = index.core_mask(epsilon, mu)
            if previous is not None:
                # Raising ε can only demote cores, never promote.
                assert not np.any(mask & ~previous)
            previous = mask


def test_core_set_antitone_in_mu(index):
    for epsilon in _EPS_LADDER:
        previous = None
        for mu in _MU_LADDER:
            mask = index.core_mask(epsilon, mu)
            if previous is not None:
                assert not np.any(mask & ~previous)
            previous = mask


def _assert_refines(index, loose, strict):
    """Every strict-parameter cluster's cores lie inside exactly one
    loose-parameter cluster (no cluster's core set ever grows)."""
    loose_sets = _core_sets_by_cluster(index, *loose)
    strict_sets = _core_sets_by_cluster(index, *strict)
    owner_of = {}
    for cid, members in loose_sets.items():
        for v in members:
            owner_of[v] = cid
    for members in strict_sets.values():
        owners = {owner_of[v] for v in members}
        assert len(owners) == 1, (
            f"cluster cores {sorted(members)} split across loose "
            f"clusters {owners} going {loose} -> {strict}"
        )


def test_clusters_refine_when_epsilon_rises(index):
    for mu in (2, 4):
        for lo, hi in zip(_EPS_LADDER, _EPS_LADDER[1:]):
            _assert_refines(index, (lo, mu), (hi, mu))


def test_clusters_refine_when_mu_rises(index):
    for epsilon in (0.35, 0.5):
        for lo, hi in zip(_MU_LADDER, _MU_LADDER[1:]):
            _assert_refines(index, (epsilon, lo), (epsilon, hi))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
    ),
    eps_pair=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    mu_pair=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_hypothesis_monotone_core_counts(edges, eps_pair, mu_pair):
    builder = GraphBuilder(14)
    for u, v in edges:
        builder.add_edge(u, v)
    idx = ClusteringIndex.build(builder.build(dedup="ignore"))
    eps_lo, eps_hi = sorted(eps_pair)
    mu_lo, mu_hi = sorted(mu_pair)
    loose = idx.core_mask(eps_lo, mu_lo)
    strict = idx.core_mask(eps_hi, mu_hi)
    assert not np.any(strict & ~loose)


# ----------------------------------------------------------------------
# tie-order invariance
# ----------------------------------------------------------------------
def _reverse_tied_runs(index) -> bool:
    """Reverse every equal-σ run inside every σ-sorted row, in place.

    σ values are untouched; only the (deliberately pinned) neighbor
    tie-break is scrambled.  Returns whether anything changed.
    """
    graph = index.graph
    sigmas = index._sorted_sigmas
    neighbors = index._sorted_neighbors
    changed = False
    for v in range(graph.num_vertices):
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        i = lo
        while i < hi:
            j = i + 1
            while j < hi and sigmas[j] == sigmas[i]:
                j += 1
            if j - i > 1:
                neighbors[i:j] = neighbors[i:j][::-1]
                changed = True
            i = j
    return changed


def test_tie_order_is_observably_irrelevant(graph):
    """Unweighted graphs are full of σ ties; reversing every tied run
    must change no core set, neighborhood, or clustering."""
    pristine = ClusteringIndex.build(graph)
    scrambled = ClusteringIndex.build(graph)
    assert _reverse_tied_runs(scrambled), "graph produced no σ ties"
    for epsilon, mu in ((0.3, 2), (0.5, 3), (0.65, 4), (0.8, 7)):
        np.testing.assert_array_equal(
            pristine.core_mask(epsilon, mu),
            scrambled.core_mask(epsilon, mu),
        )
        np.testing.assert_array_equal(
            pristine.query(epsilon, mu, seed=5).labels,
            scrambled.query(epsilon, mu, seed=5).labels,
        )
    for v in (0, 17, 80):
        np.testing.assert_array_equal(
            pristine.eps_neighborhood(v, 0.5),
            scrambled.eps_neighborhood(v, 0.5),
        )


# ----------------------------------------------------------------------
# persistence transparency
# ----------------------------------------------------------------------
def test_loaded_index_answers_identically(tmp_path, graph, index):
    path = tmp_path / "g.gsindex.npz"
    index.save(path)
    loaded = ClusteringIndex.load(path, graph)
    for epsilon, mu in ((0.25, 2), (0.5, 4), (0.7, 6), (0.5, 9)):
        np.testing.assert_array_equal(
            index.query(epsilon, mu, seed=2).labels,
            loaded.query(epsilon, mu, seed=2).labels,
        )
        assert loaded.last_query["sigma_evaluations"] == 0


def test_corrupt_quarantine_rebuild_answers_identically(
    tmp_path, graph, index
):
    """Flip bytes in the archive: the load must fail closed, quarantine
    the damage, and the rebuilt index must answer exactly as before."""
    path = tmp_path / "g.gsindex.npz"
    index.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    blob[len(blob) // 3] ^= 0xFF
    path.write_bytes(bytes(blob))
    rebuilt, recovered = ClusteringIndex.load_or_rebuild(path, graph)
    assert recovered
    assert (tmp_path / "g.gsindex.npz.quarantined").exists()
    for epsilon, mu in ((0.3, 2), (0.55, 4)):
        np.testing.assert_array_equal(
            index.query(epsilon, mu, seed=1).labels,
            rebuilt.query(epsilon, mu, seed=1).labels,
        )
