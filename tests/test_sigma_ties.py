"""One σ arithmetic: every path answers "σ(p, q) ≥ ε?" the same way.

The per-pair oracle sums the same terms in the same order as the batched
kernels and divides by the same denominator, so its σ equals the
index's σ bit for bit, and every threshold test (Lemma 5 prune, the
closed-term shortcut, early exit) decides exactly ``σ ≥ ε`` on that
value.  The ties are where this shows: the explorer's suggested ε values
are σ values themselves, and a path that rounds differently there finds
a different core set from ``scan``.
"""

import numpy as np
import pytest

from repro.baselines import pscan, scan, scan_b, scanpp
from repro.core import AnySCAN, AnyScanConfig
from repro.core.explorer import ParameterExplorer
from repro.graph.csr import Graph
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.rmat import rmat_graph
from repro.graph.generators.weights import assign_random_weights
from repro.metrics import comparison
from repro.similarity.index import EdgeSimilarityIndex
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

KINDS = ("cosine", "jaccard", "dice", "overlap")

CONFIGS = [
    SimilarityConfig(kind=kind, closed=closed, pruning=pruning)
    for kind in KINDS
    for closed in (True, False)
    for pruning in ((True, False) if kind == "cosine" else (False,))
]


def _lfr(n, seed):
    graph, _ = lfr_graph(
        LFRParams(n=n, average_degree=12, max_degree=50, mixing=0.3, seed=seed)
    )
    return graph


def _slots(graph):
    owners = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    return zip(owners.tolist(), graph.indices.tolist())


@pytest.fixture(scope="module")
def small_graphs():
    lfr = _lfr(400, seed=3)
    rmat = rmat_graph(9, 8, seed=3)
    return {
        "lfr": lfr,
        "lfr-weighted": assign_random_weights(lfr, seed=2),
        "rmat": rmat,
        "rmat-weighted": assign_random_weights(rmat, seed=6),
        "lfr-constant": Graph(
            lfr.indptr, lfr.indices, np.full(lfr.indices.shape[0], 0.1)
        ),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize(
    "name", ["lfr", "lfr-weighted", "rmat", "rmat-weighted"]
)
def test_scalar_sigma_is_the_index_sigma(small_graphs, name, kind, closed):
    graph = small_graphs[name]
    config = SimilarityConfig(kind=kind, closed=closed, pruning=False)
    oracle = SimilarityOracle(graph, config)
    sigmas = EdgeSimilarityIndex.build(graph, config).sigmas
    scalar = [oracle.sigma_unrecorded(u, v) for u, v in _slots(graph)]
    np.testing.assert_array_equal(np.asarray(scalar), sigmas)


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: f"{c.kind}-{'closed' if c.closed else 'open'}"
    f"{'-pruning' if c.pruning else ''}",
)
@pytest.mark.parametrize("name", ["lfr", "lfr-weighted", "lfr-constant"])
def test_similar_decides_exactly_at_each_slot_sigma(
    small_graphs, name, config
):
    """``similar(p, q, σ)`` passes and the next float above σ fails."""
    graph = small_graphs[name]
    oracle = SimilarityOracle(graph, config)
    sigmas = EdgeSimilarityIndex.build(graph, config).sigmas
    wrong = []
    for (u, v), sigma in zip(_slots(graph), sigmas.tolist()):
        above = float(np.nextafter(sigma, 2.0))
        if not oracle.similar(u, v, sigma) or oracle.similar(u, v, above):
            wrong.append((u, v, sigma))
    assert not wrong, f"{len(wrong)} wrong decisions, e.g. {wrong[:3]}"


@pytest.fixture(scope="module")
def tie_graph():
    return _lfr(2000, seed=1)


ALGORITHMS = {
    "anyscan": lambda g, mu, eps: AnySCAN(
        g, AnyScanConfig(mu=mu, epsilon=eps)
    ).run(),
    "pscan": lambda g, mu, eps: pscan(g, mu, eps),
    "scan_b": lambda g, mu, eps: scan_b(g, mu, eps, seed=7),
    "scanpp": lambda g, mu, eps: scanpp(g, mu, eps, seed=7),
}


@pytest.mark.parametrize("mu", [3, 5, 8])
def test_every_algorithm_matches_scan_at_suggested_epsilons(tie_graph, mu):
    """26 of the explorer's ε candidates per μ — each one a σ value, so
    a tie for some vertex — give every algorithm scan's core set."""
    candidates = ParameterExplorer(tie_graph).epsilon_candidates(mu)
    picks = np.random.default_rng(mu).choice(
        len(candidates), size=26, replace=False
    )
    oracle = SimilarityOracle(tie_graph, SimilarityConfig())
    problems = []
    for eps in sorted(candidates[i][0] for i in picks):
        reference = scan(tie_graph, mu, eps)
        cores = reference.cores().tolist()
        for name, algorithm in ALGORITHMS.items():
            result = algorithm(tie_graph, mu, eps)
            if result.cores().tolist() != cores:
                problems.append((name, eps, "core sets differ"))
            diff = comparison.explain_difference(
                tie_graph, oracle, reference, result, mu, eps
            )
            if diff:
                problems.append((name, eps, diff))
    assert not problems, problems
