"""Extension experiments beyond the paper's evaluation.

* ``ext_explorer`` — interactive parameter exploration: one
  clustering-index build vs. re-running pSCAN for every (μ, ε) probe.
* ``ext_dynamic`` — incremental SCAN under an edge stream (σ rows
  refreshed per read) vs. periodic batch re-clustering.

Both quantify capabilities the paper motivates (interactivity; the
dynamic-network setting of its related work) but does not evaluate.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bench.datasets import load_dataset
from repro.bench.harness import ExperimentResult, run_algorithm
from repro.core.explorer import ParameterExplorer
from repro.dynamic import AdjacencyGraph, DynamicSCAN

__all__ = ["ext_explorer", "ext_dynamic"]


def ext_explorer(
    scale: str = "bench", quick: bool = False
) -> List[ExperimentResult]:
    """Cost of a (μ, ε) grid: explorer vs. per-setting pSCAN runs."""
    use_scale = "tiny" if quick else scale
    graph = load_dataset("GR02", use_scale)
    mus = [3, 5] if quick else [3, 5, 8]
    epsilons = [0.4, 0.6] if quick else [0.3, 0.4, 0.5, 0.6, 0.7]

    explorer = ParameterExplorer(graph)
    panel = ExperimentResult(
        exp_id="ext_explorer",
        title=f"(μ, ε) grid on GR02: σ work per approach "
        f"({len(mus)}×{len(epsilons)} settings)",
        headers=["approach", "σ evaluations", "work-units"],
    )
    # Explorer: one precompute, every query free.
    for mu in mus:
        for eps in epsilons:
            explorer.clustering_at(mu, eps)
    panel.add_row(
        "ParameterExplorer",
        explorer.counters.sigma_evaluations,
        explorer.counters.work_units,
    )
    # Baseline: a fresh pSCAN per setting.
    total_evals = 0
    total_work = 0.0
    for mu in mus:
        for eps in epsilons:
            run = run_algorithm("pSCAN", graph, mu, eps)
            total_evals += run.sigma_evaluations
            total_work += run.work_units
    panel.add_row("pSCAN per setting", total_evals, total_work)
    panel.notes.append(
        "explorer answers every additional (μ, ε) probe with zero σ work"
    )
    return [panel]


def ext_dynamic(
    scale: str = "bench", quick: bool = False
) -> List[ExperimentResult]:
    """Edge-stream maintenance: per-read σ row refreshes vs batch re-runs."""
    use_scale = "tiny" if quick else scale
    graph = load_dataset("GR02", use_scale)
    edges = list(graph.edges())
    rng = np.random.default_rng(0)
    rng.shuffle(edges)
    stream = edges[: len(edges) // 4]  # the "new arrivals"
    base_edges = edges[len(edges) // 4 :]

    def incremental(read_every: int):
        """σ slots refreshed over the stream, reading every k edges."""
        base = AdjacencyGraph(graph.num_vertices)
        for u, v, w in base_edges:
            base.add_edge(u, v, w)
        dyn = DynamicSCAN(base, 5, 0.5)
        init_cost = dyn.sigma_recomputations
        for i, (u, v, w) in enumerate(stream, start=1):
            dyn.add_edge(u, v, w)
            if i % read_every == 0:
                dyn.core_mask()
        final = dyn.clustering()
        return dyn.sigma_recomputations - init_cost, final.num_clusters

    batch_run = run_algorithm("SCAN", graph, 5, 0.5)
    panel = ExperimentResult(
        exp_id="ext_dynamic",
        title=f"GR02: {len(stream):,d} edge insertions (μ=5, ε=0.5)",
        headers=["approach", "σ evaluations", "result clusters"],
    )
    panel.add_row("incremental (fresh after every edge)", *incremental(1))
    panel.add_row(
        "incremental (one read at the end)", *incremental(len(stream) + 1)
    )
    panel.add_row(
        "batch SCAN once (final state only)",
        batch_run.sigma_evaluations,
        batch_run.clustering.num_clusters,
    )
    panel.add_row(
        "batch SCAN per edge (equivalent freshness)",
        batch_run.sigma_evaluations * len(stream),
        batch_run.clustering.num_clusters,
    )
    panel.notes.append(
        "σ is refreshed per read: a read recomputes σ on the directed "
        "slots incident to u or v for every edge (u, v) since the "
        "previous read; the clustering itself is a σ-free index query"
    )
    return [panel]
