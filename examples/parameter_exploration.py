"""Interactive parameter exploration: finding (μ, ε) without re-running.

SCAN's parameters are notoriously hard to pick.  The
:class:`~repro.core.explorer.ParameterExplorer` pays the O(|E|)
similarity cost once (building a clustering index) and then answers any
(μ, ε) query in milliseconds — the workflow a practitioner would wrap in
an ε slider.

Run with::

    python examples/parameter_exploration.py
"""

import time

from repro import ParameterExplorer, quality_report
from repro.graph.generators import LFRParams, lfr_graph


def main() -> None:
    graph, _ = lfr_graph(
        LFRParams(
            n=2000, average_degree=14, max_degree=60, mixing=0.2, seed=17
        )
    )
    print(f"graph: {graph}\n")

    started = time.perf_counter()
    explorer = ParameterExplorer(graph)
    print(
        f"one-time σ table: {graph.num_edges:,d} evaluations in "
        f"{time.perf_counter() - started:.2f}s "
        f"({explorer.precompute_cost:,.0f} work units)\n"
    )

    # The ε slider stops for μ=5: where does the core population change?
    candidates = explorer.epsilon_candidates(5)
    print(f"μ=5 has {len(candidates)} distinct ε thresholds; a sample:")
    step = max(len(candidates) // 8, 1)
    for eps, cores in candidates[::step][:8]:
        print(f"  ε ≤ {eps:.3f}: {cores:5d} cores")

    suggestion = explorer.suggest_epsilon(5, min_cores=50)
    print(f"\nsuggested ε (modularity-maximizing probe): {suggestion:.3f}\n")

    # Sweep a grid and score each clustering intrinsically.
    print(f"{'μ':>3s} {'ε':>5s} {'clusters':>9s} {'coverage':>9s} "
          f"{'modularity':>11s} {'ms/query':>9s}")
    for mu in (3, 5, 8):
        for eps in (0.3, 0.45, suggestion, 0.7):
            started = time.perf_counter()
            result = explorer.clustering_at(mu, eps)
            elapsed_ms = 1000 * (time.perf_counter() - started)
            report = quality_report(graph, result)
            print(
                f"{mu:3d} {eps:5.2f} {result.num_clusters:9d} "
                f"{report['clustered_fraction']:9.1%} "
                f"{report['modularity']:11.3f} {elapsed_ms:9.1f}"
            )

    print(
        "\nevery query above reused the σ table — zero additional "
        "similarity evaluations "
        f"(still {explorer.counters.sigma_evaluations:,d})."
    )

    # The whole ε axis at once: the dendrogram view.
    from repro import EpsilonHierarchy

    hierarchy = EpsilonHierarchy(graph, mu=5, index=explorer.index)
    print(
        f"\nε-dendrogram: {hierarchy.num_nodes:,d} cluster nodes across "
        f"{hierarchy.levels().shape[0]:,d} change levels"
    )
    print("most persistent clusters (birth ε, persistence, size):")
    for node_id, birth, persistence, size in hierarchy.persistence_table(
        min_size=10
    )[:5]:
        print(
            f"  node {node_id:5d}: born at ε={birth:.3f}, persists "
            f"{persistence:.3f}, {size} cores"
        )
    stable_eps = hierarchy.suggest_cut(min_clusters=5)
    print(
        f"stability-plateau cut: ε={stable_eps:.3f} → "
        f"{hierarchy.cut(stable_eps).num_clusters} clusters"
    )


if __name__ == "__main__":
    main()
