"""Clustering a growing graph: incremental SCAN over an edge stream.

Social networks change continuously (the DENGRAPH motivation the paper
cites); re-clustering from scratch after every change is wasteful.
:class:`~repro.dynamic.scan.DynamicSCAN` validates each edge update at
once and, on the next read, recomputes σ only on the edge slots
incident to an updated endpoint before answering from its clustering
index with no further σ work.

Run with::

    python examples/dynamic_stream.py
"""

import numpy as np

from repro import AdjacencyGraph, DynamicSCAN, scan
from repro.graph.generators import LFRParams, lfr_graph

MU, EPSILON = 3, 0.5
READ_EVERY = 20


def main() -> None:
    final_graph, _ = lfr_graph(
        LFRParams(
            n=800, average_degree=12, max_degree=40, mixing=0.15, seed=23
        )
    )
    edges = list(final_graph.edges())
    rng = np.random.default_rng(23)
    rng.shuffle(edges)
    # Nine tenths of the network exist already; the rest arrives live.
    cut = len(edges) * 9 // 10
    graph = AdjacencyGraph(final_graph.num_vertices)
    for u, v, w in edges[:cut]:
        graph.add_edge(u, v, w)
    stream = edges[cut:]
    dyn = DynamicSCAN(graph, MU, EPSILON)
    print(
        f"{final_graph.num_vertices} vertices, {cut:,d} edges present; "
        f"streaming {len(stream):,d} more, reading every {READ_EVERY}\n"
    )

    start = dyn.sigma_recomputations
    reads = 0
    for i, (u, v, w) in enumerate(stream, start=1):
        dyn.add_edge(u, v, w)
        if i % READ_EVERY == 0 or i == len(stream):
            result = dyn.clustering()
            reads += 1
            if reads % 6 == 0 or i == len(stream):
                print(
                    f"after {i:4,d} arrivals: {result.num_clusters:3d} "
                    f"clusters, {result.clustered_vertices.shape[0]:3d} "
                    f"members, σ refreshed so far: "
                    f"{dyn.sigma_recomputations - start:,d}"
                )

    snapshot = dyn.graph.to_csr()
    batch = scan(snapshot, MU, EPSILON)
    incremental = dyn.clustering()
    print(f"\nfinal incremental: {incremental.summary()}")
    print(f"final batch SCAN : {batch.summary()}")
    refreshed = dyn.sigma_recomputations - start
    per_batch = 2 * snapshot.num_edges
    print(
        f"\n{reads} fresh reads refreshed {refreshed:,d} σ slots; a batch "
        f"run evaluates ≈ {per_batch:,d}, so re-running batch SCAN at "
        f"every read would cost ≈ {reads * per_batch:,d} "
        f"({reads * per_batch / max(refreshed, 1):,.1f}x more)."
    )

    # A burst of departures: remove the 100 most recent edges again.
    for u, v, _ in stream[-100:]:
        dyn.remove_edge(u, v)
    result = dyn.clustering()
    print(f"\nafter 100 removals: {result.summary()}")


if __name__ == "__main__":
    main()
