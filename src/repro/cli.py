"""Command-line interface: cluster an edge-list file with anySCAN.

Examples::

    anyscan graph.txt --mu 5 --epsilon 0.5
    anyscan graph.txt --weighted --algorithm pscan --output labels.txt
    anyscan graph.txt --budget-work 1e6        # anytime: stop early
    repro serve --port 8421 --graph web=graph.txt   # clustering server
    repro serve --processes 4 --graph web=graph.txt # sharded fleet (§11)
    python -m repro ...                        # same entry point
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.anytime import AnytimeRunner
from repro.baselines import pscan, scan, scan_b, scanpp
from repro.core import AnySCAN, AnyScanConfig, parallel_scan
from repro.errors import ConfigError
from repro.graph.io import load_edge_list
from repro.parallel.threads import ThreadBackend
from repro.result import HUB, Clustering
from repro.similarity.gsindex import ClusteringIndex

__all__ = ["main"]

_BATCH = {"scan": scan, "scan-b": scan_b, "pscan": pscan, "scanpp": scanpp}

#: ``--backend`` choices: the sequential kernel or the thread pool.
_BACKENDS = ("sequential", "thread")


def _thread_backend(args) -> ThreadBackend | None:
    """The ``--backend``/``--workers`` flags as a σ-pass backend."""
    if args.backend == "sequential":
        return None
    if args.workers:
        return ThreadBackend(threads=args.workers)
    return ThreadBackend()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyscan",
        description="Structural graph clustering (SCAN family, anySCAN).",
    )
    parser.add_argument("graph", help="edge-list file (u v [w] per line)")
    parser.add_argument("--mu", type=int, default=5, help="core threshold μ")
    parser.add_argument(
        "--epsilon", type=float, default=0.5, help="similarity threshold ε"
    )
    parser.add_argument(
        "--algorithm",
        choices=["anyscan"] + sorted(_BATCH),
        default="anyscan",
    )
    parser.add_argument(
        "--weighted",
        action="store_true",
        help="read the third column as edge weight",
    )
    parser.add_argument("--alpha", type=int, default=8192, help="block size α")
    parser.add_argument("--beta", type=int, default=8192, help="block size β")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget-work",
        type=float,
        default=None,
        help="anytime: stop after this many work units (approximate result)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="anytime: stop after this many compute seconds",
    )
    parser.add_argument(
        "--backend",
        choices=_BACKENDS,
        default="sequential",
        help="execution backend; thread runs the σ phase on a real "
        "thread pool (exact SCAN only, requires --algorithm scan)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool width for --backend thread (default: CPU count)",
    )
    parser.add_argument(
        "--cluster-index",
        choices=["off", "build", "use"],
        default="off",
        help="GS*-style clustering index: σ-sorted neighbor lists, so "
        "any (ε, μ) query is answered by array passes + union-find "
        "with zero σ evaluations; 'build' saves it next to "
        "the graph, 'use' loads a previously built one (requires "
        "--algorithm scan)",
    )
    parser.add_argument(
        "--cluster-index-path",
        default=None,
        help="where the clustering index lives (default: GRAPH.gsindex.npz)",
    )
    parser.add_argument(
        "--output", default=None, help="write 'vertex label' lines here"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a line per anytime iteration",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        # Subcommand: the interactive clustering server (DESIGN.md §8;
        # --processes N runs the sharded fleet of §11).
        # Imported lazily so plain clustering runs don't pay for it.
        from repro.service.server import serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["local-cluster"]:
        # Subcommand: seeded local clustering — the seed vertex's exact
        # cluster at output-proportional cost (DESIGN.md §12).
        return _local_cluster_main(argv[1:])
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    graph, labels_map = load_edge_list(args.graph, weighted=args.weighted)
    print(
        f"loaded {graph.num_vertices:,d} vertices, "
        f"{graph.num_edges:,d} edges in "
        f"{time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )

    try:
        cluster_index = _prepare_cluster_index(graph, args)
    except ConfigError as exc:
        print(f"clustering index error: {exc}", file=sys.stderr)
        return 2

    if cluster_index is not None:
        if args.algorithm != "scan":
            print(
                "--cluster-index answers exact SCAN queries; pass "
                f"--algorithm scan (got {args.algorithm!r})",
                file=sys.stderr,
            )
            return 2
        if args.budget_work or args.budget_seconds:
            print(
                "budgets need the sequential anytime engine; drop "
                "--cluster-index or the --budget-* flags",
                file=sys.stderr,
            )
            return 2
        started = time.perf_counter()
        clustering = cluster_index.query(
            args.epsilon, args.mu, seed=args.seed
        )
        print(
            f"query answered from the clustering index in "
            f"{time.perf_counter() - started:.3f}s "
            f"(σ evaluations: "
            f"{cluster_index.last_query['sigma_evaluations']})",
            file=sys.stderr,
        )
    elif args.backend != "sequential":
        if args.budget_work or args.budget_seconds:
            print(
                "budgets need the sequential anytime engine; drop "
                "--backend or the --budget-* flags",
                file=sys.stderr,
            )
            return 2
        if args.algorithm != "scan":
            print(
                "--backend parallelizes exact SCAN; pass --algorithm scan "
                f"(got {args.algorithm!r})",
                file=sys.stderr,
            )
            return 2
        clustering = _run_parallel(graph, args)
    elif args.algorithm == "anyscan":
        clustering = _run_anyscan(graph, args)
    else:
        if args.budget_work or args.budget_seconds:
            print(
                "budgets require --algorithm anyscan (batch algorithms "
                "cannot be interrupted)",
                file=sys.stderr,
            )
            return 2
        clustering = _BATCH[args.algorithm](graph, args.mu, args.epsilon)

    print(clustering.summary())
    if args.output:
        _write_labels(clustering, labels_map, args.output)
        print(f"labels written to {args.output}", file=sys.stderr)
    return 0


def _prepare_cluster_index(graph, args) -> ClusteringIndex | None:
    """Build or load the GS*-style clustering index the flags ask for."""
    if args.cluster_index == "off":
        return None
    path = args.cluster_index_path or (args.graph + ".gsindex.npz")
    backend = _thread_backend(args)
    if args.cluster_index == "build":
        started = time.perf_counter()
        cluster_index = ClusteringIndex.build(graph, backend=backend)
        cluster_index.save(path)
        print(
            f"clustering index built in "
            f"{time.perf_counter() - started:.2f}s, saved to {path}",
            file=sys.stderr,
        )
        return cluster_index
    cluster_index, recovered = ClusteringIndex.load_or_rebuild(
        path, graph, backend=backend
    )
    if recovered:
        print(
            f"clustering index at {path} was damaged; quarantined to "
            f"{path}.quarantined and rebuilt",
            file=sys.stderr,
        )
    else:
        print(f"clustering index loaded from {path}", file=sys.stderr)
    return cluster_index


def _build_local_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro local-cluster",
        description="Seeded local structural clustering: the seed "
        "vertex's exact cluster under scan(μ, ε) semantics, at "
        "output-proportional cost.",
    )
    parser.add_argument("graph", help="edge-list file (u v [w] per line)")
    parser.add_argument(
        "--seed", type=int, required=True, help="query vertex id"
    )
    parser.add_argument("--mu", type=int, default=5, help="core threshold μ")
    parser.add_argument(
        "--epsilon", type=float, default=0.5, help="similarity threshold ε"
    )
    parser.add_argument(
        "--weighted",
        action="store_true",
        help="read the third column as edge weight",
    )
    parser.add_argument(
        "--order-seed",
        type=int,
        default=0,
        help="reference visit-order shuffle seed (contested borders "
        "follow the first cluster of this order)",
    )
    parser.add_argument(
        "--cluster-index",
        choices=["off", "build", "use"],
        default="off",
        help="GS*-style σ tier: core checks by O(1) reads and "
        "ε-neighborhoods by binary search, zero σ evaluations per query",
    )
    parser.add_argument("--cluster-index-path", default=None)
    parser.add_argument(
        "--backend",
        choices=_BACKENDS,
        default="sequential",
        help="backend for --cluster-index build",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--no-boundary",
        action="store_true",
        help="skip classifying the cluster's boundary vertices",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full result as JSON on stdout",
    )
    return parser


def _local_cluster_main(argv) -> int:
    """``repro local-cluster``: one seeded query from the command line."""
    from repro.local import local_cluster

    args = _build_local_parser().parse_args(argv)
    started = time.perf_counter()
    graph, _ = load_edge_list(args.graph, weighted=args.weighted)
    print(
        f"loaded {graph.num_vertices:,d} vertices, "
        f"{graph.num_edges:,d} edges in "
        f"{time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    try:
        cluster_index = _prepare_cluster_index(graph, args)
        started = time.perf_counter()
        result = local_cluster(
            graph,
            args.seed,
            args.epsilon,
            args.mu,
            cluster_index=cluster_index,
            order_seed=args.order_seed,
            classify_boundary=not args.no_boundary,
        )
    except ConfigError as exc:
        print(f"local-cluster error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    stats = result.stats
    print(
        f"seed {result.seed} is {result.seed_role.name.lower()}; "
        f"cluster size {result.cluster_size} "
        f"({result.core_members.shape[0]} cores, "
        f"{result.border_members.shape[0]} borders), "
        f"boundary {len(result.boundary)}",
        # With --json, stdout carries only the machine payload.
        file=sys.stderr if args.json else sys.stdout,
    )
    print(
        f"answered by the {stats.tier} tier in {elapsed:.4f}s: "
        f"{stats.touched_edges} touched edges, "
        f"{stats.sigma_evaluations} σ evaluations, "
        f"{stats.touched_vertices} touched vertices, "
        f"{stats.components_expanded} components expanded",
        file=sys.stderr,
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif result.cluster_size:
        print("members:", " ".join(str(v) for v in result.members.tolist()))
    return 0


def _run_parallel(graph, args) -> Clustering:
    backend = _thread_backend(args)
    print(
        f"backend thread: {backend.threads} threads, "
        f"{backend.chunk_size}-row blocks",
        file=sys.stderr,
    )
    return parallel_scan(
        graph, args.mu, args.epsilon, backend=backend, seed=args.seed
    )


def _run_anyscan(graph, args) -> Clustering:
    config = AnyScanConfig(
        mu=args.mu,
        epsilon=args.epsilon,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        record_costs=False,
    )
    algo = AnySCAN(graph, config)
    runner = AnytimeRunner(algo)
    if args.budget_work is None and args.budget_seconds is None:
        if args.progress:
            while True:
                snap = runner.step()
                if snap is None:
                    break
                print(
                    f"iter {snap.iteration:4d} [{snap.step:12s}] "
                    f"clusters={snap.num_clusters:5d} "
                    f"assigned={snap.assigned_fraction:6.1%} "
                    f"work={snap.work_units:,.0f}",
                    file=sys.stderr,
                )
            return algo.result()
        return algo.run()

    snap = runner.run_until(
        max_work_units=args.budget_work, max_seconds=args.budget_seconds
    )
    if algo.finished:
        return algo.result()
    assert snap is not None
    print(
        f"stopped early at iteration {snap.iteration} "
        f"({snap.assigned_fraction:.1%} of vertices assigned); "
        "result is approximate",
        file=sys.stderr,
    )
    return snap.clustering()


def _write_labels(clustering: Clustering, labels_map, path: str) -> None:
    reverse = {v: k for k, v in labels_map.items()}
    with open(path, "w") as handle:
        handle.write("# vertex label  (negative: -1 hub, -2 outlier)\n")
        for v in range(clustering.num_vertices):
            name = reverse.get(v, str(v))
            handle.write(f"{name} {int(clustering.labels[v])}\n")


if __name__ == "__main__":
    raise SystemExit(main())
