"""Span recorder that wraps the public entry points of each ``repro`` layer.

Nothing under ``src/`` is instrumented: :func:`install` replaces the
functions and methods listed in :data:`LAYER_TARGETS` with timing
wrappers, in every loaded ``repro`` module that holds a reference to
them.  A span is ``(name, start_ns, end_ns, parent, op, ...)`` with
``perf_counter_ns`` timestamps; on Linux that clock is CLOCK_MONOTONIC,
shared by every process, so spans written by a server can be matched to
the client operation whose time window contains them.

Very frequent calls (the scalar σ oracle, edge ops of the dynamic
mirror, raw WAL writes) are *hot*: they are not stored as spans but
folded into their parent span's ``hot`` totals, so their self time is
still attributed without keeping millions of records.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span record fields, in order (one JSON list per span).
NAME, START, END, PARENT, OP, CHILD_NS, HOT, COUNTS = range(8)

ANYSCAN_STEPS = {
    "summarize": "anyscan.step1",
    "merge-strong": "anyscan.step2",
    "merge-weak": "anyscan.step3",
    "borders": "anyscan.step4",
}


class Tracer:
    """Per-process span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None  # in-process op id (anytime child)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        """Open a span; the stack holds ``(span, index)`` pairs."""
        stack = self._stack()
        parent = stack[-1][1] if stack else -1
        span = [name, 0, 0, parent, self.op, 0, {}, {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append((span, index))
        span[START] = time.perf_counter_ns()
        return span

    def exit(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1][0]
            parent[CHILD_NS] += span[END] - span[START]

    def hot(self, name: str, elapsed_ns: int, counts: Dict[str, int]) -> None:
        """Fold one hot call into the innermost open span."""
        stack = self._stack()
        if not stack:
            return
        parent = stack[-1][0]
        slot = parent[HOT].setdefault(name, [0, 0])
        slot[0] += elapsed_ns
        slot[1] += 1
        parent[CHILD_NS] += elapsed_ns
        for key, value in counts.items():
            parent[COUNTS][key] = parent[COUNTS].get(key, 0) + value

    def dump(self, path: str, **meta: object) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(dict(meta, pid=os.getpid(), spans=self.spans), handle)
        os.replace(tmp, path)


TRACER = Tracer()


def _wrap(
    func: Callable,
    name: str,
    *,
    hot: bool = False,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """Timing wrapper.  ``before(args)`` returns a state handed to
    ``after(span_counts, args, result, state)``, which fills counts or
    renames the span (by returning a new name)."""
    tracer = TRACER

    if hot:
        @functools.wraps(func)
        def hot_wrapper(*args, **kwargs):
            state = before(args) if before else None
            started = time.perf_counter_ns()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter_ns() - started
            counts: Dict[str, int] = {}
            if after:
                after(counts, args, result, state)
            tracer.hot(name, elapsed, counts)
            return result

        hot_wrapper.__perfbench_original__ = func
        return hot_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        state = before(args) if before else None
        span = tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after:
            renamed = after(span[COUNTS], args, result, state)
            if renamed:
                span[NAME] = renamed
        return result

    wrapper.__perfbench_original__ = func
    return wrapper


# ----------------------------------------------------------------------
# what to wrap
# ----------------------------------------------------------------------
def _count(key: str, value: Callable) -> Callable:
    def after(counts, args, result, state):
        counts[key] = counts.get(key, 0) + int(value(args, result))
    return after


def _oracle_evals_before(args):
    return args[0].counters.sigma_evaluations


def _oracle_evals_after(counts, args, result, state):
    counts["oracle.sigma_evals"] = args[0].counters.sigma_evaluations - state


def _anyscan_before(args):
    return args[0].statistics()["union_calls"]


def _anyscan_after(counts, args, result, state):
    if result is None:
        return None
    counts["anyscan.iterations"] = 1
    counts["anyscan.union_calls"] = int(result.union_calls) - int(state)
    return ANYSCAN_STEPS.get(result.step, "anyscan.step")


def _dispatch_after(counts, args, result, state):
    return f"server.handler.{result[2]}"


def _refresh_after(counts, args, result, state):
    counts["index.rows_refreshed"] = int(result[1]["rows_recomputed"])


def _cache_after(counts, args, result, state):
    key = "store.cache_misses" if result is None else "store.cache_hits"
    counts[key] = 1


def _recover_after(counts, args, result, state):
    counts["recovery.replayed_records"] = int(result.replayed_records)


def _row_block_pairs(args, result):
    return int(result.shape[0])


def _pair_count(args, result):
    values = result[0] if isinstance(result, tuple) else result
    return int(values.shape[0])


#: (module, attribute path, span name, options).  An attribute path
#: ``Class.method`` wraps the method on the class; a plain name wraps a
#: module-level function everywhere it was imported.
LAYER_TARGETS = (
    ("repro.similarity.kernels", "sigma_for_pairs", "kernels.sigma_for_pairs",
     {"after": _count("kernels.pairs", _pair_count)}),
    ("repro.similarity.kernels", "sigma_row_block", "kernels.sigma_row_block",
     {"after": _count("kernels.pairs", _row_block_pairs)}),
    ("repro.similarity.kernels", "sigma_all_edges", "kernels.sigma_all_edges",
     {}),
    ("repro.similarity.weighted", "SimilarityOracle.similar", "oracle.similar",
     {"hot": True, "before": _oracle_evals_before,
      "after": _oracle_evals_after}),
    ("repro.similarity.weighted", "SimilarityOracle.sigma", "oracle.sigma",
     {"hot": True, "before": _oracle_evals_before,
      "after": _oracle_evals_after}),
    ("repro.similarity.weighted", "SimilarityOracle.sigma_batch",
     "oracle.sigma_batch",
     {"before": _oracle_evals_before, "after": _oracle_evals_after}),
    ("repro.similarity.weighted", "SimilarityOracle.similar_batch",
     "oracle.similar_batch",
     {"before": _oracle_evals_before, "after": _oracle_evals_after}),
    ("repro.core.anyscan", "AnySCAN.advance", "anyscan.step",
     {"before": _anyscan_before, "after": _anyscan_after}),
    ("repro.similarity.gsindex", "ClusteringIndex.build", "index.build", {}),
    ("repro.similarity.gsindex", "ClusteringIndex.query", "index.query",
     {"after": _count("index.queries", lambda a, r: 1)}),
    ("repro.similarity.gsindex", "ClusteringIndex.core_mask",
     "index.core_mask", {}),
    ("repro.similarity.gsindex", "ClusteringIndex.refresh", "index.refresh",
     {"after": _refresh_after}),
    ("repro.local.cluster", "local_cluster", "local.query",
     {"after": _count("local.touched_edges",
                      lambda a, r: r.stats.touched_edges)}),
    ("repro.service.store", "GraphStore.update_edges", "store.update", {}),
    ("repro.similarity.index", "graph_fingerprint", "store.fingerprint", {}),
    ("repro.service.store", "ResultCache.get", "store.cache_get",
     {"after": _cache_after}),
    ("repro.dynamic.scan", "DynamicSCAN.add_edge", "dynamic.edge_op",
     {"hot": True, "after": _count("dynamic.edge_ops", lambda a, r: 1)}),
    ("repro.dynamic.scan", "DynamicSCAN.remove_edge", "dynamic.edge_op",
     {"hot": True, "after": _count("dynamic.edge_ops", lambda a, r: 1)}),
    ("repro.dynamic.graph", "AdjacencyGraph.to_csr", "dynamic.to_csr", {}),
    ("repro.service.server", "_Handler._serve", "server.request", {}),
    ("repro.service.api", "dispatch", "server.handler",
     {"after": _dispatch_after}),
    ("repro.service.api", "clustering_payload", "wire.payload", {}),
    ("repro.service.api", "snapshot_payload", "wire.payload", {}),
    ("repro.local.cluster", "LocalClusterResult.to_dict", "wire.payload", {}),
    ("repro.service.jobs", "JobScheduler.submit", "jobs.submit",
     {"after": _count("jobs.submits", lambda a, r: 1)}),
    ("repro.service.jobs", "JobScheduler.submit_completed", "jobs.submit",
     {"after": _count("jobs.submits", lambda a, r: 1)}),
    ("repro.service.durability", "WriteAheadLog.append", "wal.append",
     {"after": _count("wal.appends", lambda a, r: 1)}),
    ("repro.service.durability", "_write_all", "wal.write",
     {"hot": True, "after": _count("wal.bytes", lambda a, r: len(a[1]))}),
    ("repro.service.durability", "WriteAheadLog.sync", "wal.sync",
     {"after": _count("wal.syncs", lambda a, r: 1)}),
    ("repro.service.durability", "DurabilityManager.checkpoint",
     "checkpoint.write",
     {"after": _count("checkpoint.count", lambda a, r: r is not None)}),
    ("repro.service.durability", "DurabilityManager.recover",
     "recovery.recover", {"after": _recover_after}),
)


class _JsonShim:
    """Stand-in for the ``json`` module inside ``repro.service.server``:
    times the response-body encoding as wire work."""

    def __init__(self) -> None:
        self.dumps = _wrap(json.dumps, "wire.json")

    def __getattr__(self, attr):
        return getattr(json, attr)


def install() -> None:
    """Wrap every target in :data:`LAYER_TARGETS` (idempotent)."""
    import importlib

    for module_name, path, name, options in LAYER_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                func = raw.__func__
                if hasattr(func, "__perfbench_original__"):
                    continue
                setattr(owner, attr, classmethod(_wrap(func, name, **options)))
            else:
                if hasattr(raw, "__perfbench_original__"):
                    continue
                setattr(owner, attr, _wrap(raw, name, **options))
            continue
        func = getattr(module, path)
        if hasattr(func, "__perfbench_original__"):
            continue
        wrapped = _wrap(func, name, **options)
        # Rebind in every module that imported the function by name.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, path, None) is func
            ):
                setattr(loaded, path, wrapped)
    server = importlib.import_module("repro.service.server")
    if not isinstance(server.json, _JsonShim):
        server.json = _JsonShim()


def preload_service() -> None:
    """Import every module whose names :func:`install` rebinds."""
    import repro.service.fleet  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.service.durability  # noqa: F401


# ----------------------------------------------------------------------
# analysis (runs in the benchmark process, over dumped spans)
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return {"checkpoint": "wal", "recovery": "wal"}.get(head, head)


def self_ns(span: list) -> int:
    return span[END] - span[START] - span[CHILD_NS]


def assign_ops(spans: List[list], windows: List[tuple]) -> None:
    """Give every span the id of the client op whose ``[start, end]``
    window contains its root span's start (children inherit)."""
    import bisect

    starts = [w[0] for w in windows]
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            span[OP] = spans[parent][OP]
            continue
        pos = bisect.bisect_right(starts, span[START]) - 1
        if pos >= 0 and span[START] <= windows[pos][1]:
            span[OP] = windows[pos][2]
        else:
            span[OP] = None


def op_breakdown(spans: List[list]) -> Dict[object, Dict[str, float]]:
    """Per op id: self ns by layer (hot children folded into their own
    layer) and, under ``@handler``, the outermost server spans' ns."""
    out: Dict[object, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in spans:
        op = span[OP]
        if op is None:
            continue
        row = out[op]
        row[layer_of(span[NAME])] += self_ns(span)
        for hot_name, (ns, _calls) in span[HOT].items():
            row[layer_of(hot_name)] += ns
        if span[NAME] == "server.request":
            row["@handler"] += span[END] - span[START]
    return out
