"""Turn a workload outcome into metrics, and traces into layer figures."""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Dict, List

from perfbench import trace
from perfbench.common import median, quantile

#: Layers shown in the decomposition, in call-depth order.
LAYERS = ("wire", "jobs", "store", "dynamic", "index", "local", "kernels",
          "wal", "anyscan", "oracle")

#: Routes whose handler time is reported per route.
ROUTES = ("cluster", "job_result", "local_cluster", "update_edges")

PER_LAYER = (
    ["kernels.pairs", "kernels.self_ms",
     "oracle.sigma_evals", "oracle.self_ms",
     "anyscan.step1_ms", "anyscan.step2_ms", "anyscan.step3_ms",
     "anyscan.step4_ms", "anyscan.iterations", "anyscan.union_calls",
     "index.build_ms", "index.queries", "index.query_ms",
     "index.core_mask_ms", "index.refresh_ms", "index.rows_refreshed",
     "local.queries", "local.query_ms", "local.touched_edges",
     "store.update_ms", "store.fingerprint_ms", "store.cache_hits",
     "store.cache_misses",
     "dynamic.edge_ops", "dynamic.edge_ops_ms", "dynamic.to_csr_ms"]
    + [f"server.handler_ms.{route}" for route in ROUTES]
    + ["server.self_ms", "wire.payload_ms", "http.transport_ms",
       "jobs.submits", "jobs.submit_ms",
       "wal.appends", "wal.bytes", "wal.syncs", "wal.append_ms",
       "wal.sync_ms", "checkpoint.count", "checkpoint.ms",
       "recovery.replayed_records", "recovery.ms",
       "fleet.proxy_ms", "fleet.requests_per_shard",
       "client.fresh_p50_ms", "client.hit_p50_ms", "client.local_p50_ms",
       "client.update_p50_ms", "client.update_p90_ms",
       "client.preview_p50_ms", "client.exact_p50_ms", "client.recover_s",
       "trace.op_p50_ms", "trace.query_p50_ms"]
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "wal.bytes":
        return "B"
    return "count"


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
#: Op kinds that answer a fresh (ε, μ) / fresh graph state exactly.
QUERY_KINDS = ("fresh", "exact")


def end_to_end(outcome) -> Dict[str, float]:
    ok = [op for op in outcome.ops if op.ok]
    seconds = (outcome.phase[1] - outcome.phase[0]) / 1e9
    return {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": len(ok) / seconds,
        "peak_rss_mb": outcome.peak_rss_mb,
        "query_p50_ms": median(
            [op.ms for op in ok if op.kind in QUERY_KINDS]
        ),
        "op_p50_ms": median([op.ms for op in ok]),
    }


def kinds(outcome) -> Dict[str, Dict[str, float]]:
    """Per op kind: sample count, p50 and p90 latency."""
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for op in outcome.ops:
        if op.ok:
            by_kind[op.kind].append(op.ms)
    return {
        kind: {"n": len(v), "p50_ms": median(v), "p90_ms": quantile(v, 0.9)}
        for kind, v in sorted(by_kind.items())
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _load_spans(outcome) -> List[dict]:
    dumps = []
    for path in sorted(glob.glob(os.path.join(outcome.trace_dir,
                                              "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def _windows(outcome, conns=None) -> List[tuple]:
    return sorted(
        (op.start, op.end, op.id if not conns else (op.conn, op.id))
        for op in outcome.ops
        if conns is None or op.conn in conns
    )


def layer_figures(outcome):
    """Per-layer metrics plus the per-op-kind decomposition."""
    dumps = _load_spans(outcome)
    phase_lo, phase_hi = outcome.phase
    # With several server processes, op keys are (conn, id) and each
    # process serves the connection placed on it: a fleet shard (by
    # process index) or a single-process server (by pid).
    keyed = bool(outcome.placement)
    fleet = any(dump["role"] == "worker" for dump in dumps)
    spans_all: List[list] = []
    shard_requests: Dict[str, int] = {}
    for dump in dumps:
        spans = dump["spans"]
        if keyed:
            owner = dump.get("process_index", dump["pid"])
            conns = {c for c, placed in outcome.placement.items()
                     if placed == owner}
            trace.assign_ops(spans, _windows(outcome, conns))
        elif dump["role"] != "anytime":  # anytime set op ids in-process
            trace.assign_ops(spans, _windows(outcome))
        if dump["role"] == "worker":
            shard_requests[str(dump["process_index"])] = sum(
                1 for s in spans if s[trace.NAME] == "server.request"
                and phase_lo <= s[trace.START] <= phase_hi
            )
        spans_all.extend(spans)

    in_phase = [s for s in spans_all if phase_lo <= s[trace.START] <= phase_hi]
    ok_ops = [op for op in outcome.ops if op.ok]
    n_ops = max(len(ok_ops), 1)
    calls: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, int] = defaultdict(int)
    self_total: Dict[str, float] = defaultdict(float)
    hot_ns: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for span in in_phase:
        name = span[trace.NAME]
        calls[name].append((span[trace.END] - span[trace.START]) / 1e6)
        self_total[trace.layer_of(name)] += trace.self_ns(span) / 1e6
        for key, value in span[trace.COUNTS].items():
            counts[key] += value
        for hot_name, (ns, n) in span[trace.HOT].items():
            hot_ns[hot_name][0] += ns
            hot_ns[hot_name][1] += n
            self_total[trace.layer_of(hot_name)] += ns / 1e6

    def mean_call(name: str) -> float:
        values = calls.get(name)
        return sum(values) / len(values) if values else 0.0

    def mean_hot(name: str) -> float:
        ns, n = hot_ns.get(name, (0, 0))
        return ns / n / 1e6 if n else 0.0

    builds = [(s[trace.END] - s[trace.START]) / 1e6 for s in spans_all
              if s[trace.NAME] == "index.build" and s[trace.START] < phase_lo]
    recoveries = [(s[trace.END] - s[trace.START]) / 1e6 for s in spans_all
                  if s[trace.NAME] == "recovery.recover"]
    replayed = sum(s[trace.COUNTS].get("recovery.replayed_records", 0)
                   for s in spans_all if s[trace.NAME] == "recovery.recover")

    # Client time minus the server's outermost span, per HTTP op.
    breakdown = trace.op_breakdown(in_phase)
    transport = []
    for op in ok_ops:
        key = (op.conn, op.id) if keyed else op.id
        handler = breakdown.get(key, {}).get("@handler")
        if handler is not None:
            transport.append(op.ms - handler / 1e6)
    transport_ms = sum(transport) / len(transport) if transport else 0.0

    kind_stats = kinds(outcome)
    e2e = end_to_end(outcome)

    def kind_p(kind: str, key: str) -> float:
        return kind_stats.get(kind, {}).get(key, 0.0)

    values = {
        "kernels.pairs": counts["kernels.pairs"],
        "kernels.self_ms": self_total["kernels"] / n_ops,
        "oracle.sigma_evals": counts["oracle.sigma_evals"],
        "oracle.self_ms": self_total["oracle"] / n_ops,
        "anyscan.iterations": counts["anyscan.iterations"],
        "anyscan.union_calls": counts["anyscan.union_calls"],
        "index.build_ms": median(builds) if builds else 0.0,
        "index.queries": counts["index.queries"],
        "index.query_ms": mean_call("index.query"),
        "index.core_mask_ms": mean_call("index.core_mask"),
        "index.refresh_ms": mean_call("index.refresh"),
        "index.rows_refreshed": counts["index.rows_refreshed"],
        "local.queries": len(calls.get("local.query", ())),
        "local.query_ms": mean_call("local.query"),
        "local.touched_edges": counts["local.touched_edges"],
        "store.update_ms": mean_call("store.update"),
        "store.fingerprint_ms": mean_call("store.fingerprint"),
        "store.cache_hits": counts["store.cache_hits"],
        "store.cache_misses": counts["store.cache_misses"],
        "dynamic.edge_ops": counts["dynamic.edge_ops"],
        "dynamic.edge_ops_ms": mean_hot("dynamic.edge_op"),
        "dynamic.to_csr_ms": mean_call("dynamic.to_csr"),
        "server.self_ms": self_total["server"] / n_ops,
        "wire.payload_ms": self_total["wire"] / n_ops,
        "http.transport_ms": transport_ms,
        "jobs.submits": counts["jobs.submits"],
        "jobs.submit_ms": mean_call("jobs.submit"),
        "wal.appends": counts["wal.appends"],
        "wal.bytes": counts["wal.bytes"],
        "wal.syncs": counts["wal.syncs"],
        "wal.append_ms": mean_call("wal.append"),
        "wal.sync_ms": mean_call("wal.sync"),
        "checkpoint.count": counts["checkpoint.count"],
        "checkpoint.ms": mean_call("checkpoint.write"),
        "recovery.replayed_records": replayed,
        "recovery.ms": recoveries[-1] if recoveries else 0.0,
        "fleet.proxy_ms": transport_ms if fleet else 0.0,
        "fleet.requests_per_shard": (
            sum(shard_requests.values()) / len(shard_requests)
            if fleet and shard_requests else 0.0
        ),
        "client.fresh_p50_ms": kind_p("fresh", "p50_ms"),
        "client.hit_p50_ms": kind_p("hit", "p50_ms"),
        "client.local_p50_ms": kind_p("local", "p50_ms"),
        "client.update_p50_ms": kind_p("update", "p50_ms"),
        "client.update_p90_ms": kind_p("update", "p90_ms"),
        "client.preview_p50_ms": kind_p("preview", "p50_ms"),
        "client.exact_p50_ms": kind_p("exact", "p50_ms"),
        "client.recover_s": outcome.extra.get("recover_s") or 0.0,
        "trace.op_p50_ms": e2e["op_p50_ms"],
        "trace.query_p50_ms": e2e["query_p50_ms"],
    }
    for step in range(1, 5):
        values[f"anyscan.step{step}_ms"] = mean_call(f"anyscan.step{step}")
    for route in ROUTES:
        values[f"server.handler_ms.{route}"] = mean_call(
            f"server.handler.{route}"
        )
    decomposition = _decompose(outcome, breakdown, keyed)
    return values, decomposition, dict(sorted(shard_requests.items()))


def _decompose(outcome, breakdown, keyed: bool) -> Dict[str, dict]:
    """Per op kind, medians of: client time, server handler (outermost
    server span), transport (client − handler), each layer's self time,
    and the residual the wrapped layers leave unattributed."""
    rows: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for op in outcome.ops:
        if not op.ok:
            continue
        parts = breakdown.get((op.conn, op.id) if keyed else op.id, {})
        row = rows[op.kind]
        row["client"].append(op.ms)
        attributed = 0.0
        for layer in LAYERS:
            ms = parts.get(layer, 0.0) / 1e6
            row[layer].append(ms)
            attributed += ms
        if "@handler" in parts:
            handler = parts["@handler"] / 1e6
            row["handler"].append(handler)
            row["transport"].append(op.ms - handler)
            # Server-layer self time: request parsing, routing and the
            # handler glue that no wrapped layer covers.
            row["residual"].append(handler - attributed)
        else:
            row["residual"].append(op.ms - attributed)
    return {
        kind: {part: median(v) for part, v in row.items()} | {
            "n": len(row["client"])
        }
        for kind, row in sorted(rows.items())
    }


# ----------------------------------------------------------------------
# record and printing
# ----------------------------------------------------------------------
def build(outcome, meta: dict, traced: bool) -> dict:
    e2e = end_to_end(outcome)
    record = {
        "meta": meta,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "setup_samples_s": outcome.setup_s,
        "kinds": kinds(outcome),
        "extra": outcome.extra,
        "end_to_end": e2e,
    }
    if traced:
        values, decomposition, split = layer_figures(outcome)
        record["per_layer"] = values
        record["decomposition"] = decomposition
        record["requests_per_shard"] = split
        metrics = {k: {"value": float(values[k]), "unit": _unit(k)}
                   for k in PER_LAYER}
    else:
        units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
                 "query_p50_ms": "ms", "op_p50_ms": "ms"}
        metrics = {k: {"value": float(v), "unit": units[k]}
                   for k, v in e2e.items()}
    record["metrics"] = metrics
    return record


def print_human(record: dict) -> None:
    meta = record["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  "
          f"trace {int(meta['trace'])}  git {meta['git_sha'][:12]}  "
          f"nproc {meta['nproc']}  python {meta['python']}  "
          f"numpy {meta['numpy']}")
    print(f"graph {meta.get('graph')}")
    print(f"spin witness {meta['spin_before_s']:.3f}s before, "
          f"{meta['spin_after_s']:.3f}s after; run wall {meta['wall_s']:.1f}s")
    for key in ("data_dir_fs", "flush_policy", "shard_placement"):
        if key in meta:
            print(f"{key}: {meta[key]}")
    print(f"set-ups (s): {[round(s, 3) for s in record['setup_samples_s']]}")
    print(f"ops attempted {record['attempted']}, failed {record['failed']}")
    for kind, stats in record["kinds"].items():
        print(f"  {kind:8s} n={stats['n']:4d}  p50 {stats['p50_ms']:9.2f} ms"
              f"  p90 {stats['p90_ms']:9.2f} ms")
    for key, value in record["extra"].items():
        if value is not None:
            print(f"  {key}: {value:.4g}")
    for name, value in record["end_to_end"].items():
        print(f"  {name} = {value:.4f}")
    if "decomposition" in record:
        print("decomposition (medians per op, ms): client = handler + "
              "transport; handler = layer self times + residual")
        for kind, row in record["decomposition"].items():
            layers = "  ".join(
                f"{layer} {row[layer]:.2f}" for layer in LAYERS
                if row.get(layer, 0.0) >= 0.005
            )
            head = f"  {kind:8s} n={row['n']:4d} client {row['client']:.2f}"
            if "handler" in row:
                head += (f" = handler {row['handler']:.2f}"
                         f" + transport {row['transport']:.2f}")
            print(head)
            print(f"      {layers}  residual {row['residual']:.2f}")
        if record.get("requests_per_shard"):
            print(f"requests per shard: {record['requests_per_shard']}")
