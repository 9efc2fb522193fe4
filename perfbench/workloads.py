"""The four workloads.  Each returns a :class:`Outcome`.

All are closed loops driven from this one seeded process: a client sends
its next request only after the previous answer arrived, with at most
``nproc`` (2) connections.  Graph generation, warm-up and the reference
checks are outside every timed window.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common
from perfbench.common import BenchError, Connection, Server, collect
from perfbench.reference import Reference

SETUPS = 3  # set-ups per run; setup_s is their median
GRAPH = "g"

# Graph sizes, chosen so a whole run (set-ups, timed phase, reference
# checks) fits the benchmark's per-run budget on a 2-vCPU host.
EXPLORE_N = 20_000
INGEST_N = 8_000
ANYTIME_N = 10_000

# (ε band, μ cycle) of each kind of query.  Fresh queries span the band
# where these LFR graphs go from one giant cluster (low ε, μ) to hundreds
# of community-sized ones; repeat and local queries use settings without
# a giant cluster, as a user zoomed in on communities would; anySCAN
# runs use a narrow band, so their few samples per run are alike.
FRESH = ((0.22, 0.34), (3, 4, 5))
WARM = ((0.30, 0.34), (4, 5))
ANYTIME = ((0.26, 0.30), (4,))
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Op:
    """One timed client operation."""

    id: int
    kind: str
    start: int  # perf_counter_ns
    end: int
    conn: int = 0
    ok: bool = True

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Outcome:
    """What a workload measured, for metrics, checks and the trace."""

    setup_s: List[float]
    ops: List[Op]
    phase: Tuple[int, int]
    peak_rss_mb: float
    attempted: int
    failed: int
    extra: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    # conn -> the process serving it (fleet shard index, or server pid)
    placement: Dict[int, int] = field(default_factory=dict)
    trace_dir: Optional[str] = None


class Params:
    """Never-repeating (ε, μ) settings spread evenly over a band.

    ε walks a golden-ratio sequence from a seeded start, so the first k
    settings of any run cover the band alike (steady medians), and no
    setting repeats (a fresh query always misses the cache).  The 1e-9
    offset keeps ε off every exactly representable σ value, so no edge
    sits on the threshold and rounding differences between σ
    implementations cannot change an answer.
    """

    def __init__(self, rng: np.random.Generator, band, used: set) -> None:
        (self.lo, self.hi), self.mus = band
        self.start = float(rng.uniform())
        self.used = used
        self.i = 0

    def next(self) -> Tuple[float, int]:
        while True:
            if self.i > 1_000_000:
                raise BenchError("the (eps, mu) band is exhausted")
            frac = (self.start + self.i * GOLDEN) % 1.0
            mu = self.mus[self.i % len(self.mus)]
            self.i += 1
            eps = round(self.lo + (self.hi - self.lo) * frac, 5) + 1e-9
            if (eps, mu) not in self.used:
                self.used.add((eps, mu))
                return eps, mu


class Context:
    """Per-run settings and scratch space."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, run_dir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.seconds = seconds
        self.dir = run_dir
        self.scale = scale
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        self.trace_dir = os.path.join(run_dir, "spans") if trace else None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)

    def size(self, n: int) -> int:
        return max(200, int(n * self.scale))

    def graph(self, n: int) -> common.GraphInput:
        return common.make_graph(
            self.size(n), self.seed, os.path.join(self.dir, "graph.txt")
        )

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


# ----------------------------------------------------------------------
# server helpers
# ----------------------------------------------------------------------
def _spawn(ctx: Context, args: List[str]) -> Server:
    return Server(
        ["--port", "0", *args],
        log_path=ctx.path("server.log"),
        trace_dir=ctx.trace_dir,
    )


def _setups(ctx: Context, make_args, count: int = 1
            ) -> Tuple[List[Server], List[float]]:
    """Start ``count`` servers side by side, ``SETUPS`` times over (each
    timed from spawn to its first answered ``/healthz``); keep the last
    round running.  ``make_args(round, index)`` gives a server's args."""
    times: List[float] = []
    servers: List[Server] = []
    for i in range(SETUPS):
        for server in servers:
            server.shutdown()
        collect()
        servers = [_spawn(ctx, make_args(i, k)) for k in range(count)]
        times.extend(common.wait_all(servers))
    return servers, times


def dump_spans(ctx: Context, server: Server) -> None:
    """Ask every traced process of ``server`` to write its spans."""
    if not ctx.trace_dir:
        return
    pids = server.launcher_pids()
    for pid in pids:
        path = os.path.join(ctx.trace_dir, f"spans-{pid}.json")
        if os.path.exists(path):
            os.unlink(path)
    server.signal_launchers(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    for pid in pids:
        path = os.path.join(ctx.trace_dir, f"spans-{pid}.json")
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise BenchError(f"process {pid} wrote no spans")
            time.sleep(0.02)


class Client:
    """One closed-loop connection that records its timed ops."""

    def __init__(self, server: Server, conn: int = 0) -> None:
        self.server = server
        self.conn_id = conn
        self.http = Connection(server.host, server.port)
        self.ops: List[Op] = []
        self.attempted = 0
        self.failed = 0

    def reconnect(self) -> None:
        self.http.close()
        self.http = Connection(self.server.host, self.server.port)

    def call(self, method: str, path: str, payload=None) -> dict:
        """Untimed request that must succeed (warm-up, checks)."""
        status, body, _, _ = self.http.request(method, path, payload)
        if status != 200:
            raise BenchError(f"{method} {path} answered {status}: {body}")
        return body

    def timed(self, op_id: int, kind: str, steps) -> Optional[List[dict]]:
        """Run ``steps`` as one op and return the bodies, or None when the
        op failed.  A step is ``(method, path, payload)``, or a callable
        building one from the previous step's body."""
        self.attempted += 1
        bodies: List[dict] = []
        start = time.perf_counter_ns()
        end = start
        try:
            for step in steps:
                if callable(step):
                    step = step(bodies[-1])
                method, path, payload = step
                status, body, _, end = self.http.request(method, path, payload)
                if status != 200:
                    raise BenchError(f"{path} answered {status}: {body}")
                bodies.append(body)
        except (OSError, http.client.HTTPException, ValueError, BenchError):
            self.failed += 1
            self.ops.append(Op(op_id, kind, start, time.perf_counter_ns(),
                               self.conn_id, ok=False))
            self.reconnect()
            return None
        self.ops.append(Op(op_id, kind, start, end, self.conn_id))
        return bodies

    def close(self) -> None:
        self.http.close()


def _cluster(eps: float, mu: int, *, labels: bool, wait: bool = True):
    payload = {"graph": GRAPH, "epsilon": eps, "mu": mu, "labels": labels}
    if wait:
        payload["wait"] = 60
    return ("POST", "/cluster", payload)


def _local(vertex: int, eps: float, mu: int):
    return (
        "GET",
        f"/graphs/{GRAPH}/local-cluster?seed={vertex}&epsilon={eps!r}&mu={mu}",
        None,
    )


# ----------------------------------------------------------------------
# explore / fleet: the read mix
# ----------------------------------------------------------------------
#: Interleaving of the read mix: one fresh query in five ops.  Like
#: every workload's mix, it runs in whole cycles: the timed phase ends at
#: the first cycle boundary past the deadline, so every run completes the
#: same mix and ops_per_s does not depend on where the deadline fell.
READ_PATTERN = ("fresh", "hit", "local", "hit", "local")
#: Ops planned per connection: more than a 60-second run can complete.
PLAN_OPS = 4_000


def _read_plan(rng: np.random.Generator, n: int, count: int,
               warm: List[Tuple[float, int]], fresh: Params) -> List[tuple]:
    plan = []
    vertices = rng.permutation(n)
    for i in range(count):
        kind = READ_PATTERN[i % len(READ_PATTERN)]
        if kind == "fresh":
            plan.append(("fresh", *fresh.next()))
        elif kind == "hit":
            plan.append(("hit", *warm[int(rng.integers(len(warm)))]))
        else:
            eps, mu = warm[int(rng.integers(len(warm)))]
            plan.append(("local", eps, mu, int(vertices[i % n])))
    return plan


def _read_loop(client: Client, plan: List[tuple], deadline: int,
               job_routed: bool, answers: List[tuple]) -> None:
    for op_id, step in enumerate(plan):
        if op_id % len(READ_PATTERN) == 0 and \
                time.perf_counter_ns() >= deadline:
            return
        kind = step[0]
        if kind == "fresh":
            eps, mu = step[1], step[2]
            if job_routed:
                # Submit, then fetch the result through the job route
                # (its id names the shard that answered).
                bodies = client.timed(op_id, kind, [
                    _cluster(eps, mu, labels=True, wait=False),
                    lambda job: ("GET", f"/jobs/{job['job_id']}/result", None),
                ])
            else:
                bodies = client.timed(
                    op_id, kind, [_cluster(eps, mu, labels=True)]
                )
        elif kind == "hit":
            bodies = client.timed(
                op_id, kind, [_cluster(step[1], step[2], labels=False)]
            )
        else:
            bodies = client.timed(op_id, kind, [_local(step[3], step[1], step[2])])
        if bodies is not None:
            answers.append((step, bodies[-1]))


def _warm_set(ctx: Context, used: set) -> List[Tuple[float, int]]:
    """The (ε, μ) settings that repeat and local queries use."""
    warm = Params(ctx.rng, WARM, used)
    return [warm.next() for _ in range(4)]


def _warm_up(client: Client, warm: List[Tuple[float, int]], n: int,
             answers: List[tuple]) -> None:
    """Fill the cache with the warm set and run a first local query."""
    for eps, mu in warm:
        answers.append((("fresh", eps, mu),
                        client.call(*_cluster(eps, mu, labels=True))))
    eps, mu = warm[0]
    client.call(*_local(n - 1, eps, mu))


def _check_reads(ref: Reference, answers: List[tuple]) -> None:
    for step, body in answers:
        kind, eps, mu = step[0], step[1], step[2]
        if kind == "fresh":
            ref.check_exact("fresh cluster query", eps, mu, body["labels"])
        elif kind == "hit":
            labels, _ = ref.clustering(eps, mu)
            clusters = np.unique(labels[labels >= 0]).shape[0]
            if not body.get("cached") or body["num_clusters"] != clusters:
                raise BenchError(
                    f"repeat query at eps={eps} mu={mu}: cached="
                    f"{body.get('cached')} with {body['num_clusters']} "
                    f"clusters, reference {clusters}"
                )
        else:
            ref.check_local("local-cluster query", eps, mu, step[3], body)


#: Single-process servers in ``explore``, each with its own connection
#: (one per core), so the pair with ``fleet`` (two processes, two
#: connections) differs only in the fleet machinery.  The two cores of the
#: benchmark host also slow down independently, and pooling samples from
#: both halves the run-to-run variance of the medians.
EXPLORE_SERVERS = 2


def _read_workload(ctx: Context, graph, servers: List[Server],
                   setup_s: List[float], job_routed: bool) -> Outcome:
    """Two closed-loop connections sending the read mix to ``servers``
    (one connection each, or both to a single fleet)."""
    used: set = set()
    warm = _warm_set(ctx, used)
    fresh = Params(ctx.rng, FRESH, used)
    probe = fresh.next()
    plans = [_read_plan(ctx.rng, graph.n, PLAN_OPS, warm, fresh)
             for _ in range(2)]
    clients = [Client(servers[conn % len(servers)], conn) for conn in range(2)]
    answers: List[List[tuple]] = [[], []]
    try:
        if job_routed:
            placement = _place(clients, probe)
        else:
            placement = {c.conn_id: c.server.pgid for c in clients}
        for client, found in zip(clients, answers):
            # Each process has its own result cache: warm every one.
            _warm_up(client, warm, graph.n, found)
        collect()
        start = time.perf_counter_ns()
        deadline = start + int(ctx.seconds * 1e9)
        threads = [
            threading.Thread(target=_read_loop,
                             args=(c, p, deadline, job_routed, a))
            for c, p, a in zip(clients, plans, answers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter_ns()
        rss = sum(server.peak_rss_mb() for server in servers)
        for server in servers:
            dump_spans(ctx, server)
    finally:
        for client in clients:
            client.close()
        for server in servers:
            server.shutdown()
    ref = Reference(graph.n, graph.edges)
    for found in answers:
        _check_reads(ref, found)
    meta = {"graph": graph.params, "warm_set": warm}
    if job_routed:
        meta["shard_placement"] = {str(k): v for k, v in placement.items()}
    return Outcome(
        setup_s=setup_s,
        ops=sorted(clients[0].ops + clients[1].ops, key=lambda op: op.start),
        phase=(start, end), peak_rss_mb=rss,
        attempted=sum(c.attempted for c in clients),
        failed=sum(c.failed for c in clients),
        meta=meta, placement=placement, trace_dir=ctx.trace_dir,
    )


def explore(ctx: Context) -> Outcome:
    """Single-process servers, one connection each: fresh queries, cache
    hits, local queries."""
    graph = ctx.graph(EXPLORE_N)
    servers, setup_s = _setups(ctx, lambda i, k: [
        "--graph", f"{GRAPH}={graph.path}", "--build-cluster-index",
    ], count=EXPLORE_SERVERS)
    return _read_workload(ctx, graph, servers, setup_s, job_routed=False)


def _place(clients: List[Client], probe: Tuple[float, int],
           attempts: int = 20) -> Dict[int, int]:
    """Reconnect until the connections sit on different shards (read
    from the shard prefix of a job id), so SO_REUSEPORT placement cannot
    make throughput bimodal.  Returns conn → shard."""
    eps, mu = probe
    for _ in range(attempts):
        placement = {}
        for client in clients:
            body = client.call(*_cluster(eps, mu, labels=False, wait=False))
            job_id = str(body.get("job_id") or "")
            if not job_id.startswith("w"):
                raise BenchError(f"unexpected probe answer {body}")
            placement[client.conn_id] = int(job_id[1:].split("-", 1)[0])
            eps += 1e-7  # a new key, so the next probe is a miss again
        if len(set(placement.values())) == len(clients):
            return placement
        clients[-1].reconnect()
    raise BenchError("could not place the connections on distinct shards")


def fleet(ctx: Context) -> Outcome:
    """``--processes 2`` with two connections on distinct shards; fresh
    queries go through the job route."""
    graph = ctx.graph(EXPLORE_N)
    servers, setup_s = _setups(ctx, lambda i, k: [
        "--graph", f"{GRAPH}={graph.path}", "--build-cluster-index",
        "--processes", "2",
    ])
    return _read_workload(ctx, graph, servers, setup_s, job_routed=True)


# ----------------------------------------------------------------------
# ingest: update batches, reads after writes, crash recovery
# ----------------------------------------------------------------------
BATCH_EDGES = 8    # inserted (and, once warm, deleted) edges per batch
DELETE_LAG = 4     # a batch deletes the edges batch i - DELETE_LAG inserted
READ_EVERY = 4     # a read-after-write query after every 4th batch
# Checkpoint cadence in batches, and how many WAL records past the last
# checkpoint the crash leaves for recovery to replay.  A cadence below
# the default 64 puts several checkpoints inside one timed phase, and a
# fixed replay length keeps recovery time comparable between runs.
CHECKPOINT_EVERY = 16
REPLAY_RECORDS = 8


class _BatchStream:
    """Seeded update batches that keep the edge count constant."""

    def __init__(self, rng: np.random.Generator, n: int,
                 edges: np.ndarray) -> None:
        self.rng = rng
        self.n = n
        self.edges = {(int(u), int(v)) for u, v in edges.tolist()}
        self.inserted: List[List[Tuple[int, int]]] = []

    def next(self) -> Tuple[List[list], List[list]]:
        batch: List[Tuple[int, int]] = []
        while len(batch) < BATCH_EDGES:
            u, v = sorted(int(x) for x in self.rng.integers(0, self.n, 2))
            if u != v and (u, v) not in self.edges:
                self.edges.add((u, v))
                batch.append((u, v))
        deletes: List[Tuple[int, int]] = []
        if len(self.inserted) >= DELETE_LAG:
            deletes = self.inserted[-DELETE_LAG]
            self.edges.difference_update(deletes)
        self.inserted.append(batch)
        return [list(e) for e in batch], [list(e) for e in deletes]

    def edge_array(self) -> np.ndarray:
        return np.asarray(sorted(self.edges), dtype=np.int64)


def ingest(ctx: Context) -> Outcome:
    """Durable server (fsync on): update batches with reads after writes,
    then SIGKILL and ``--recover``."""
    graph = ctx.graph(INGEST_N)

    def args(i: int, k: int) -> List[str]:
        return ["--graph", f"{GRAPH}={graph.path}", "--build-cluster-index",
                "--data-dir", ctx.path(f"data-{i}"),
                "--checkpoint-every", str(CHECKPOINT_EVERY)]

    (server,), setup_s = _setups(ctx, args)
    data_dir = ctx.path(f"data-{SETUPS - 1}")
    stream = _BatchStream(ctx.rng, graph.n, graph.edges)
    fresh = Params(ctx.rng, FRESH, set())
    client = Client(server)
    reads: List[Tuple[float, int, np.ndarray, list]] = []
    update_path = f"/graphs/{GRAPH}/update-edges"
    recover_s = None
    try:
        # Warm-up: the first update builds the dynamic mirror, and the
        # first DELETE_LAG batches only insert.
        for _ in range(DELETE_LAG + 1):
            insert, delete = stream.next()
            client.call("POST", update_path,
                        {"insert": insert, "delete": delete})
        batches = DELETE_LAG + 1
        collect()
        start = time.perf_counter_ns()
        deadline = start + int(ctx.seconds * 1e9)
        op_id = 0
        while time.perf_counter_ns() < deadline:  # whole cycles only
            for _ in range(READ_EVERY):
                insert, delete = stream.next()
                client.timed(op_id, "update", [(
                    "POST", update_path, {"insert": insert, "delete": delete}
                )])
                batches += 1
                op_id += 1
            eps, mu = fresh.next()
            bodies = client.timed(op_id, "fresh",
                                  [_cluster(eps, mu, labels=True)])
            if bodies is not None:
                reads.append((eps, mu, stream.edge_array(),
                              bodies[0]["labels"]))
            op_id += 1
        end = time.perf_counter_ns()
        while batches % CHECKPOINT_EVERY != REPLAY_RECORDS:
            insert, delete = stream.next()
            client.call("POST", update_path,
                        {"insert": insert, "delete": delete})
            batches += 1
        # One more read after the last write: recovery must return it.
        eps, mu = fresh.next()
        final = client.call(*_cluster(eps, mu, labels=True))["labels"]
        reads.append((eps, mu, stream.edge_array(), final))
        rss = server.peak_rss_mb()
        dump_spans(ctx, server)
        client.close()
        server.kill()
        # Crash recovery: exec → first answered query on the recovered state.
        started = time.perf_counter()
        recovered = _spawn(ctx, ["--data-dir", data_dir, "--recover"])
        try:
            recovered.wait_ready()
            probe = Client(recovered)
            try:
                answer = probe.call(*_cluster(eps, mu, labels=True))["labels"]
            finally:
                probe.close()
            recover_s = time.perf_counter() - started
            dump_spans(ctx, recovered)
        finally:
            recovered.shutdown()
    finally:
        client.close()
        server.kill()
    if answer != final:
        raise BenchError("recovered server answers differently than before "
                         "the crash")
    for eps, mu, edges, labels in reads:
        Reference(graph.n, edges).check_exact(
            "read-after-write query", eps, mu, labels
        )
    return Outcome(
        setup_s=setup_s, ops=client.ops, phase=(start, end),
        peak_rss_mb=rss, attempted=client.attempted, failed=client.failed,
        extra={"recover_s": recover_s},
        meta={"graph": graph.params, "batch_edges": BATCH_EDGES,
              "delete_lag": DELETE_LAG, "read_every": READ_EVERY,
              "batches": batches,
              "data_dir_fs": common.filesystem_of(data_dir),
              "flush_policy": "fsync per WAL append (group commit), "
                              f"checkpoint every {CHECKPOINT_EVERY} batches, "
                              f"crash {REPLAY_RECORDS} records after one"},
        trace_dir=ctx.trace_dir,
    )


# ----------------------------------------------------------------------
# anytime: in-process anySCAN
# ----------------------------------------------------------------------
#: One exact run (to the final result) per two previews (first snapshot).
ANYTIME_PATTERN = ("exact", "preview", "preview")
#: Concurrent anySCAN processes (users), one per core.  The two cores of
#: the benchmark host slow down independently of each other, so pooling
#: both processes' samples halves the run-to-run variance of the medians.
ANYTIME_USERS = 2
#: Ops planned per user: more than a 60-second run can complete.
ANYTIME_PLAN_OPS = 300


def anytime(ctx: Context) -> Outcome:
    """anySCAN (α=β=1024, no index) in program processes of their own,
    one per user: previews interleaved with runs to the exact result."""
    import subprocess
    import sys

    graph = ctx.graph(ANYTIME_N)
    params = Params(ctx.rng, ANYTIME, set())
    go = ctx.path("go")
    confs = []
    for user in range(ANYTIME_USERS):
        plan = [(ANYTIME_PATTERN[i % len(ANYTIME_PATTERN)], *params.next())
                for i in range(ANYTIME_PLAN_OPS)]
        confs.append({
            "graph": graph.path, "setups": SETUPS, "seconds": ctx.seconds,
            "warmup": [list(params.next())], "ops": plan,
            "cycle": len(ANYTIME_PATTERN), "id_base": user * ANYTIME_PLAN_OPS,
            "dir": ctx.dir, "out": ctx.path(f"anytime-{user}.json"),
            "ready": ctx.path(f"ready-{user}"), "go": go,
        })
    collect()
    logs = [open(ctx.path(f"anytime-{i}.log"), "wb") for i in range(len(confs))]
    procs = [
        subprocess.Popen(
            [sys.executable, common.LAUNCHER, "anytime", json.dumps(conf)],
            env=common.bench_env(ctx.trace_dir), cwd=common.ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        for conf, log in zip(confs, logs)
    ]
    try:
        # Both users start their timed phase together, after set-up.
        deadline = time.monotonic() + 120
        while not all(os.path.exists(c["ready"]) for c in confs):
            if time.monotonic() > deadline or any(
                p.poll() not in (None, 0) for p in procs
            ):
                raise BenchError("anytime process failed during set-up")
            time.sleep(0.005)
        open(go, "w").close()
        for proc in procs:
            proc.wait(timeout=150)
    finally:
        for proc, log in zip(procs, logs):
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            log.close()
    if any(proc.returncode != 0 for proc in procs):
        with open(logs[0].name, encoding="utf-8", errors="replace") as log:
            raise BenchError("anytime process failed: " + log.read()[-2000:])
    results = []
    for conf in confs:
        with open(conf["out"], encoding="utf-8") as handle:
            results.append(json.load(handle))
    ops = []
    first_ms = []
    ref = Reference(graph.n, graph.edges)
    for user, result in enumerate(results):
        for rec in result["ops"]:
            ops.append(Op(rec["id"], rec["kind"], rec["start"], rec["end"],
                          conn=user))
            first_ms.append((rec["first"] - rec["start"]) / 1e6)
            if rec["kind"] == "exact":
                ref.check_equivalent("anySCAN exact result", rec["eps"],
                                     rec["mu"], np.load(rec["labels"]))
    return Outcome(
        setup_s=[s for r in results for s in r["setup_s"]],
        ops=sorted(ops, key=lambda op: op.start),
        phase=(min(r["phase"][0] for r in results),
               max(r["phase"][1] for r in results)),
        peak_rss_mb=sum(r["peak_rss_mb"] for r in results),
        attempted=len(ops), failed=0,
        extra={"sigma_evaluations": sum(r["sigma_evaluations"]
                                        for r in results),
               "first_snapshot_p50_ms": common.median(first_ms)},
        meta={"graph": graph.params, "alpha": 1024, "beta": 1024,
              "users": ANYTIME_USERS},
        trace_dir=ctx.trace_dir,
    )


WORKLOADS = {
    "explore": explore,
    "ingest": ingest,
    "anytime": anytime,
    "fleet": fleet,
}
