"""Shared helpers: inputs, statistics, host witness, HTTP client, processes."""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result (wrong answer, crash)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise BenchError("no samples")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# host-speed witness (recorded, never used to scale a metric)
# ----------------------------------------------------------------------
def spin_witness(iterations: int = 3_000_000) -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class GraphInput:
    """A generated graph and its edge-list file."""

    n: int
    path: str
    edges: np.ndarray  # (m, 2) int64, u < v, sorted
    params: Dict[str, object] = field(default_factory=dict)


def make_graph(n: int, seed: int, path: str) -> GraphInput:
    """LFR graph (d̄=12, mixing 0.3) written as an edge list whose dense
    vertex ids equal the generator's (a leading ``v v`` line per vertex
    pins the loader's first-appearance numbering; self-loops are
    dropped on load)."""
    from repro.graph.generators.lfr import LFRParams, lfr_graph

    params = LFRParams(
        n=n, average_degree=12, max_degree=50, mixing=0.3, seed=seed
    )
    graph, _ = lfr_graph(params)
    us = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    vs = graph.indices.astype(np.int64)
    keep = us < vs
    edges = np.stack([us[keep], vs[keep]], axis=1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{v} {v}\n" for v in range(n)))
        handle.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    return GraphInput(
        n=n,
        path=path,
        edges=edges,
        params={
            "generator": "lfr",
            "n": n,
            "average_degree": 12,
            "max_degree": 50,
            "mixing": 0.3,
            "seed": seed,
            "edges": int(edges.shape[0]),
        },
    )


# ----------------------------------------------------------------------
# process memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def group_pids(pgid: int) -> List[int]:
    """Live processes of one process group."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


# ----------------------------------------------------------------------
# HTTP client (one keep-alive connection, closed loop)
# ----------------------------------------------------------------------
class Connection:
    """A keep-alive JSON client that times each request.

    The clock stops when the response body has been read; decoding
    the JSON is the load generator's own work and is not timed.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict, int, int]:
        """``(status, body, start_ns, end_ns)``; raises on transport errors."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter_ns()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        end = time.perf_counter_ns()
        return response.status, json.loads(raw), start, end

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# server subprocesses
# ----------------------------------------------------------------------
def bench_env(trace_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


class Server:
    """One ``repro serve`` process tree started through the launcher.

    Construction only spawns it; :meth:`wait_ready` blocks until it
    answers, so several servers can start side by side.
    """

    def __init__(
        self,
        args: Sequence[str],
        *,
        log_path: str,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, "serve", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=bench_env(trace_dir),
            start_new_session=True,
            cwd=ROOT,
        )
        self.pgid = self.proc.pid
        self.host: Optional[str] = None
        self.port = 0
        self._drain: Optional[threading.Thread] = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until the banner is out and ``/healthz`` answers;
        returns seconds since spawn."""
        banner = self._read_banner(timeout)
        address = banner.split("serving on http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        conn = Connection(self.host, self.port, timeout=30.0)
        try:
            status, _, _, _ = conn.request("GET", "/healthz")
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        return time.perf_counter() - self.started

    def _read_banner(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("server did not become ready in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(
                    f"server exited during start-up (code {self.proc.poll()})"
                )
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if "serving on http://" not in line:
            raise BenchError(f"unexpected server banner {line!r}")
        # Keep draining so a later print can never block the server.
        self._drain = threading.Thread(
            target=self._drain_stdout, daemon=True
        )
        self._drain.start()
        return line

    def _drain_stdout(self) -> None:
        while self.proc.stdout.read(4096):
            pass

    def pids(self) -> List[int]:
        return group_pids(self.pgid)

    def launcher_pids(self) -> List[int]:
        """The server's own processes (not helpers such as
        multiprocessing's resource tracker)."""
        found = []
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"launcher.py" in handle.read():
                        found.append(pid)
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def signal_launchers(self, signum: int) -> None:
        for pid in self.launcher_pids():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful ``POST /shutdown``; falls back to :meth:`kill`."""
        if self.host is None:  # never became ready
            self.kill()
            return
        try:
            conn = Connection(self.host, self.port, timeout=10.0)
            try:
                conn.request("POST", "/shutdown", {})
            finally:
                conn.close()
            self.proc.wait(timeout=timeout)
            self._wait_group(timeout)
        except (OSError, subprocess.TimeoutExpired, http.client.HTTPException,
                ValueError):
            pass
        self.kill()

    def _wait_group(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self.pids() and time.monotonic() < deadline:
            time.sleep(0.02)

    def kill(self) -> None:
        """SIGKILL the whole process group and reap it."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self._wait_group(30.0)
        if self._drain is not None:
            self._drain.join(timeout=5)
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()


def wait_all(servers: List[Server]) -> List[float]:
    """Wait for servers spawned side by side; each one's set-up time runs
    from its own spawn to its own readiness.  Kills all on a failure."""
    count = len(servers)
    times: List[Optional[float]] = [None] * count
    errors: List[BaseException] = []

    def wait(i: int) -> None:
        try:
            times[i] = servers[i].wait_ready()
        except (BenchError, OSError, http.client.HTTPException) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=wait, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        for server in servers:
            server.kill()
        raise BenchError(f"server start-up failed: {errors[0]}")
    return times  # type: ignore[return-value]


def collect() -> None:
    """Collect garbage before a timed phase (GC stays enabled)."""
    gc.collect()
