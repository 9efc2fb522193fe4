"""Multi-process sharded serving fleet (DESIGN.md §11).

``repro serve --processes N`` turns the single-process server into a
fleet of N worker processes that answer queries in parallel while
sharing every hosted graph — CSR arrays, materialized σ, and the
GS*-style clustering index — **zero-copy** through the shared-memory
publication layer of :mod:`repro.service.shm`:

* :class:`ServiceSupervisor` runs in the launching process.  It owns
  the single *writer* :class:`~repro.service.server.ClusteringService`
  (the only process that mutates graphs), mirrors its store through a
  :class:`~repro.service.shm.StorePublisher`, hosts the writer behind a
  loopback **control server**, and spawns N workers as fresh
  interpreter subprocesses (``python -c`` calling :func:`worker_main`).
  A watch thread respawns workers that die, so a SIGKILL'd shard comes
  back without dropping the fleet.
* The supervisor creates one listening socket on the public port and
  every worker inherits it (``pass_fds``) and accepts on it: pre-forked
  accept, which shares load on every POSIX kernel and keeps queued
  connections when a shard dies.
* Each worker builds an :class:`~repro.service.shm.AttachedGraphStore`
  over the supervisor's manifest.  Mutations (``/graphs``, ``…/index``,
  ``…/update-edges``, ``/shutdown``) hitting a worker are forwarded over
  the control channel to the writer, which republishes the affected
  entry as a new epoch; the worker then refreshes its attachment before
  answering, so a client that mutates through shard A and immediately
  reads from shard A sees its own write.
* :class:`WriterFleet` is the one owner of the worker table and the
  merged ``/fleet/metrics``; it lives with the writer and publishes the
  table through the manifest.
* Job ids are shard-prefixed (``w3-job-7``).  A worker receiving a
  request on a job route (the :data:`~repro.service.api.ROUTES` entries
  with a ``{job_id}`` placeholder) for a job another shard owns
  forwards it verbatim to the owner's private admin endpoint, found in
  the published worker table.

Workers are deliberately *subprocesses*, not forks of the supervisor: a
forked child inherits the publisher's segment registry along with its
GC/atexit finalizers, and those must never unlink segments the parent
still serves (the registries carry an owner-pid guard as a second line
of defense).  A fresh interpreter sidesteps the inherited-lock and
inherited-finalizer classes of bugs entirely; only the listening
socket crosses the boundary.

**Durable HA mode** (``--processes N --data-dir DIR``, DESIGN.md §13):
the writer moves *out* of the supervisor into its own subprocess
(:func:`writer_main`) that journals every mutation through a
:class:`~repro.service.durability.DurabilityManager` before applying
it.  Both placements build the writer the same way: the service comes
from :func:`~repro.service.server.open_service` (which recovers the
data dir, refuses one that holds state without ``recover``, and takes
the final checkpoint on close) and is hosted by :func:`host_writer`.
The placement differs only to keep the non-durable fleet one
interpreter start faster and one process smaller.  In HA mode the
supervisor is a pure process manager: it spawns the writer, waits for
its handshake file (manifest name + control URL), spawns workers
against that manifest, and watches both.  When the
writer dies dirty, the supervisor respawns :func:`writer_main` onto the
*live* manifest: the new writer replays the WAL, adopts the existing
manifest segment (:meth:`~repro.service.shm.StorePublisher.adopt`) with
its worker table, republishes every entry at higher epochs, publishes
its own control URL and only then retires the dead writer's segments —
the readers never detach, so queries keep answering throughout.
Workers re-resolve the control endpoint from the manifest the first
time a forward fails.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.parallel.processes import (
    install_signal_cleanup,
    untrack_attachment,
)
from repro.service.api import ServiceError, get_bool
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.metrics import ServiceMetrics, merge_metric_snapshots
from repro.service.server import (
    ClusteringServer,
    ClusteringService,
    arm_fault_plan,
    open_service,
    wait_for_shutdown,
)
from repro.service.shm import (
    AttachedGraphStore,
    ManifestBlock,
    StorePublisher,
)

__all__ = [
    "ServiceSupervisor",
    "WorkerService",
    "WriterFleet",
    "host_writer",
    "worker_main",
    "writer_main",
]

#: How long a spawning fleet waits for every worker to register.
_READY_TIMEOUT_SECONDS = 60.0

#: Thread cap for shard fan-out scrapes (``/jobs``, ``/fleet/metrics``).
#: Bounded so an N=32 fleet costs one round-trip of wall-clock, not 32,
#: without letting every handler thread spawn an unbounded pool.
_FANOUT_MAX_WORKERS = 8

#: Per-shard deadline for one fan-out request.  Doubles as the socket
#: timeout of the scraping client and the cap on waiting for the
#: future, so one hung shard delays the merged answer by at most this.
_FANOUT_TIMEOUT_SECONDS = 5.0


def _scrape_shards(
    records: List[Dict[str, object]],
    call: Callable[[ServiceClient], object],
    *,
    timeout: float = _FANOUT_TIMEOUT_SECONDS,
) -> Tuple[
    List[Tuple[Dict[str, object], object]],
    List[Tuple[Dict[str, object], Exception]],
]:
    """Fan ``call`` out to every shard's admin endpoint concurrently.

    Returns ``(results, failures)`` in ``records`` order, each pairing
    the worker record with the response body (or the exception).  Each
    shard gets its own one-shot :class:`ServiceClient` inside the
    worker thread — nothing is shared across threads, and the caller
    does all counter/event accounting on its own thread.
    """
    if not records:
        return [], []

    def scrape_one(record: Dict[str, object]) -> object:
        with ServiceClient(
            str(record["admin_url"]), timeout=timeout, max_retries=0
        ) as shard:
            return call(shard)

    results: List[Tuple[Dict[str, object], object]] = []
    failures: List[Tuple[Dict[str, object], Exception]] = []
    # Witness for swallowed per-shard errors: every failure lands in
    # the returned list; the caller turns them into counters/events.
    record_failure = failures.append
    pool = ThreadPoolExecutor(
        max_workers=min(_FANOUT_MAX_WORKERS, len(records)),
        thread_name_prefix="repro-fanout",
    )
    try:
        futures = [
            (record, pool.submit(scrape_one, record))
            for record in records
        ]
        for record, future in futures:
            try:
                # Slack over the client timeout: the socket deadline is
                # the real bound; this only catches a queued future
                # behind slow peers.
                results.append(
                    (record, future.result(timeout=timeout * 2.0))
                )
            except FutureTimeoutError as exc:
                future.cancel()
                record_failure((record, exc))
            except ServiceClientError as exc:
                record_failure((record, exc))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results, failures


class WriterFleet:
    """The fleet's worker table and merged metrics, owned by the writer.

    Wherever the writer runs — inside the supervisor or in the durable
    writer subprocess (:func:`writer_main`) — this one object answers
    ``/fleet/register`` and ``/fleet/metrics``.  It publishes the table
    through the manifest, where shards read it to route jobs and the HA
    supervisor reads it to count registrations.  It starts from the
    table its publisher holds, so a writer respawned onto the live
    manifest inherits the dead writer's registrations.
    """

    def __init__(
        self, publisher: StorePublisher, *, metrics, processes: int
    ) -> None:
        self.publisher = publisher
        self.metrics = metrics
        self.processes = int(processes)
        self._registrations: Dict[int, Dict[str, object]] = {
            int(record["process_id"]): dict(record)
            for record in publisher.workers()
        }
        self._lock = threading.Lock()

    def worker_table(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                dict(self._registrations[index])
                for index in sorted(self._registrations)
            ]

    def _publish_locked(self) -> None:
        self.publisher.set_workers(
            [self._registrations[i] for i in sorted(self._registrations)]
        )

    def register_worker(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        try:
            index = int(payload["process_id"])  # type: ignore[arg-type]
            pid = int(payload["pid"])  # type: ignore[arg-type]
            admin_url = str(payload["admin_url"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError(
                "fleet registration needs integer 'process_id'/'pid' "
                "and string 'admin_url'"
            ) from None
        record = {
            "process_id": index,
            "pid": pid,
            "admin_url": admin_url,
        }
        with self._lock:
            self._registrations[index] = record
            self._publish_locked()
            registered = len(self._registrations)
        self.metrics.increment("workers_registered")
        self.metrics.record_event("worker_registered", record)
        return {"status": "registered", "workers": registered}

    def process_gauge(self) -> Dict[str, object]:
        """The writer's ``process`` gauge (shard 0 of ``/fleet/metrics``)."""
        return {
            "role": "writer",
            "pid": os.getpid(),
            "generation": self.publisher.generation(),
        }

    def drop_worker(self, index: int) -> None:
        """Forget a dead shard, so its jobs answer 410 until the index
        re-registers."""
        with self._lock:
            if self._registrations.pop(index, None) is not None:
                self._publish_locked()

    def merged_metrics(self) -> Dict[str, object]:
        """Fleet-wide ``/metrics``: summed counters, exactly merged
        histograms, per-shard gauges/events under ``shards``."""
        snapshots = [self.metrics.snapshot()]
        results, failures = _scrape_shards(
            self.worker_table(), lambda shard: shard.metrics()
        )
        scraped = []
        for record, snapshot in results:
            snapshots.append(snapshot)
            scraped.append(record)
        for record, exc in failures:
            # A shard mid-respawn (or hung past the per-shard deadline)
            # answers nothing; report it absent rather than failing the
            # whole scrape.
            self.metrics.increment("metrics_scrape_failures")
            self.metrics.record_event(
                "metrics_scrape_failed",
                {"process_id": record["process_id"], "error": str(exc)},
            )
        merged = merge_metric_snapshots(snapshots)
        merged["fleet"] = {
            "processes": self.processes,
            "scraped_shards": [r["process_id"] for r in scraped],
            "generation": self.publisher.generation(),
        }
        return merged


def host_writer(
    service: ClusteringService,
    *,
    processes: int,
    manifest: Optional[str] = None,
) -> ClusteringServer:
    """Host ``service`` as the fleet's writer, in the supervisor or in
    :func:`writer_main`; returns its control server.

    A writer respawned onto the live ``manifest`` adopts it and retires
    the dead writer's segments only after republishing.  A journaling
    writer's segments are untracked, so a SIGKILL leaves them for its
    successor.  Closing the control server closes the service, which
    unlinks its segments.
    """
    metrics = service.metrics
    if manifest:
        publisher = StorePublisher.adopt(manifest, metrics=metrics)
    else:
        publisher = StorePublisher(
            metrics=metrics, durable=service.durability is not None
        )
    service.store.attach_publisher(publisher)  # (re)publish every entry
    service.fleet = WriterFleet(
        publisher, metrics=metrics, processes=processes
    )
    control = ClusteringServer(service, host="127.0.0.1", port=0)
    control.start()
    publisher.set_control_url(control.url)
    publisher.retire_foreign_segments()
    metrics.register_gauge("process", service.fleet.process_gauge)
    return control


class ServiceSupervisor:
    """Writer + publisher + worker fleet behind one public port."""

    def __init__(
        self,
        service: Optional[ClusteringService],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        processes: int = 2,
        worker_options: Optional[Dict[str, object]] = None,
        respawn: bool = True,
        data_dir: Optional[str] = None,
        recover: bool = False,
        checkpoint_every: int = 64,
        writer_graphs: Optional[List[List[object]]] = None,
    ) -> None:
        if processes < 1:
            raise ConfigError("processes must be >= 1")
        if service is None and data_dir is None:
            raise ConfigError(
                "a supervisor needs a writer service, or a data_dir to "
                "run the writer as a durable subprocess"
            )
        self.service = service
        self.data_dir = data_dir
        self.processes = int(processes)
        self.respawn = bool(respawn)
        self._worker_options = dict(worker_options or {})
        # writer_main's options, less the per-spawn handshake/manifest.
        self._writer_options: Dict[str, object] = {
            "data_dir": data_dir,
            "recover": bool(recover),
            "checkpoint_every": int(checkpoint_every),
            "processes": self.processes,
            "service": self._worker_options,
            "graphs": [list(g) for g in (writer_graphs or [])],
        }
        # HA mode has no in-process service; the supervisor keeps its
        # own registry for process-management telemetry.
        self.metrics = (
            service.metrics if service is not None else ServiceMetrics()
        )
        self.shutdown_event = (
            service.shutdown_event
            if service is not None
            else threading.Event()
        )
        self._lock = threading.Lock()
        self._procs: Dict[int, subprocess.Popen] = {}
        self._respawns = 0
        self._closing = threading.Event()
        self._watch: Optional[threading.Thread] = None

        # Durable-writer state (all None/idle in non-HA mode).
        self._writer_proc: Optional[subprocess.Popen] = None
        self._manifest_shm = None
        self._manifest_reader: Optional[ManifestBlock] = None
        self._worker_table: List[Dict[str, object]] = []
        self._worker_manifest: Optional[str] = None
        self._worker_control: Optional[str] = None

        # Single-writer publication: every mutation of the writer's
        # store lands in shared memory as a fresh epoch.  In HA mode
        # the writer subprocess owns the publisher and the worker table
        # instead.
        self.fleet: Optional[WriterFleet] = None
        self._listen_sock: Optional[socket.socket] = None
        self._control: Optional[ClusteringServer] = None
        try:
            # One listening socket, inherited by every worker, which
            # all accept on it.
            self._listen_sock = socket.create_server(
                (host, port), backlog=128
            )
            self.host, self.port = self._listen_sock.getsockname()[:2]
            if service is None:
                self._spawn_writer()
            else:
                self._control = host_writer(
                    service, processes=self.processes
                )
                self.fleet = service.fleet
                self._worker_manifest = self.fleet.publisher.manifest_name
                self._worker_control = self._control.url
        except BaseException:
            self._teardown()
            raise
        self.metrics.register_gauge("fleet", self._fleet_gauge)

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def control_url(self) -> str:
        assert self._worker_control is not None
        return self._worker_control

    def _fleet_gauge(self) -> Dict[str, object]:
        registered = self._registered()
        failovers = self.metrics.counter("writer_respawns")
        with self._lock:
            alive = sum(
                1 for proc in self._procs.values() if proc.poll() is None
            )
            return {
                "processes": self.processes,
                "alive": alive,
                "registered": registered,
                "respawns": self._respawns,
                "failovers": failovers,
            }

    def _registered(self) -> int:
        """Workers in the owner's table (in HA mode, as last read from
        the manifest the writer publishes it through)."""
        if self.fleet is not None:
            return len(self.fleet.worker_table())
        return len(self._worker_table)

    # ------------------------------------------------------------------
    # durable writer subprocess (HA mode)
    # ------------------------------------------------------------------
    def _spawn_writer(self) -> None:
        """Start :func:`writer_main` and wait for its handshake file.

        A respawn hands the writer the live manifest's name to adopt.
        """
        handshake = os.path.join(str(self.data_dir), "writer.json")
        if os.path.exists(handshake):
            os.remove(handshake)
        proc = self._writer_proc = _spawn_entry(
            "writer_main",
            dict(
                self._writer_options,
                handshake=handshake,
                manifest=self._worker_manifest,
            ),
        )
        deadline = time.monotonic() + _READY_TIMEOUT_SECONDS
        while True:
            if os.path.exists(handshake):
                try:
                    with open(handshake, "r", encoding="utf-8") as fh:
                        info = json.load(fh)
                    break
                except ValueError as exc:
                    # The rename is atomic, so this means a stale probe
                    # raced the writer; witness it and keep waiting.
                    self.metrics.record_event(
                        "writer_handshake_retry", {"error": str(exc)}
                    )
            if proc.poll() is not None:
                raise ConfigError(
                    "durable writer exited with "
                    f"{proc.returncode} before its handshake"
                )
            if time.monotonic() > deadline:
                proc.terminate()
                raise ConfigError(
                    "durable writer never wrote its handshake"
                )
            time.sleep(0.05)
        self._worker_manifest = str(info["manifest_name"])
        self._worker_control = str(info["control_url"])
        self._attach_manifest_reader()
        # Any later writer spawn replaces a crashed one: it must replay
        # the WAL, never refuse the (now non-empty) data directory.
        self._writer_options["recover"] = True

    def _attach_manifest_reader(self) -> None:
        """(Re-)attach the supervisor's read-only manifest view."""
        self._close_manifest_reader()
        assert self._worker_manifest is not None
        self._manifest_shm = shared_memory.SharedMemory(
            name=self._worker_manifest
        )
        untrack_attachment(self._manifest_shm)
        self._manifest_reader = ManifestBlock(
            self._manifest_shm, writer=False
        )

    def _close_manifest_reader(self) -> None:
        self._manifest_reader = None
        if self._manifest_shm is not None:
            try:
                self._manifest_shm.close()
            except (OSError, BufferError) as exc:
                self.metrics.record_event(
                    "manifest_reader_close_skipped", {"error": str(exc)}
                )
            self._manifest_shm = None

    def _poll_worker_table(self) -> None:
        """Cache the manifest's fleet table (a respawned writer's control
        URL arrives with its handshake)."""
        if self._manifest_reader is None:
            return
        try:
            _, payload = self._manifest_reader.read()
        except ConfigError as exc:
            # Torn manifest right after a writer crash: keep the cached
            # table until the respawned writer commits a fresh one.
            self.metrics.record_event(
                "supervisor_manifest_stalled", {"error": str(exc)}
            )
            return
        self._worker_table = list(payload.get("workers", []))

    def _check_writer(self) -> None:
        """Detect writer death; respawn the writer onto the live manifest."""
        if self._closing.is_set() or self._writer_proc is None:
            return
        returncode = self._writer_proc.poll()
        if returncode is None:
            return
        self._writer_proc = None
        self.metrics.record_event("writer_exit", {"returncode": returncode})
        if returncode == 0:
            # Clean writer exit (drained via /shutdown): the fleet is done.
            self.shutdown_event.set()
            return
        self.metrics.increment("writer_crashes")
        try:
            self._spawn_writer()
        except ConfigError as exc:
            self.metrics.record_event(
                "writer_respawn_failed", {"error": str(exc)}
            )
            self.shutdown_event.set()
            return
        self.metrics.increment("writer_respawns")

    def _sweep_manifest(self) -> None:
        """Unlink a dead writer's orphaned manifest + segments.

        Durable-writer segments are deliberately untracked, so nothing
        reclaims them automatically after a SIGKILL; the supervisor
        adopts the stale manifest just long enough to retire everything
        it names.  A missing manifest (clean writer exit already
        unlinked it) is the no-op case.
        """
        name = self._worker_manifest
        if name is None:
            return
        self._close_manifest_reader()
        try:
            leftover = StorePublisher.adopt(name, metrics=self.metrics)
        except (FileNotFoundError, ConfigError, OSError) as exc:
            self.metrics.record_event(
                "manifest_sweep_skipped",
                {"manifest": name, "error": str(exc)},
            )
            return
        leftover.retire_foreign_segments()
        leftover.close()
        self.metrics.record_event("manifest_swept", {"manifest": name})

    def _stop(self, procs, timeout: float, escalations: str) -> None:
        """SIGTERM every live process; SIGKILL (counting ``escalations``)
        those still up after ``timeout`` seconds."""
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self.metrics.increment(escalations)
                proc.kill()
                proc.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceSupervisor":
        with self._lock:
            for index in range(self.processes):
                if index not in self._procs:
                    self._procs[index] = self._spawn(index)
        if self._watch is None:
            self._watch = threading.Thread(
                target=self._watch_loop, name="fleet-watch", daemon=True
            )
            self._watch.start()
        return self

    def _spawn(self, index: int) -> subprocess.Popen:
        assert self._listen_sock is not None
        fd = self._listen_sock.fileno()
        options: Dict[str, object] = {
            "process_index": index,
            "manifest_name": self._worker_manifest,
            "control_url": self.control_url,
            "listen_fd": fd,
            "service": self._worker_options,
        }
        return _spawn_entry("worker_main", options, pass_fds=[fd])

    def _watch_loop(self) -> None:
        while not self._closing.wait(0.2):
            self._poll_worker_table()
            self._check_writer()
            with self._lock:
                dead = [
                    (index, proc)
                    for index, proc in self._procs.items()
                    if proc.poll() is not None
                ]
                for index, proc in dead:
                    self.metrics.increment("worker_exits")
                    self.metrics.record_event(
                        "worker_exit",
                        {
                            "process_id": index,
                            "pid": proc.pid,
                            "returncode": proc.returncode,
                        },
                    )
                    # Drop the record before the respawn can register
                    # a successor at the same index.
                    if self.fleet is not None:
                        self.fleet.drop_worker(index)
                    if (
                        self.respawn
                        and not self._closing.is_set()
                        and not self.shutdown_event.is_set()
                    ):
                        self._respawns += 1
                        self.metrics.increment("worker_respawns")
                        self._procs[index] = self._spawn(index)
                    else:
                        del self._procs[index]

    def wait_ready(
        self, timeout: float = _READY_TIMEOUT_SECONDS
    ) -> "ServiceSupervisor":
        """Block until every worker registered (spawn-time barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            self._poll_worker_table()
            registered = self._registered()
            if registered >= self.processes:
                return self
            if time.monotonic() > deadline:
                raise ConfigError(
                    f"fleet startup timed out: "
                    f"{self.processes - registered} of "
                    f"{self.processes} workers never registered"
                )
            time.sleep(0.05)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, the control server, and unlink every segment."""
        self._closing.set()
        if self._watch is not None:
            self._watch.join(timeout=5.0)
            self._watch = None
        self._teardown()

    def _teardown(self) -> None:
        with self._lock:
            procs = list(self._procs.values())
            self._procs = {}
        if any(proc.poll() is None for proc in procs):
            # Drain grace: a worker that just forwarded /shutdown to the
            # writer is still flushing that response to its client;
            # terminating instantly would reset the connection.
            time.sleep(0.3)
        self._stop(procs, 5.0, "worker_kill_escalations")
        writer, self._writer_proc = self._writer_proc, None
        if writer is not None:
            # Graceful stop: SIGTERM lets the writer take one final
            # checkpoint before releasing the WAL.
            self._stop([writer], 10.0, "writer_kill_escalations")
        if self._control is not None:
            self._control.close()
            self._control = None
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        if self.service is None:
            # HA teardown: whatever the (possibly killed) writer left
            # behind gets retired here — durable segments are
            # untracked, so nobody else will.
            self._sweep_manifest()
        self._close_manifest_reader()

    def __enter__(self) -> "ServiceSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class WorkerService(ClusteringService):
    """A shard: answers reads locally, forwards writes to the writer.

    Reads run against the zero-copy :class:`AttachedGraphStore`; every
    request revalidates the manifest generation, so an epoch committed
    by the writer is visible to the very next read.  Mutations forward
    over the control channel and then ``refresh()`` before answering —
    read-your-writes for the client that mutated.  Job requests whose
    shard prefix names another worker go to that worker's admin URL
    from the published fleet table (:meth:`forward_job`).
    """

    def __init__(
        self,
        *,
        store: AttachedGraphStore,
        control_url: str,
        process_index: int,
        **kwargs: object,
    ) -> None:
        super().__init__(
            store=store,  # type: ignore[arg-type]
            job_id_prefix=f"w{process_index}-job",
            **kwargs,  # type: ignore[arg-type]
        )
        self.process_index = int(process_index)
        self.control_url = control_url
        self._control = self._client(control_url)
        self._control_lock = threading.Lock()
        self._peer_lock = threading.Lock()
        self._peers: Dict[str, ServiceClient] = {}
        # Epoch-moved entries evict their stale cache lines eagerly
        # (correctness never depends on it — cache keys embed the
        # fingerprint, which the new epoch changed).
        store.fingerprint_listeners.append(self.cache.invalidate_fingerprint)
        self.metrics.register_gauge("process", self._process_gauge)

    def _process_gauge(self) -> Dict[str, object]:
        return {
            "role": "worker",
            "process_id": self.process_index,
            "pid": os.getpid(),
            "generation": self.store.generation(),
            "epochs": self.store.epochs(),
        }

    def _client(self, url: str) -> ServiceClient:
        return ServiceClient(url, timeout=self.request_timeout, max_retries=0)

    def close(self) -> None:
        super().close()
        self._control.close()
        with self._peer_lock:
            peers = list(self._peers.values())
            self._peers = {}
        for peer in peers:
            peer.close()
        self.store.close()

    # ------------------------------------------------------------------
    # write forwarding (worker → writer over the control channel)
    # ------------------------------------------------------------------
    def _reresolve_control(self) -> bool:
        """Point the control client at the manifest's current writer.

        After a failover the respawned writer publishes its own control
        endpoint in the manifest; a worker whose forward just failed at
        the transport level re-resolves from there.  Returns whether
        the endpoint actually changed.
        """
        with self._control_lock:
            fresh = self.store.control_url()
            if not fresh or fresh == self.control_url:
                return False
            stale, self.control_url = self.control_url, fresh
            old_client = self._control
            self._control = self._client(fresh)
            old_client.close()
        self.metrics.increment("control_reconnects")
        self.metrics.record_event(
            "control_reconnected", {"from": stale, "to": fresh}
        )
        return True

    def _control_request(
        self, method: str, path: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        try:
            return self._control.request(method, path, payload)
        except ServiceClientError as exc:
            if exc.status != 0:
                raise ServiceError(
                    str(exc), status=exc.status or 502,
                    retry_after=exc.retry_after,
                ) from None
            # Transport failure: the writer may have failed over.
            if not self._reresolve_control():
                raise ServiceError(
                    f"fleet writer unreachable: {exc}",
                    status=503, retry_after=1.0,
                ) from None
            try:
                return self._control.request(method, path, payload)
            except ServiceClientError as retry_exc:
                raise ServiceError(
                    str(retry_exc),
                    status=retry_exc.status or 503,
                    retry_after=retry_exc.retry_after or 1.0,
                ) from None

    def _forward(
        self, method: str, path: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        body = self._control_request(method, path, payload)
        # The writer committed a new epoch before answering; observe it
        # now so this worker's next read serves the mutated graph.
        self.store.refresh()
        return body

    def handle_load_graph(self, payload):
        body = self._forward("POST", "/graphs", payload)
        self.metrics.increment("graphs_loaded")
        return body

    def handle_build_index(self, payload, name):
        body = self._forward("POST", f"/graphs/{name}/index", payload)
        self.metrics.increment("cluster_indexes_built")
        return body

    def handle_update_edges(self, payload, name):
        body = self._control_request(
            "POST", f"/graphs/{name}/update-edges", payload
        )
        if body.get("replayed") or body.get("recovered"):
            # Idempotent replay: the writer applied nothing (a retry of
            # an acked batch, possibly across a crash — recovered
            # markers carry no fingerprints at all), so there is no
            # old→new epoch to migrate cache lines across.
            self.store.refresh()
            self.metrics.increment("update_idempotent_replays")
            return dict(body)
        # Migrate and invalidate this shard's cache lines *before*
        # refresh(), whose old-fingerprint listener would otherwise evict
        # the surviving local lines and count the rest first: the counts
        # match a single-process server's for the same request stream.
        body = self._migrate_cache(body)
        self.store.refresh()
        return body

    def handle_shutdown(self, payload):
        # Stopping one shard of a fleet is not a meaningful client
        # operation; /shutdown stops the whole fleet via the writer.
        body = self._forward("POST", "/shutdown", {})
        self.shutdown_event.set()
        return body

    def _ensure_local_indexes(self, name, entry):
        # The attached store is read-only; local queries serve with
        # whatever index the writer last published (degrading to the
        # oracle tier when no index survived the last update).
        return entry

    # ------------------------------------------------------------------
    # job routing (shard-prefixed ids; foreign ids go to the owner)
    # ------------------------------------------------------------------
    def _job_peer(self, job_id: str) -> Optional[ServiceClient]:
        """The owning shard's admin client, or None for local ids."""
        prefix, sep, _ = job_id.partition("-")
        if not sep or not prefix.startswith("w"):
            return None  # not shard-addressed; treat as local
        if prefix == f"w{self.process_index}":
            return None
        try:
            owner = int(prefix[1:])
        except ValueError:
            return None
        for record in self.store.workers():
            if int(record.get("process_id", -1)) == owner:
                admin_url = str(record["admin_url"])
                with self._peer_lock:
                    peer = self._peers.get(admin_url)
                    if peer is None:
                        peer = self._peers[admin_url] = self._client(
                            admin_url
                        )
                return peer
        raise ServiceError(
            f"job {job_id!r} belongs to shard {owner}, which has left "
            "the fleet",
            status=410,
        )

    def forward_job(self, job_id, method, path, payload):
        """Answer a job route for another shard's job from its owner:
        the request goes verbatim to the owner's admin endpoint."""
        peer = self._job_peer(job_id)
        if peer is None:
            return None
        self.metrics.increment("jobs_proxied")
        try:
            return peer.request(method, path, payload)
        except ServiceClientError as exc:
            raise ServiceError(
                str(exc), status=exc.status or 502,
                retry_after=exc.retry_after,
            ) from None

    def handle_list_jobs(self, payload):
        """Union of every shard's jobs (``shard_only`` stops fan-out)."""
        local = super().handle_list_jobs(payload)
        if get_bool(payload, "shard_only", False):
            return local
        jobs = list(local["jobs"])
        peers = [
            record
            for record in self.store.workers()
            if int(record.get("process_id", -1)) != self.process_index
        ]
        results, failures = _scrape_shards(
            peers,
            lambda peer: peer.request("GET", "/jobs", {"shard_only": True}),
        )
        for _, remote in results:
            jobs.extend(remote["jobs"])
        for _ in failures:
            # A dying shard's jobs are gone with it; listing the
            # survivors is the useful answer.
            self.metrics.increment("job_list_scrape_failures")
        jobs.sort(key=lambda job: str(job.get("job_id", "")))
        return {"jobs": jobs}

    def handle_fleet_metrics(self, payload):
        return self._forward("GET", "/fleet/metrics", payload)


# ----------------------------------------------------------------------
# process entry points (spawned with ``python -c``, one JSON argument)
# ----------------------------------------------------------------------
def _spawn_entry(
    entry: str, options: Dict[str, object], **popen: object
) -> subprocess.Popen:
    """Start ``entry`` (``worker_main``/``writer_main``) in a fresh
    interpreter with ``options`` as its one JSON argument."""
    # -c, not -m: runpy would re-execute this module under __main__
    # after the package import already loaded it once.
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            f"import sys; from repro.service.fleet import {entry}; "
            f"sys.exit({entry}(sys.argv[1:]))",
            json.dumps(options),
        ],
        stdin=subprocess.DEVNULL,
        **popen,
    )


def _entry_options(
    argv: Optional[List[str]], entry: str
) -> Optional[Dict[str, object]]:
    """Start a fleet subprocess: parse its one JSON argument, install
    the shared-memory signal cleanup, and arm the fault plan named in
    the service options.  ``None`` means a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print(f"usage: {entry}(['<options json>'])", file=sys.stderr)
        return None
    options = json.loads(argv[0])
    install_signal_cleanup()
    options["service"] = arm_fault_plan(options.get("service") or {})
    return options


def worker_main(argv: Optional[List[str]] = None) -> int:
    """Run one fleet worker until the fleet shuts down."""
    options = _entry_options(argv, "worker_main")
    if options is None:
        return 2
    index = int(options["process_index"])
    service = WorkerService(
        store=AttachedGraphStore(str(options["manifest_name"])),
        control_url=str(options["control_url"]),
        process_index=index,
        **options["service"],
    )
    public = ClusteringServer(
        service, sock=socket.socket(fileno=int(options["listen_fd"]))
    )
    # The private admin endpoint: job forwarding and metrics scrapes
    # land here, addressed per-shard, never load-balanced.
    admin = ClusteringServer(service, host="127.0.0.1", port=0)
    public.start()
    admin.start()
    # Over the control channel, which re-resolves the writer from the
    # manifest if it failed over while this worker was starting.
    service._control_request(
        "POST",
        "/fleet/register",
        {"process_id": index, "pid": os.getpid(), "admin_url": admin.url},
    )
    try:
        wait_for_shutdown(service.shutdown_event, supervised=True)
    finally:
        admin.close()
        public.close()
    return 0


# ----------------------------------------------------------------------
# durable writer process entry point (HA mode, DESIGN.md §13)
# ----------------------------------------------------------------------
def writer_main(argv: Optional[List[str]] = None) -> int:
    """Run the fleet's durable writer until drained or terminated.

    Opens the service on ``data_dir`` (:func:`open_service`), hosts it
    (:func:`host_writer`; a respawned writer adopts the live
    ``manifest``, so attached readers never detach), then hands the
    supervisor a handshake file naming the manifest and control
    endpoint.  SIGTERM triggers a final checkpoint before exit — a
    SIGKILL instead is exactly what the WAL protects against.
    """
    options = _entry_options(argv, "writer_main")
    if options is None:
        return 2
    try:
        service = open_service(
            options["service"],
            options.get("graphs") or [],
            data_dir=str(options["data_dir"]),
            recover=bool(options.get("recover")),
            checkpoint_every=int(options.get("checkpoint_every", 64)),
        )
    except ConfigError as exc:
        print(f"writer_main: {exc}", file=sys.stderr)
        return 2
    control = host_writer(
        service,
        processes=int(options["processes"]),
        manifest=options.get("manifest"),
    )
    # Handshake last: the supervisor spawns workers only against a
    # writer that is fully ready to take control traffic.
    handshake = str(options["handshake"])
    probe = handshake + ".tmp"
    with open(probe, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "manifest_name": service.fleet.publisher.manifest_name,
                "control_url": control.url,
                "pid": os.getpid(),
            },
            fh,
        )
    os.replace(probe, handshake)
    try:
        wait_for_shutdown(service.shutdown_event, supervised=True)
    finally:
        control.close()  # closes the service: checkpoint, segments
    return 0
