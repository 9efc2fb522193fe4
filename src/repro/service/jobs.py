"""Cooperative scheduling of anySCAN runs as budgeted anytime jobs.

The paper's anytime contract (suspend after any block iteration, resume
later, exact result at the end) is precisely the primitive a serving
layer needs to multiplex many clustering requests over one worker pool:

* a *job* wraps one :class:`~repro.core.anyscan.AnySCAN` instance;
* workers repeatedly pop the highest-priority runnable job, run a
  *slice* of ``slice_iterations`` calls to
  :meth:`~repro.core.anyscan.AnySCAN.advance`, and requeue it — so N
  concurrent jobs make interleaved progress instead of running head-of-
  line;
* any job can be paused, resumed, reprioritized, or cancelled between
  slices, and its latest :class:`~repro.core.snapshots.Snapshot`
  (assigned fraction + approximate clustering) is readable at any time;
* paused jobs survive a scheduler restart: :meth:`JobScheduler.export_job`
  pickles the suspended algorithm (its cursor holds all loop state) and
  :meth:`JobScheduler.import_job` revives it elsewhere.

Concurrency contract (the R1 budget of the analysis gate): every shared
mutation — job records, the ready heap, the slice log — happens under
``self._lock``; the only work done *outside* it is the slice itself,
which touches one job's algorithm, owned exclusively by the worker that
marked the job RUNNING.  ``pause_requested``/``cancel_requested`` are
additionally *read* mid-slice without the lock for promptness; those
reads are advisory (a stale value only delays the reaction by at most
one iteration) and the authoritative check happens under the lock.

The ``on_done`` callback runs *under* the scheduler lock, in the same
critical section that makes the job terminal: callers observing a
terminal state (``wait``, ``info``, a status poll) are then guaranteed
the callback's effects — the serving layer's cache fill and counter
updates — already happened.  The callback must only take leaf locks
and must not call back into the scheduler.
"""

from __future__ import annotations

import heapq
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.anyscan import AnySCAN
from repro.core.snapshots import Snapshot
from repro.errors import ConfigError, JobStateError, ReproError
from repro.faults import fault_point
from repro.result import Clustering
from repro.validation import check_eps_mu

__all__ = ["JobRecord", "JobScheduler", "JobState"]

_SLICE_LOG_LIMIT = 10_000

#: Terminal jobs a scheduler keeps readable (status, snapshot, result);
#: beyond it the oldest finished job is forgotten and its id answers
#: like an unknown one.  Pending, running and paused jobs are never
#: dropped.
_TERMINAL_JOB_LIMIT = 64

#: Most recent failures kept per job (formatted tracebacks), and the
#: size cap of each entry — enough for a full chain, bounded for JSON.
_ERROR_CHAIN_LIMIT = 8
_ERROR_ENTRY_LIMIT = 4_000


class JobState(Enum):
    """Lifecycle of one anytime job (see DESIGN.md §8)."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job can never run again.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class JobRecord:
    """Bookkeeping for one scheduled anySCAN run.

    ``algorithm`` is ``None`` for jobs born terminal (index-served
    answers via :meth:`JobScheduler.submit_completed`); such jobs never
    enter the ready queue, so the worker path always sees a real
    algorithm.  Every job releases its algorithm when it turns
    terminal, once ``on_done`` has read its statistics.
    """

    job_id: str
    graph_name: str
    mu: int
    epsilon: float
    priority: int
    algorithm: Optional[AnySCAN]
    state: JobState = JobState.PENDING
    slices: int = 0
    iterations: int = 0
    latest: Optional[Snapshot] = None
    result: Optional[Clustering] = None
    error: Optional[str] = None
    pause_requested: bool = False
    cancel_requested: bool = False
    meta: Dict[str, object] = field(default_factory=dict)
    #: How many slices of this job have raised.
    failures: int = 0
    #: Formatted tracebacks of those failures, oldest first (bounded).
    error_chain: List[str] = field(default_factory=list)

    def info(self) -> Dict[str, object]:
        """JSON-ready status view (no labels; use snapshots for those)."""
        latest = self.latest
        return {
            "job_id": self.job_id,
            "graph": self.graph_name,
            "mu": self.mu,
            "epsilon": self.epsilon,
            "priority": self.priority,
            "state": self.state.value,
            "slices": self.slices,
            "iterations": self.iterations,
            "finished": self.state in TERMINAL_STATES,
            "assigned_fraction": (
                latest.assigned_fraction if latest is not None else 0.0
            ),
            "num_clusters": (
                latest.num_clusters if latest is not None else 0
            ),
            "error": self.error,
            "failures": self.failures,
            "error_chain": list(self.error_chain),
        }


class JobScheduler:
    """Worker pool running anySCAN jobs in interleaved slices."""

    def __init__(
        self,
        *,
        workers: int = 2,
        slice_iterations: int = 4,
        on_done: Optional[Callable[[JobRecord], None]] = None,
        slice_deadline: Optional[float] = None,
        max_slice_retries: int = 1,
        id_prefix: str = "job",
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if not id_prefix:
            raise ConfigError("id_prefix must be non-empty")
        if slice_iterations < 1:
            raise ConfigError("slice_iterations must be >= 1")
        if slice_deadline is not None and slice_deadline <= 0:
            raise ConfigError("slice_deadline must be positive")
        if max_slice_retries < 0:
            raise ConfigError("max_slice_retries must be >= 0")
        self.slice_iterations = int(slice_iterations)
        self.on_done = on_done
        #: Leading component of generated job ids (``{prefix}-{seq}``).
        #: A sharded fleet gives each worker process a distinct prefix
        #: (``w3-job``), so any process can route a foreign job id to
        #: the shard that owns it.
        self.id_prefix = str(id_prefix)
        #: Wall-clock budget for one slice; checked at iteration
        #: boundaries, so an over-budget slice stops early and requeues
        #: (one job cannot monopolize a worker beyond ~one iteration).
        self.slice_deadline = (
            float(slice_deadline) if slice_deadline is not None else None
        )
        #: How many failed slices are retried (from a checkpoint taken
        #: at slice start) before the job goes FAILED for good.
        self.max_slice_retries = int(max_slice_retries)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        # Terminal job ids, oldest first: the retention queue that
        # bounds how many finished jobs stay in ``_jobs``.
        self._terminal: Deque[str] = deque()
        # Ready queue: (-priority, seq, job_id).  Entries go stale when a
        # job is paused/cancelled/reprioritized; _pop_ready_locked skips
        # them lazily instead of rebuilding the heap.
        self._ready: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._closed = False
        #: Order in which slices completed (job ids) — the observable
        #: interleaving; bounded, oldest half dropped on overflow.
        self.slice_log: List[str] = []
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"job-worker-{i}",
                daemon=True,
            )
            for i in range(int(workers))
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission and lifecycle control
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: AnySCAN,
        *,
        graph_name: str = "",
        mu: Optional[int] = None,
        epsilon: Optional[float] = None,
        priority: int = 0,
        meta: Optional[Dict[str, object]] = None,
    ) -> str:
        """Queue one anySCAN run; returns its job id immediately."""
        check_eps_mu(mu=mu, epsilon=epsilon)
        mu = int(mu if mu is not None else algorithm.config.mu)
        epsilon = float(
            epsilon if epsilon is not None else algorithm.config.epsilon
        )
        with self._wake:
            if self._closed:
                raise ReproError("scheduler is closed")
            self._seq += 1
            job = JobRecord(
                job_id=f"{self.id_prefix}-{self._seq}",
                graph_name=graph_name,
                mu=mu,
                epsilon=epsilon,
                priority=int(priority),
                algorithm=algorithm,
                meta=dict(meta or {}),
            )
            # Seed the snapshot so status/snapshot reads never race the
            # worker: before the first slice the algorithm is idle.
            job.latest = algorithm.snapshot()
            self._jobs[job.job_id] = job
            if algorithm.finished:
                job.state = JobState.DONE
                job.result = algorithm.result()
                self._notify_done_locked(job)
            else:
                self._push_ready_locked(job)
            self._wake.notify_all()
        return job.job_id

    def submit_completed(
        self,
        result: Clustering,
        *,
        graph_name: str = "",
        mu: int,
        epsilon: float,
        priority: int = 0,
        meta: Optional[Dict[str, object]] = None,
        sigma_evaluations: int = 0,
        compute_seconds: float = 0.0,
    ) -> str:
        """Register an already-computed clustering as a DONE job.

        The short-circuit path for index-served queries: the clustering
        index answers (ε, μ) without running anySCAN, but the answer
        must still flow through the job ledger so status polls,
        ``on_done`` accounting, and the result-cache fill behave exactly
        as for scheduled jobs.  The job is born terminal — it never
        touches the ready queue or a worker — and ``on_done`` runs under
        the lock in the same critical section, preserving the scheduler's
        visibility guarantee (a job observably DONE has already filled
        the cache).
        """
        check_eps_mu(mu=mu, epsilon=epsilon)
        with self._wake:
            if self._closed:
                raise ReproError("scheduler is closed")
            self._seq += 1
            job = JobRecord(
                job_id=f"{self.id_prefix}-{self._seq}",
                graph_name=graph_name,
                mu=int(mu),
                epsilon=float(epsilon),
                priority=int(priority),
                algorithm=None,
                state=JobState.DONE,
                meta=dict(meta or {}),
            )
            job.result = result
            job.latest = Snapshot(
                step="index",
                iteration=0,
                labels=result.labels,
                num_supernodes=0,
                num_clusters=int(result.num_clusters),
                work_units=0.0,
                sigma_evaluations=int(sigma_evaluations),
                union_calls=0,
                wall_time=float(compute_seconds),
                final=True,
            )
            self._jobs[job.job_id] = job
            self._notify_done_locked(job)
            self._wake.notify_all()
        return job.job_id

    def pause(self, job_id: str) -> Dict[str, object]:
        """Stop a job after its current slice; no-op if already paused."""
        with self._wake:
            job = self._require_locked(job_id)
            if job.state is JobState.PENDING:
                job.state = JobState.PAUSED
            elif job.state is JobState.RUNNING:
                job.pause_requested = True
            elif job.state is not JobState.PAUSED:
                raise JobStateError(
                    f"job {job_id} is {job.state.value}; cannot pause"
                )
            return job.info()

    def resume(self, job_id: str) -> Dict[str, object]:
        """Requeue a paused job (or cancel a pending pause request)."""
        with self._wake:
            job = self._require_locked(job_id)
            if job.state is JobState.PAUSED:
                job.state = JobState.PENDING
                job.pause_requested = False
                self._push_ready_locked(job)
                self._wake.notify_all()
            elif job.state in (JobState.PENDING, JobState.RUNNING):
                job.pause_requested = False
            else:
                raise JobStateError(
                    f"job {job_id} is {job.state.value}; cannot resume"
                )
            return job.info()

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Terminate a job; running slices stop at the next iteration."""
        with self._wake:
            job = self._require_locked(job_id)
            if job.state in (JobState.PENDING, JobState.PAUSED):
                job.state = JobState.CANCELLED
                self._notify_done_locked(job)
                self._wake.notify_all()
            elif job.state is JobState.RUNNING:
                job.cancel_requested = True
            elif job.state not in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} is {job.state.value}; cannot cancel"
                )
            return job.info()

    def reprioritize(self, job_id: str, priority: int) -> Dict[str, object]:
        """Change a job's priority; takes effect at its next queueing."""
        with self._wake:
            job = self._require_locked(job_id)
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} is {job.state.value}; cannot reprioritize"
                )
            job.priority = int(priority)
            if job.state is JobState.PENDING:
                self._push_ready_locked(job)
                self._wake.notify_all()
            return job.info()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def info(self, job_id: str) -> Dict[str, object]:
        with self._lock:
            return self._require_locked(job_id).info()

    def __contains__(self, job_id: object) -> bool:
        """Whether ``job_id`` is known (not yet dropped by retention)."""
        with self._lock:
            return job_id in self._jobs

    def list_jobs(self) -> List[Dict[str, object]]:
        with self._lock:
            return [job.info() for job in self._jobs.values()]

    def snapshot(self, job_id: str) -> Snapshot:
        """Latest post-slice snapshot (pre-run: the empty iteration 0)."""
        with self._lock:
            job = self._require_locked(job_id)
            assert job.latest is not None  # seeded at submit
            return job.latest

    def result(self, job_id: str) -> Clustering:
        """Exact final clustering of a DONE job."""
        with self._lock:
            job = self._require_locked(job_id)
            if job.state is not JobState.DONE or job.result is None:
                raise ReproError(
                    f"job {job_id} is {job.state.value}; no final result"
                )
            return job.result

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._wake:
            job = self._require_locked(job_id)
            while job.state not in TERMINAL_STATES:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._wake.wait(remaining)
            return job.info()

    def active_count(self) -> int:
        """Jobs currently consuming or queued for worker time.

        The backpressure signal: PENDING + RUNNING, excluding PAUSED
        (parked by a client, holds no worker) and terminal states.
        """
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state in (JobState.PENDING, JobState.RUNNING)
            )

    def state_counts(self) -> Dict[str, int]:
        """Jobs per state — the gauge ``/metrics`` reports."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state.value] = counts.get(job.state.value, 0) + 1
            return counts

    # ------------------------------------------------------------------
    # suspend-to-disk (scheduler restarts)
    # ------------------------------------------------------------------
    def export_job(self, job_id: str) -> bytes:
        """Pickle a paused/pending job for re-import after a restart."""
        with self._lock:
            job = self._require_locked(job_id)
            if job.state not in (JobState.PAUSED, JobState.PENDING):
                raise ReproError(
                    f"job {job_id} is {job.state.value}; only paused or "
                    "pending jobs can be exported"
                )
            payload = {
                "job_id": job.job_id,
                "graph_name": job.graph_name,
                "mu": job.mu,
                "epsilon": job.epsilon,
                "priority": job.priority,
                "algorithm": job.algorithm,
                "slices": job.slices,
                "iterations": job.iterations,
                "latest": job.latest,
                "meta": dict(job.meta),
                "failures": job.failures,
                "error_chain": list(job.error_chain),
            }
        return pickle.dumps(payload)

    def import_job(self, data: bytes) -> str:
        """Revive an exported job in PAUSED state; returns its (new) id."""
        payload = pickle.loads(data)
        with self._wake:
            if self._closed:
                raise ReproError("scheduler is closed")
            self._seq += 1
            job_id = str(payload["job_id"])
            if job_id in self._jobs:
                job_id = f"{job_id}-r{self._seq}"
            job = JobRecord(
                job_id=job_id,
                graph_name=str(payload["graph_name"]),
                mu=int(payload["mu"]),
                epsilon=float(payload["epsilon"]),
                priority=int(payload["priority"]),
                algorithm=payload["algorithm"],
                state=JobState.PAUSED,
                slices=int(payload["slices"]),
                iterations=int(payload["iterations"]),
                latest=payload["latest"],
                meta=dict(payload["meta"]),
                failures=int(payload.get("failures", 0)),
                error_chain=list(payload.get("error_chain", [])),
            )
            self._jobs[job.job_id] = job
        return job.job_id

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the workers after their current slices; idempotent."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    def _notify_done_locked(self, job: JobRecord) -> None:
        """Run ``on_done`` while still holding the scheduler lock, then
        retire the job.

        A job must never be *observably* terminal (via ``wait``/``info``)
        before its completion callback ran — the serving layer fills the
        result cache in ``on_done``, and releasing the lock first would
        let a repeat query race the cache fill and miss.  The callback
        must therefore only take leaf locks (cache, metrics) and must
        not call back into the scheduler.

        Retiring releases the algorithm (a finished anySCAN holds its
        whole σ cache and cluster state) and drops the oldest terminal
        jobs beyond ``_TERMINAL_JOB_LIMIT``, so a long-lived server's
        finished-job memory stays bounded.
        """
        if self.on_done is not None:
            self.on_done(job)
        job.algorithm = None
        self._terminal.append(job.job_id)
        while len(self._terminal) > _TERMINAL_JOB_LIMIT:
            self._jobs.pop(self._terminal.popleft(), None)

    def _require_locked(self, job_id: str) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job {job_id!r}")
        return job

    def _push_ready_locked(self, job: JobRecord) -> None:
        self._seq += 1
        heapq.heappush(self._ready, (-job.priority, self._seq, job.job_id))

    def _pop_ready_locked(self) -> Optional[JobRecord]:
        while self._ready:
            neg_priority, _, job_id = heapq.heappop(self._ready)
            job = self._jobs.get(job_id)
            if (
                job is not None
                and job.state is JobState.PENDING
                and -neg_priority == job.priority
            ):
                return job
            # Stale entry (paused/cancelled/reprioritized since push).
        return None

    def record_failure(self, job: JobRecord, exc: BaseException) -> None:
        """Append one formatted failure (full cause chain) to the job.

        Caller must hold the scheduler lock or own the RUNNING job.
        """
        text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
        if len(text) > _ERROR_ENTRY_LIMIT:
            text = text[-_ERROR_ENTRY_LIMIT:]
        job.failures += 1
        job.error_chain.append(text)
        del job.error_chain[:-_ERROR_CHAIN_LIMIT]

    def _force_fail(self, job: JobRecord, exc: BaseException) -> None:
        """Terminate a job whose slice machinery itself blew up."""
        with self._wake:
            self.record_failure(job, exc)
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = JobState.FAILED
            self._notify_done_locked(job)
            self._wake.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job = self._pop_ready_locked()
                while job is None and not self._closed:
                    self._wake.wait()
                    job = self._pop_ready_locked()
                if job is None:
                    return
                job.state = JobState.RUNNING
            try:
                self._run_slice(job)
            except Exception as exc:
                # Crash isolation: a poisoned job (unpicklable state,
                # broken snapshot, pathological callback input) fails
                # alone; the worker loop keeps serving other jobs.
                self._force_fail(job, exc)

    def _run_slice(self, job: JobRecord) -> None:
        """One budgeted slice; the worker owns ``job.algorithm`` here.

        Failure handling: when ``max_slice_retries`` > 0 the algorithm
        is checkpointed (pickled) at slice start; a slice that raises is
        rolled back to that checkpoint and requeued, up to the retry
        budget — the replay is deterministic, so a successful retry
        yields the same result a fault-free run would have.  Beyond the
        budget the job goes FAILED with every failure's formatted
        traceback preserved in ``error_chain``.
        """
        checkpoint: Optional[bytes] = None
        if self.max_slice_retries > 0:
            try:
                checkpoint = pickle.dumps(job.algorithm)
            except Exception as exc:
                checkpoint = None  # unpicklable: retries disabled
                with self._lock:
                    self.record_failure(job, exc)
        snaps: List[Snapshot] = []
        result: Optional[Clustering] = None
        started = time.monotonic()
        try:
            fault_point("jobs.slice")
            for _ in range(self.slice_iterations):
                snap = job.algorithm.advance()
                if snap is None:
                    break
                snaps.append(snap)
                if job.cancel_requested or job.pause_requested:
                    break  # advisory read; authoritative check below
                if (
                    self.slice_deadline is not None
                    and time.monotonic() - started >= self.slice_deadline
                ):
                    break  # over budget: requeue instead of monopolizing
            if job.algorithm.finished:
                result = job.algorithm.result()
        except Exception as exc:
            # Jobs fail; the scheduler must not — _account_slice routes
            # the failure through record_failure.
            self._account_slice(job, snaps, None, exc, checkpoint)
            return
        self._account_slice(job, snaps, result, None, checkpoint)

    def _account_slice(
        self,
        job: JobRecord,
        snaps: List[Snapshot],
        result: Optional[Clustering],
        failure: Optional[BaseException],
        checkpoint: Optional[bytes],
    ) -> None:
        """Post-slice bookkeeping and the job's next state transition."""
        with self._wake:
            job.slices += 1
            job.iterations += len(snaps)
            if snaps:
                job.latest = snaps[-1]
            if len(self.slice_log) >= _SLICE_LOG_LIMIT:
                del self.slice_log[: _SLICE_LOG_LIMIT // 2]
            self.slice_log.append(job.job_id)
            if failure is not None:
                self.record_failure(job, failure)
                restored = False
                if (
                    checkpoint is not None
                    and job.failures <= self.max_slice_retries
                    and not job.cancel_requested
                ):
                    try:
                        job.algorithm = pickle.loads(checkpoint)
                        restored = True
                    except Exception as exc:
                        self.record_failure(job, exc)
                if restored:
                    job.state = JobState.PENDING
                    self._push_ready_locked(job)
                else:
                    job.state = JobState.FAILED
                    job.error = f"{type(failure).__name__}: {failure}"
            elif result is not None:
                job.state = JobState.DONE
                job.result = result
            elif job.cancel_requested:
                job.state = JobState.CANCELLED
            elif job.pause_requested:
                job.state = JobState.PAUSED
                job.pause_requested = False
            else:
                job.state = JobState.PENDING
                self._push_ready_locked(job)
            if job.state in TERMINAL_STATES:
                self._notify_done_locked(job)
            self._wake.notify_all()
