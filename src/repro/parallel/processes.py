"""Real multicore execution: a shared-memory process-pool backend.

:class:`~repro.parallel.threads.ThreadBackend` proves result parity but
is GIL-bound; this module is the path that actually escapes the GIL.
The graph's CSR arrays (``indptr``, ``indices``, ``weights``) and the
oracle's precomputed invariants (``l_p``, ``w_p``, linear sums) are
published once through :mod:`multiprocessing.shared_memory`; worker
processes attach by name and rebuild zero-copy numpy views, so the only
per-task traffic is one vertex range going out; each worker writes that
range's σ slice straight into the shared ``sigma_out`` segment.  The σ
phase is embarrassingly parallel (every slot has exactly one writer),
which is exactly the phase the paper's Figure 4 and the parallel-SCAN
literature identify as the scalability carrier.

Lifecycle contract:

* the pool and the shared segments spin up lazily on the first parallel
  call and are reused while the (graph, similarity-config) pair stays
  the same;
* :meth:`ProcessBackend.close` (or the context manager, or the GC
  finalizer) tears both down and **unlinks** the segments even when the
  workload raised;
* abnormal shutdown is covered too: an atexit hook unlinks every live
  segment on interpreter exit (``KeyboardInterrupt`` included), and
  :func:`install_signal_cleanup` extends that to SIGTERM — segments are
  named ``repro_{pid}_…`` so a leak check can audit ``/dev/shm``;
* when shared memory is unavailable (restricted ``/dev/shm``) the
  backend degrades to an equivalent
  :class:`~repro.parallel.threads.ThreadBackend` — same results, no
  real speedup — unless ``allow_fallback=False``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import secrets
import signal
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults import FaultInjected, fault_point
from repro.graph.csr import Graph
from repro.parallel.threads import ThreadBackend
from repro.similarity.weighted import SimilarityConfig, SimilarityOracle

__all__ = [
    "SEGMENT_PREFIX",
    "DegradationEvent",
    "SegmentRegistry",
    "SharedArraySpec",
    "untrack_attachment",
    "add_degradation_listener",
    "remove_degradation_listener",
    "emit_degradation",
    "shared_memory_available",
    "SharedGraph",
    "ProcessBackend",
    "cleanup_live_segments",
    "install_signal_cleanup",
]


@dataclass(frozen=True)
class DegradationEvent:
    """Structured record of one backend degradation (process → thread).

    Emitted exactly once per :class:`ProcessBackend` instance, at the
    moment the thread fallback is engaged, to the backend's own
    ``on_degrade`` callback and every listener registered through
    :func:`add_degradation_listener` (the service bridges these into
    :class:`~repro.service.metrics.ServiceMetrics`).
    """

    backend: str
    reason: str
    failures: int
    workers: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "reason": self.reason,
            "failures": self.failures,
            "workers": self.workers,
        }


_DEGRADATION_LISTENERS: List[Callable[[DegradationEvent], None]] = []
_LISTENER_LOCK = threading.Lock()


def add_degradation_listener(
    listener: Callable[[DegradationEvent], None],
) -> Callable[[DegradationEvent], None]:
    """Register a process-wide observer of degradation events."""
    with _LISTENER_LOCK:
        _DEGRADATION_LISTENERS.append(listener)
    return listener


def remove_degradation_listener(
    listener: Callable[[DegradationEvent], None],
) -> None:
    """Unregister a listener; missing listeners are ignored."""
    with _LISTENER_LOCK:
        if listener in _DEGRADATION_LISTENERS:
            _DEGRADATION_LISTENERS.remove(listener)


def emit_degradation(event: DegradationEvent) -> None:
    """Deliver ``event`` to every registered listener.

    Public so other subsystems that degrade between execution tiers
    (e.g. :mod:`repro.local` falling from an index tier to the σ oracle)
    flow through the same observer channel the service already bridges
    into ``/metrics``.
    """
    with _LISTENER_LOCK:
        listeners = list(_DEGRADATION_LISTENERS)
    for listener in listeners:
        try:
            listener(event)
        except Exception:  # repro: allow[swallow] - observers must not mask
            pass


#: Backwards-compatible private alias (module-internal call sites).
_emit_degradation = emit_degradation

#: Labels of the arrays a :class:`SharedGraph` publishes.  ``sigma_out``
#: is the only writable one: an all-edges σ buffer that
#: :meth:`ProcessBackend.sigma_rows` workers fill in disjoint
#: vertex-range slices (the index build's reduction lives in shared
#: memory instead of pickling one float per edge back to the parent).
_ARRAY_LABELS = (
    "indptr", "indices", "weights", "lengths", "max_weights", "linear_sums",
    "sigma_out",
)


#: Leading component of every shared-memory segment name this module
#: creates.  Segments show up in ``/dev/shm`` as
#: ``{SEGMENT_PREFIX}_{owner pid}_{label}_{token}``, so a leak check (or
#: an operator) can attribute every stray segment to its creating
#: process — anonymous ``psm_*`` names cannot be audited that way.
SEGMENT_PREFIX = "repro"

#: Every live (not yet closed) :class:`SegmentRegistry`.  The GC
#: finalizer handles ordinary drops; this registry-of-registries is for
#: *abnormal* shutdown — the atexit hook and
#: :func:`install_signal_cleanup` walk it so a ``KeyboardInterrupt`` or
#: SIGTERM mid-job still unlinks every owned segment.
_LIVE_REGISTRIES: "weakref.WeakSet[SegmentRegistry]" = weakref.WeakSet()


def cleanup_live_segments() -> int:
    """Close and unlink every live segment registry; returns how many.

    Idempotent and safe to call from an atexit hook or a signal handler:
    :meth:`SegmentRegistry.close` is itself idempotent and
    exception-free.
    """
    registries = list(_LIVE_REGISTRIES)
    for registry in registries:
        registry.close()
    return len(registries)


atexit.register(cleanup_live_segments)


def install_signal_cleanup(
    signals: Sequence[int] = (signal.SIGTERM,),
) -> List[Tuple[int, object]]:
    """Unlink shared segments before dying of ``signals`` (default SIGTERM).

    Python's default SIGTERM disposition kills the interpreter without
    running atexit hooks, which strands every ``/dev/shm`` segment a
    running job published.  This installs a handler that unlinks all
    live segments, restores the previous disposition, and re-raises the
    signal so the exit status still reflects the termination.  Must be
    called from the main thread (a CPython restriction on
    ``signal.signal``); the service server and the ``serve`` CLI do so
    on startup.  Returns ``(signum, previous handler)`` pairs so a
    caller can undo the installation.
    """
    previous: List[Tuple[int, object]] = []

    def _handler(signum, frame):  # pragma: no cover - exercised via subprocess
        cleanup_live_segments()
        for num, old in previous:
            if num == signum:
                signal.signal(num, old if callable(old) else signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    for signum in signals:
        previous.append((signum, signal.getsignal(signum)))
        signal.signal(signum, _handler)
    return previous


def shared_memory_available() -> bool:
    """Whether POSIX shared memory works here."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):
        return False
    try:
        probe.close()
        probe.unlink()
    # repro: allow[swallow] - probe cleanup is best effort
    except OSError:  # pragma: no cover
        pass
    return True


# ----------------------------------------------------------------------
# shared segments (owner side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of one shared-memory-backed array.

    A spec is the *attachment recipe* for a published array: segment
    name, shape, and dtype string.  It travels over pickle (process
    pools) or JSON-ish manifests (the service layer serialises the three
    fields) and is everything :meth:`SegmentRegistry.attach` needs.
    """

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


#: Backward-compatible internal alias (pre-registry name).
_SharedSpec = SharedArraySpec


@dataclass(frozen=True)
class SharedGraphHandle:
    """Everything a worker needs to rebuild the graph and oracle."""

    specs: Tuple[Tuple[str, SharedArraySpec], ...]
    similarity: SimilarityConfig


def _release_named(
    owned: Dict[str, shared_memory.SharedMemory],
    owner_pid: Optional[int] = None,
) -> None:
    """Close and unlink owner-side segments; idempotent and exception-safe.

    ``owner_pid`` guards against inherited finalizers: a forked child
    carries copies of the parent's registries (and their GC/atexit
    finalizers), and letting those run would unlink segments the parent
    still serves from.  Ownership does not survive ``fork``.
    """
    if owner_pid is not None and os.getpid() != owner_pid:
        return
    while owned:
        _, shm = owned.popitem()
        try:
            shm.close()
        # repro: allow[swallow] - teardown keeps going per segment
        except (OSError, BufferError):  # pragma: no cover
            pass
        try:
            # ``unlink`` unregisters with the resource tracker; an
            # untracked segment was never in its books, so re-register
            # first (a set-add no-op for tracked ones) to keep the
            # tracker's ledger balanced.
            resource_tracker.register(shm._name, "shared_memory")
            shm.unlink()
        # repro: allow[swallow] - already-unlinked is the idempotent case
        except (FileNotFoundError, OSError):
            pass


def _close_attached(shm: shared_memory.SharedMemory) -> None:
    """Reader-side detach: close the mapping, never unlink (owner's job)."""
    try:
        shm.close()
    # repro: allow[swallow] - a lingering export just delays the unmap
    except (OSError, BufferError):  # pragma: no cover
        pass


def untrack_attachment(shm: shared_memory.SharedMemory) -> None:
    """Tell this process's resource tracker to forget an attachment.

    ``SharedMemory(name=...)`` registers the segment with the *local*
    resource tracker even when merely attaching (fixed upstream only in
    3.13's ``track=False``).  A fleet worker is its own interpreter with
    its own tracker, so without this a dying worker's tracker would
    "clean up" — i.e. unlink — segments the writer process still owns
    and serves.  Attachments are close-only by design; the owner's
    registry is the only unlinker.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    # repro: allow[swallow] - tracker impl details vary across versions
    except (AttributeError, KeyError, ValueError):  # pragma: no cover
        pass


def _create_named_segment(label: str, size: int) -> shared_memory.SharedMemory:
    """A fresh segment named ``{prefix}_{pid}_{label}_{token}``.

    The random token keeps concurrent owners (and re-created sessions in
    one process) from colliding; the pid component lets a leak check
    attribute any stray segment to its creator.
    """
    fault_point("process.segment.create")
    for _ in range(16):
        name = (
            f"{SEGMENT_PREFIX}_{os.getpid()}_{label}_{secrets.token_hex(4)}"
        )
        try:
            return shared_memory.SharedMemory(
                create=True, name=name, size=size
            )
        # repro: allow[swallow] - retry; the loop raises after 16 misses
        except FileExistsError:  # pragma: no cover - 2^32 collision
            continue
    raise SimulationError(
        f"could not allocate a shared segment for {label!r}"
    )  # pragma: no cover - requires 16 collisions


class SegmentRegistry:
    """Owner-side bookkeeping for a group of named shared segments.

    Every shared-memory layer in the codebase (the process-pool backend
    here, the service's zero-copy :class:`~repro.service.shm.StorePublisher`)
    funnels segment creation through one of these so the lifecycle story
    is identical everywhere: the registry owns its segments, `close`
    (or the GC finalizer, or the atexit/SIGTERM sweep over
    :data:`_LIVE_REGISTRIES`) closes **and unlinks** all of them, and
    per-segment :meth:`release` lets a long-lived owner retire old
    epochs without tearing the rest down.

    Reader-side attachment is a classmethod on purpose: attachments are
    *not* owned (close-only, never unlink) and their lifetime rides on
    the returned numpy view via a GC finalizer, so readers can drop a
    stale epoch's views and have the mapping unmapped without any
    explicit bookkeeping.
    """

    def __init__(self, *, untracked: bool = False) -> None:
        self._owned: Dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        # ``untracked`` opts owned segments out of this process's
        # resource tracker.  A durable fleet writer wants exactly that:
        # if it is SIGKILLed, its segments must *survive* so its
        # respawned successor can adopt the manifest and serve through
        # the failover — the tracker's "leak cleanup" would unlink the
        # very state the WAL protects.  Normal exits still unlink
        # everything through this registry (close/atexit/SIGTERM sweep).
        self._untracked = bool(untracked)
        self._finalizer = weakref.finalize(
            self, _release_named, self._owned, self._owner_pid
        )
        _LIVE_REGISTRIES.add(self)

    # -- owner side -----------------------------------------------------
    def publish(self, label: str, array: np.ndarray) -> SharedArraySpec:
        """Copy ``array`` into a fresh named segment; return its spec."""
        if self.closed:
            raise SimulationError("segment registry already closed")
        arr = np.ascontiguousarray(array)
        # Zero-length arrays are legal (edgeless graphs) but zero-byte
        # segments are not; round up to one byte.
        shm = _create_named_segment(label, max(arr.nbytes, 1))
        if self._untracked:
            untrack_attachment(shm)
        # Register *before* the copy: if the fill raises, close() still
        # unlinks the fresh segment instead of leaking it.
        with self._lock:
            self._owned[shm.name] = shm
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view  # drop the exported buffer so close() can unmap
        return SharedArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)

    def create_block(self, label: str, size: int) -> shared_memory.SharedMemory:
        """A fresh raw segment the caller keeps writing through.

        The registry still owns (and will unlink) it; the caller must
        not close or unlink the returned handle itself.
        """
        if self.closed:
            raise SimulationError("segment registry already closed")
        shm = _create_named_segment(label, max(int(size), 1))
        if self._untracked:
            untrack_attachment(shm)
        with self._lock:
            self._owned[shm.name] = shm
        return shm

    def read(self, spec: SharedArraySpec) -> np.ndarray:
        """Copy one owned array out of its segment."""
        with self._lock:
            shm = self._owned.get(spec.shm_name)
        if shm is None:
            raise SimulationError(
                f"no owned segment named {spec.shm_name!r}"
            )
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
        out = np.array(view)
        del view  # drop the exported buffer so close() can unmap
        return out

    def release(self, names: Sequence[str]) -> int:
        """Close + unlink the named owned segments; returns how many.

        Unknown names are ignored (idempotent): an epoch can be retired
        twice without error.  Readers that already attached keep their
        mappings — POSIX unlink removes the name, not the memory.
        """
        retired: Dict[str, shared_memory.SharedMemory] = {}
        with self._lock:
            for name in names:
                shm = self._owned.pop(name, None)
                if shm is not None:
                    retired[name] = shm
        count = len(retired)
        _release_named(retired)
        return count

    # -- reader side ----------------------------------------------------
    @classmethod
    def attach(
        cls, spec: SharedArraySpec, *, writable: bool = False
    ) -> np.ndarray:
        """Zero-copy numpy view over an existing named segment.

        The mapping is closed (never unlinked) by a GC finalizer when
        the returned view is collected, so callers manage lifetime by
        simply dropping references.  Read-only by default: readers of a
        published store must not be able to corrupt it.
        """
        shm = shared_memory.SharedMemory(name=spec.shm_name)
        untrack_attachment(shm)
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
        if not writable:
            view.flags.writeable = False
        weakref.finalize(view, _close_attached, shm)
        return view

    # -- lifecycle ------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._owned)

    def close(self) -> None:
        """Close and unlink every owned segment (safe to call repeatedly)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SharedGraph:
    """Owner-side copy of one graph (plus oracle invariants) in shared memory.

    Creating one copies the six arrays into fresh segments exactly once;
    :attr:`handle` is the picklable attachment recipe handed to workers.
    The segments are unlinked by :meth:`close`, the context manager, or —
    as a last resort — a GC finalizer, so abandoned instances cannot leak
    ``/dev/shm`` entries.
    """

    def __init__(self, graph: Graph, config: SimilarityConfig | None = None) -> None:
        config = config or SimilarityConfig()
        config.validate()
        oracle = SimilarityOracle(graph, config)
        lengths, max_weights, linear_sums = oracle.precomputed_arrays()
        arrays = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "weights": graph.weights,
            "lengths": lengths,
            "max_weights": max_weights,
            "linear_sums": linear_sums,
            "sigma_out": np.zeros(graph.indices.shape[0], dtype=np.float64),
        }
        registry = SegmentRegistry()
        specs: List[Tuple[str, SharedArraySpec]] = []
        try:
            for label in _ARRAY_LABELS:
                specs.append((label, registry.publish(label, arrays[label])))
        except BaseException:
            registry.close()
            raise
        self._registry = registry
        self.handle = SharedGraphHandle(
            specs=tuple(specs), similarity=config
        )

    def read_array(self, label: str) -> np.ndarray:
        """Copy one published array out of its shared segment."""
        if self.closed:
            raise SimulationError("shared graph already closed")
        for name, spec in self.handle.specs:
            if name == label:
                return self._registry.read(spec)
        raise SimulationError(f"no shared array labelled {label!r}")

    def close(self) -> None:
        """Close and unlink every segment (safe to call repeatedly)."""
        self._registry.close()

    @property
    def closed(self) -> bool:
        return self._registry.closed

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process attachment state, set once by the pool initializer.  Each
#: worker process has its own copy of this module, so the global is
#: process-local by construction and never shared between workers.
_WORKER_STATE: Optional[dict] = None

#: How often a worker checks that its parent is still alive (seconds).
_PARENT_POLL_SECONDS = 0.5


def _start_parent_watchdog() -> None:
    """Exit this worker when the parent process disappears.

    A SIGKILL'd parent runs no cleanup hook, so the only path back to a
    clean ``/dev/shm`` is the multiprocessing resource tracker — and the
    tracker only sweeps once *every* process holding its pipe has died.
    Orphaned pool workers block on the call queue forever (the queue's
    writers include the workers themselves, so no EOF ever arrives),
    which would keep the tracker pipe open and the segments leaked.
    Reparenting (``getppid`` changing) is the death signal; ``os._exit``
    skips worker-side cleanup on purpose — the tracker owns it.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(
        target=watch, name="parent-watchdog", daemon=True
    ).start()


def _worker_init(handle: SharedGraphHandle) -> None:
    """Attach the shared segments and rebuild graph + oracle, once.

    Workers never unlink: pool processes share the parent's resource
    tracker, so attaching re-registers the same name as a set no-op and
    the parent's single unlink is the whole cleanup story.
    """
    _start_parent_watchdog()
    fault_point("process.worker.init")
    global _WORKER_STATE
    segments = []
    views = {}
    for label, spec in handle.specs:
        shm = shared_memory.SharedMemory(name=spec.shm_name)
        segments.append(shm)
        views[label] = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
    # validate=False: the arrays were validated when the owner built the
    # graph; ascontiguousarray on an aligned view is zero-copy.
    graph = Graph(
        views["indptr"], views["indices"], views["weights"], validate=False
    )
    oracle = SimilarityOracle(
        graph,
        handle.similarity,
        precomputed=(
            views["lengths"], views["max_weights"], views["linear_sums"]
        ),
    )
    # Process-local cache: this module instance lives in exactly one
    # worker process, so the write is not shared state.  # repro: allow[R1]
    _WORKER_STATE = {
        "segments": segments,
        "graph": graph,
        "oracle": oracle,
        "sigma_out": views["sigma_out"],
    }


def _sigma_row_chunk(task: Tuple[int, int]) -> None:
    """Fill ``sigma_out`` for one vertex range's CSR rows.

    Vertex ranges are disjoint, so the slot slices
    ``indptr[lo]:indptr[hi]`` are disjoint across workers — each shared
    slice has exactly one writer and no reader until the barrier.
    """
    fault_point("process.worker.chunk")
    lo, hi = task
    if _WORKER_STATE is None:  # pragma: no cover - defensive
        raise SimulationError("worker used before pool initialization")
    oracle = _WORKER_STATE["oracle"]
    indptr = _WORKER_STATE["graph"].indptr
    sigma_out = _WORKER_STATE["sigma_out"]
    sigma_out[int(indptr[lo]) : int(indptr[hi])] = oracle.sigma_row_block(
        lo, hi
    )


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FallbackResult:
    """Marks a result produced by the retry path (already final-shaped)."""

    value: object


class ProcessBackend:
    """Chunked parallel map over a pool of real processes.

    Mirrors :class:`~repro.parallel.threads.ThreadBackend`'s
    :meth:`sigma_rows`, the one backend workload.  Worker callables must
    be module-level functions (they are pickled); closures stay the
    thread backend's territory.

    Parameters
    ----------
    workers:
        Pool width; defaults to ``os.cpu_count()``.
    chunk_size:
        Vertices handed to a worker per task, as in OpenMP's
        ``schedule(dynamic, chunk)``.
    allow_fallback:
        Degrade to an equivalent thread backend when shared memory is
        unavailable, or after the failure budget is
        spent; when ``False`` such conditions raise
        :class:`~repro.errors.SimulationError` instead.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheapest on Linux) and the platform default elsewhere.
    max_chunk_retries:
        How many times one chunk may fail with an ordinary exception
        (not a pool death) before the backend gives up on the process
        path; retries back off exponentially with jitter.
    failure_budget:
        How many pool deaths (:class:`BrokenProcessPool`) the backend
        absorbs — respawning the pool and reassigning the dead workers'
        chunks — before it degrades to the thread fallback for good.
    retry_backoff:
        Base sleep (seconds) before re-running a failed chunk; attempt
        ``k`` sleeps ``retry_backoff * 2**(k-1)`` scaled by a random
        jitter in ``[1, 2)``.
    on_degrade:
        Optional callback receiving the :class:`DegradationEvent` when
        the fallback engages (process-wide listeners fire as well).
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int = 256,
        *,
        allow_fallback: bool = True,
        start_method: str | None = None,
        max_chunk_retries: int = 2,
        failure_budget: int = 2,
        retry_backoff: float = 0.05,
        on_degrade: Optional[Callable[[DegradationEvent], None]] = None,
    ) -> None:
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        self.chunk_size = int(chunk_size)
        self.allow_fallback = bool(allow_fallback)
        self.start_method = start_method
        self.max_chunk_retries = int(max_chunk_retries)
        self.failure_budget = int(failure_budget)
        self.retry_backoff = float(retry_backoff)
        self.on_degrade = on_degrade
        self._shared: Optional[SharedGraph] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._graph: Optional[Graph] = None
        self._config: Optional[SimilarityConfig] = None
        self._fallback: Optional[ThreadBackend] = None
        self._failures = 0
        self._degraded = False
        self._retry_rng = random.Random(0xC0FFEE)

    # -- lifecycle ------------------------------------------------------
    def validate(self) -> None:
        if self.workers < 1:
            raise SimulationError("need at least one worker")
        if self.chunk_size < 1:
            raise SimulationError("chunk_size must be >= 1")
        if self.max_chunk_retries < 0:
            raise SimulationError("max_chunk_retries must be >= 0")
        if self.failure_budget < 0:
            raise SimulationError("failure_budget must be >= 0")
        if self.retry_backoff < 0:
            raise SimulationError("retry_backoff must be >= 0")

    @property
    def kind(self) -> str:
        """``"process"``, or ``"thread"`` once the fallback engaged."""
        return "thread" if self._fallback is not None else "process"

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        shared, self._shared = self._shared, None
        if shared is not None:
            shared.close()
        self._graph = None
        self._config = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        # repro: allow[swallow] - interpreter may already be tearing down
        except Exception:
            pass

    # -- session management --------------------------------------------
    def _thread_fallback(self, reason: str) -> ThreadBackend:
        if not self.allow_fallback:
            raise SimulationError(
                f"process backend unavailable ({reason}) and fallback "
                "is disabled"
            )
        if self._fallback is None:
            self._fallback = ThreadBackend(
                threads=self.workers, chunk_size=self.chunk_size
            )
            event = DegradationEvent(
                backend="process",
                reason=reason,
                failures=self._failures,
                workers=self.workers,
            )
            if self.on_degrade is not None:
                try:
                    self.on_degrade(event)
                except Exception:  # repro: allow[swallow] - observers must not mask
                    pass
            _emit_degradation(event)
        return self._fallback

    def _make_executor(self) -> ProcessPoolExecutor:
        """A fresh pool attached to the current shared graph."""
        fault_point("process.pool.spawn")
        assert self._shared is not None
        mp_context = None
        method = self.start_method
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        if method is not None:
            mp_context = multiprocessing.get_context(method)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp_context,
            initializer=_worker_init,
            initargs=(self._shared.handle,),
        )

    def _ensure_session(
        self, graph: Graph, config: SimilarityConfig
    ) -> Optional[ThreadBackend]:
        """Spin up (or reuse) the pool; a ThreadBackend means fallback."""
        self.validate()
        if self._degraded:
            return self._thread_fallback("degraded after repeated failures")
        if not shared_memory_available():
            return self._thread_fallback("shared memory unavailable")
        if (
            self._executor is not None
            and self._graph is graph
            and self._config == config
        ):
            return None
        self.close()
        try:
            self._shared = SharedGraph(graph, config)
            self._executor = self._make_executor()
        except (OSError, ValueError, MemoryError, FaultInjected) as exc:
            self.close()
            return self._thread_fallback(f"pool setup failed: {exc}")
        self._graph = graph
        self._config = config
        return None

    def _sleep_backoff(self, attempt: int) -> None:
        """Exponential backoff with jitter before re-running a chunk."""
        if self.retry_backoff <= 0:
            return
        delay = self.retry_backoff * (2 ** max(0, attempt - 1))
        delay *= 1.0 + self._retry_rng.random()
        time.sleep(min(delay, 1.0))

    def _give_up(self, reason: str, cause: BaseException, retry):
        """Abandon the process path: degrade for good or raise."""
        self.close()
        if not self.allow_fallback:
            raise SimulationError(
                f"process backend failed ({reason}) and fallback is disabled"
            ) from cause
        self._degraded = True
        self._thread_fallback(reason)
        return _FallbackResult(retry())

    def _run_chunks(self, fn, tasks, retry):
        """Order-preserving map over the pool with failure recovery.

        Chunks that fail with an ordinary exception are re-submitted up
        to ``max_chunk_retries`` times with exponential backoff.  A dead
        pool (OOM-killed or crashed worker) is detected as
        :class:`BrokenProcessPool`: completed chunks keep their results,
        the pool is respawned, and the dead workers' chunks are
        reassigned — until ``failure_budget`` deaths, after which the
        backend degrades for good to the thread fallback and re-runs the
        whole batch via ``retry`` (returned wrapped in
        :class:`_FallbackResult` because it is already final-shaped).
        Chunks are idempotent by construction (disjoint slice writes
        re-written whole on retry), so reassignment cannot corrupt
        results.
        """
        tasks = list(tasks)
        results: List[object] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempts = [0] * len(tasks)
        while pending:
            assert self._executor is not None
            futures = [
                (self._executor.submit(fn, tasks[i]), i) for i in pending
            ]
            requeue: List[int] = []
            pool_broke: Optional[BaseException] = None
            for future, i in futures:
                if pool_broke is not None:
                    # The pool is dead; keep whatever finished cleanly
                    # and reassign the rest after the respawn.
                    if future.done() and future.exception() is None:
                        results[i] = future.result()
                    else:
                        requeue.append(i)
                    continue
                try:
                    results[i] = future.result()
                # Accounted after the drain loop: failure budget, pool
                # respawn, or degradation.  # repro: allow[swallow]
                except BrokenProcessPool as exc:
                    pool_broke = exc
                    requeue.append(i)
                except Exception as exc:
                    attempts[i] += 1
                    if attempts[i] > self.max_chunk_retries:
                        return self._give_up(
                            f"chunk failed {attempts[i]} times: {exc}",
                            exc,
                            retry,
                        )
                    requeue.append(i)
                    self._sleep_backoff(attempts[i])
            if pool_broke is not None:
                self._failures += 1
                if self._failures > self.failure_budget:
                    return self._give_up(
                        f"process pool died {self._failures} times: "
                        f"{pool_broke}",
                        pool_broke,
                        retry,
                    )
                try:
                    self._respawn_pool()
                except (OSError, ValueError, FaultInjected) as exc:
                    return self._give_up(
                        f"pool respawn failed: {exc}", exc, retry
                    )
            pending = requeue
        return results

    def _respawn_pool(self) -> None:
        """Replace a dead executor, keeping the shared segments."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._make_executor()

    # -- the workload -------------------------------------------------
    def sigma_rows(
        self, graph: Graph, config: SimilarityConfig | None = None
    ) -> np.ndarray:
        """σ for every directed CSR edge (the index build's σ phase).

        Workers fill disjoint vertex-range slices of the shared
        ``sigma_out`` segment through the batched kernels; after the
        barrier the parent copies the assembled array out in one read.
        Because slot (u, v) is always computed by expanding v's row, the
        result is bitwise-identical to the sequential and thread paths.
        """
        config = config or SimilarityConfig()
        if graph.indices.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)

        def sequentialize():
            return self._fallback.sigma_rows(graph, config)

        if self._ensure_session(graph, config) is not None:
            return sequentialize()
        n = graph.num_vertices
        tasks = [
            (lo, min(lo + self.chunk_size, n))
            for lo in range(0, n, self.chunk_size)
        ]
        out = self._run_chunks(_sigma_row_chunk, tasks, sequentialize)
        if isinstance(out, _FallbackResult):
            return out.value
        assert self._shared is not None
        return self._shared.read_array("sigma_out")
