"""Named POSIX shared-memory segments and their lifecycle.

The service's zero-copy store (:class:`~repro.service.shm.StorePublisher`
and the attached readers of a ``--processes N`` fleet) publishes every
array through :class:`SegmentRegistry`, so one lifecycle story holds for
every ``/dev/shm`` entry the package creates:

* segments are named ``repro_{pid}_{label}_{token}`` so a leak check (or
  an operator) can attribute every stray segment to its creator;
* a registry owns its segments — :meth:`SegmentRegistry.close` (or the
  context manager, or the GC finalizer) closes **and unlinks** them,
  and :meth:`SegmentRegistry.release` retires single epochs;
* readers attach close-only (:meth:`SegmentRegistry.attach`,
  :func:`untrack_attachment`), so a dying reader never unlinks what the
  owner still serves;
* abnormal shutdown is covered: an atexit hook unlinks every live
  segment on interpreter exit (``KeyboardInterrupt`` included),
  :func:`install_signal_cleanup` extends that to SIGTERM, and after a
  SIGKILL the multiprocessing resource tracker reaps tracked segments.

Creating a segment is the ``process.segment.create`` fault site.  The
module also carries the process-wide :class:`DegradationEvent` channel
that execution tiers (e.g. :mod:`repro.local`) report through and the
service bridges into ``/metrics``.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults import fault_point

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
    "cleanup_live_segments",
    "install_signal_cleanup",
]


@dataclass(frozen=True)
class DegradationEvent:
    """Structured record of one execution-tier degradation.

    Delivered by :func:`emit_degradation` to every listener registered
    through :func:`add_degradation_listener` (the service bridges these
    into :class:`~repro.service.metrics.ServiceMetrics`).
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
    """Description of one shared-memory-backed array.

    A spec is the *attachment recipe* for a published array: segment
    name, shape, and dtype string.  It travels in the service's JSON
    manifests (the three fields serialised as a list) and is everything
    :meth:`SegmentRegistry.attach` needs.
    """

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


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

    The service's zero-copy :class:`~repro.service.shm.StorePublisher`
    (and its manifest block) funnels segment creation through one of
    these so the lifecycle story is identical everywhere: the registry owns its segments, `close`
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
