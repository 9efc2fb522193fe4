"""Execution-backend registry: ``"thread" | "process" | "auto"``.

One small indirection shared by :mod:`repro.core.parallel`, the bench
harness, and the CLI, so every caller selects real-execution backends
the same way:

* ``"thread"``  — :class:`~repro.parallel.threads.ThreadBackend`
  (GIL-bound; result parity, no wall-clock speedup on CPython);
* ``"process"`` — :class:`~repro.parallel.processes.ProcessBackend`
  (shared-memory process pool; real multicore speedups);
* ``"auto"``    — process when the machine has more than one core and
  shared memory works, thread otherwise.

Both backend classes expose the one workload, ``sigma_rows(graph,
config)`` (σ for every directed CSR edge), so callers sweep backends
through a single code path without dispatching on the class.
"""

from __future__ import annotations

import os
from typing import Union

from repro.errors import SimulationError
from repro.parallel.processes import ProcessBackend, shared_memory_available
from repro.parallel.threads import ThreadBackend

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "resolve_backend_name",
    "create_backend",
    "backend_kind",
    "close_backend",
]

#: Names accepted everywhere a backend is selected.
BACKEND_NAMES = ("thread", "process", "auto")

Backend = Union[ThreadBackend, ProcessBackend]


def resolve_backend_name(name: str = "auto") -> str:
    """Resolve a registry name to ``"thread"`` or ``"process"``."""
    if name not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown backend {name!r}; one of {BACKEND_NAMES}"
        )
    if name != "auto":
        return name
    cores = os.cpu_count() or 1
    if cores > 1 and shared_memory_available():
        return "process"
    return "thread"


def create_backend(
    name: str = "auto",
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> Backend:
    """Build the backend object a registry name stands for."""
    resolved = resolve_backend_name(name)
    if resolved == "thread":
        return ThreadBackend(
            threads=workers or (os.cpu_count() or 1),
            chunk_size=chunk_size or 64,
        )
    return ProcessBackend(workers=workers, chunk_size=chunk_size or 256)


def backend_kind(backend: Backend) -> str:
    """Effective kind of a backend object (fallback-aware)."""
    if isinstance(backend, ProcessBackend):
        return backend.kind
    return "thread"


def close_backend(backend: Backend) -> None:
    """Release backend resources (no-op for thread backends)."""
    if isinstance(backend, ProcessBackend):
        backend.close()
