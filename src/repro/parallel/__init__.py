"""Parallel execution: simulated machine, real threads, real processes."""

from repro.parallel.backends import (
    BACKEND_NAMES,
    backend_kind,
    close_backend,
    create_backend,
    resolve_backend_name,
)
from repro.parallel.costs import IterationCosts, ParallelBlock
from repro.parallel.processes import (
    ProcessBackend,
    SharedGraph,
    shared_memory_available,
)
from repro.parallel.sync import (
    atomic_add,
    atomic_max,
    atomic_min,
    atomic_store,
    critical,
    critical_union,
)
from repro.parallel.threads import ThreadBackend
from repro.parallel.simulator import (
    BlockTiming,
    MachineSpec,
    MulticoreSimulator,
    speedup_curve,
)

__all__ = [
    "ParallelBlock",
    "IterationCosts",
    "MachineSpec",
    "BlockTiming",
    "MulticoreSimulator",
    "speedup_curve",
    "ThreadBackend",
    "ProcessBackend",
    "SharedGraph",
    "shared_memory_available",
    "BACKEND_NAMES",
    "resolve_backend_name",
    "create_backend",
    "backend_kind",
    "close_backend",
    "atomic_add",
    "atomic_store",
    "atomic_max",
    "atomic_min",
    "critical",
    "critical_union",
]
