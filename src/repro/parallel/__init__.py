"""Parallel execution: the simulated machine and the real-thread σ pass."""

from repro.parallel.costs import IterationCosts, ParallelBlock
from repro.parallel.processes import shared_memory_available
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
    "shared_memory_available",
    "atomic_add",
    "atomic_store",
    "atomic_max",
    "atomic_min",
    "critical",
    "critical_union",
]
