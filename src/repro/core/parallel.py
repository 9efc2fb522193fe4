"""Parallel anySCAN: Section III-B on the simulated multicore machine.

The parallel algorithm performs exactly the same similarity work as the
sequential one — Figure 4 only reorganizes each block iteration into
``parallel for`` loops with one atomic per neighbor update and one
critical section per ``Union``.  We therefore run the (instrumented)
sequential algorithm once, collecting the per-task cost log, and replay
it on :class:`~repro.parallel.simulator.MulticoreSimulator` machines with
different thread counts.  This reproduces the quantities of Figures
10–14: cumulative runtime per anytime iteration for t threads, final
speedups, and the sensitivity to block sizes, parameters, and graph shape.

The "ideal" comparison algorithm of Figure 11 is also replayed here: all
edge σ evaluations as one embarrassingly parallel block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.ideal import ideal_edge_costs
from repro.core.anyscan import AnySCAN
from repro.core.config import AnyScanConfig
from repro.errors import SimulationError
from repro.graph.csr import Graph
from repro.parallel.costs import IterationCosts, ParallelBlock
from repro.parallel.simulator import MachineSpec, MulticoreSimulator
from repro.parallel.threads import ThreadBackend
from repro.result import Clustering
from repro.similarity.weighted import SimilarityConfig

__all__ = [
    "ParallelRunReport",
    "ParallelAnySCAN",
    "ideal_speedups",
    "MeasuredSpeedup",
    "measured_sigma_speedups",
]


@dataclass(frozen=True)
class ParallelRunReport:
    """Simulated timing of one anySCAN run at one thread count."""

    threads: int
    cumulative_times: np.ndarray  # after each anytime iteration
    total_time: float
    steps: List[str]

    def time_at_iteration(self, index: int) -> float:
        return float(self.cumulative_times[index])


class ParallelAnySCAN:
    """Execute anySCAN once; replay its parallel structure at any width.

    Parameters
    ----------
    graph, config:
        As for :class:`~repro.core.anyscan.AnySCAN`; ``record_costs`` is
        forced on.
    machine:
        Machine template (cores per socket, atomic/critical costs, NUMA
        penalty, scheduling policy); thread count is overridden per query.

    Examples
    --------
    >>> par = ParallelAnySCAN(graph, AnyScanConfig(mu=5, epsilon=0.5))
    >>> par.run()
    >>> par.speedups([2, 4, 8, 16])
    {2: 1.9..., 4: 3.7..., 8: 7.1..., 16: 12.8...}
    """

    def __init__(
        self,
        graph: Graph,
        config: AnyScanConfig | None = None,
        *,
        machine: MachineSpec | None = None,
    ) -> None:
        base = config or AnyScanConfig()
        if not base.record_costs:
            base = _with_record_costs(base)
        self.config = base
        self.graph = graph
        self.machine_template = machine or MachineSpec(threads=1)
        self.algorithm = AnySCAN(graph, base)
        self._result: Clustering | None = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> Clustering:
        """Execute the algorithm (sequentially), recording the cost log."""
        if self._result is None:
            self._result = self.algorithm.run()
        return self._result

    @property
    def cost_log(self) -> List[IterationCosts]:
        self._require_run()
        return self.algorithm.cost_log

    def _require_run(self) -> None:
        if self._result is None:
            raise SimulationError("call run() before querying simulations")

    # ------------------------------------------------------------------
    # simulation queries
    # ------------------------------------------------------------------
    def machine(self, threads: int) -> MachineSpec:
        """Machine spec derived from the template with ``threads`` threads."""
        t = self.machine_template
        return MachineSpec(
            threads=threads,
            cores_per_socket=t.cores_per_socket,
            atomic_cost=t.atomic_cost,
            critical_cost=t.critical_cost,
            schedule_overhead=t.schedule_overhead,
            numa_penalty=t.numa_penalty,
            schedule=t.schedule,
            chunk_size=t.chunk_size,
        )

    def report(self, threads: int) -> ParallelRunReport:
        """Cumulative simulated runtime after each anytime iteration."""
        self._require_run()
        sim = MulticoreSimulator(self.machine(threads))
        times = sim.simulate_run(self.cost_log)
        return ParallelRunReport(
            threads=threads,
            cumulative_times=times,
            total_time=float(times[-1]) if times.shape[0] else 0.0,
            steps=[record.step for record in self.cost_log],
        )

    def speedups(self, thread_counts: Sequence[int]) -> Dict[int, float]:
        """Final speedup over the single-thread simulation (Figure 10 right)."""
        baseline = self.report(1).total_time
        out: Dict[int, float] = {}
        for t in thread_counts:
            total = self.report(int(t)).total_time
            out[int(t)] = baseline / total if total > 0 else float("nan")
        return out

    def speedups_per_iteration(
        self, thread_counts: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Speedup of the cumulative time at every iteration (Figure 10 left)."""
        base = self.report(1).cumulative_times
        out: Dict[int, np.ndarray] = {}
        for t in thread_counts:
            times = self.report(int(t)).cumulative_times
            with np.errstate(divide="ignore", invalid="ignore"):
                out[int(t)] = np.where(times > 0, base / times, np.nan)
        return out

    def sequential_fraction(self) -> float:
        """Share of total work in the sequential parts (Amdahl check)."""
        self._require_run()
        total = sum(record.total_work for record in self.cost_log)
        seq = sum(record.sequential_cost for record in self.cost_log)
        return seq / total if total > 0 else 0.0


def ideal_speedups(
    graph: Graph,
    thread_counts: Sequence[int],
    *,
    machine: MachineSpec | None = None,
) -> Dict[int, float]:
    """Speedups of the Figure 11 ideal algorithm on the same machine model.

    One parallel block holding every edge's σ cost, no atomics, no
    critical sections, no sequential tail.
    """
    template = machine or MachineSpec(threads=1)
    block = ParallelBlock(name="ideal/all-edges")
    block.task_costs = [float(c) for c in ideal_edge_costs(graph)]
    record = IterationCosts(step="ideal", index=0)
    record.blocks.append(block)

    def total_for(threads: int) -> float:
        spec = MachineSpec(
            threads=threads,
            cores_per_socket=template.cores_per_socket,
            atomic_cost=template.atomic_cost,
            critical_cost=template.critical_cost,
            schedule_overhead=template.schedule_overhead,
            numa_penalty=template.numa_penalty,
            schedule=template.schedule,
            chunk_size=template.chunk_size,
        )
        return MulticoreSimulator(spec).total_time([record])

    baseline = total_for(1)
    return {
        int(t): baseline / total_for(int(t)) if total_for(int(t)) > 0 else 0.0
        for t in thread_counts
    }


# ----------------------------------------------------------------------
# measured (real-hardware) companion to the simulated speedups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredSpeedup:
    """Wall-clock measurement of the σ phase at one thread count."""

    workers: int
    seconds: float
    speedup: float     # over the first (usually 1-thread) measurement


def measured_sigma_speedups(
    graph: Graph,
    worker_counts: Sequence[int],
    *,
    backend: Optional[ThreadBackend] = None,
    config: Optional[SimilarityConfig] = None,
    repeats: int = 1,
) -> List[MeasuredSpeedup]:
    """Measured wall-clock speedups of the σ-evaluation phase.

    The simulator above *predicts* scalability from cost logs; this
    times the same embarrassingly parallel phase (σ for every edge, in
    vertex-range row blocks — the index build's σ pass) for real on a
    :class:`~repro.parallel.threads.ThreadBackend`, giving the
    real-hardware column next to Figures 10–12.  ``backend`` sets the
    block geometry (``None`` is the default ``ThreadBackend()``); its
    thread count is replaced by each entry of ``worker_counts``.  The
    first entry is the baseline, so pass ``[1, 2, 4, ...]``.
    ``repeats`` keeps the best of N timings to damp scheduler noise.
    """
    if not worker_counts:
        raise SimulationError("need at least one worker count")
    if repeats < 1:
        raise SimulationError("repeats must be >= 1")
    template = backend or ThreadBackend()
    out: List[MeasuredSpeedup] = []
    baseline: Optional[float] = None
    for count in worker_counts:
        runner = replace(template, threads=int(count))
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            runner.sigma_rows(graph, config)
            best = min(best, time.perf_counter() - started)
        if baseline is None:
            baseline = best
        out.append(
            MeasuredSpeedup(
                workers=int(count),
                seconds=best,
                speedup=baseline / best if best > 0 else float("nan"),
            )
        )
    return out


def _with_record_costs(config: AnyScanConfig) -> AnyScanConfig:
    return AnyScanConfig(
        mu=config.mu,
        epsilon=config.epsilon,
        alpha=config.alpha,
        beta=config.beta,
        seed=config.seed,
        sort_candidates=config.sort_candidates,
        similarity=config.similarity,
        validate_states=config.validate_states,
        record_costs=True,
    )
