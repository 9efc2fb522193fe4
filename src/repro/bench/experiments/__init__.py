"""Experiment registry: one entry per paper table/figure plus ablations."""

from typing import Callable, Dict, List

from repro.bench.experiments.ablations import (
    ablation_pruning,
    ablation_schedule,
    ablation_sorting,
)
from repro.bench.experiments.extensions import ext_dynamic, ext_explorer
from repro.bench.experiments.fig05 import fig5
from repro.bench.experiments.fig06 import fig6
from repro.bench.experiments.fig07 import fig7
from repro.bench.experiments.fig08 import fig8
from repro.bench.experiments.fig09 import fig9
from repro.bench.experiments.fig10 import fig10
from repro.bench.experiments.fig11 import fig11
from repro.bench.experiments.fig12 import fig12
from repro.bench.experiments.fig13 import fig13
from repro.bench.experiments.fig14 import fig14
from repro.bench.experiments.kernels import kernels
from repro.bench.experiments.speedup import speedup
from repro.bench.experiments.tables import tab1, tab2
from repro.bench.harness import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment"]

#: Every reproducible artifact, keyed by experiment id.
EXPERIMENTS: Dict[str, Callable[..., List[ExperimentResult]]] = {
    "tab1": tab1,
    "tab2": tab2,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "speedup": speedup,
    "kernels": kernels,
    "ablation_pruning": ablation_pruning,
    "ablation_sorting": ablation_sorting,
    "ablation_schedule": ablation_schedule,
    "ext_explorer": ext_explorer,
    "ext_dynamic": ext_dynamic,
}


def run_experiment(
    exp_id: str, *, scale: str = "bench", quick: bool = False
) -> List[ExperimentResult]:
    """Run one experiment by id and return its result tables."""
    from repro.errors import ExperimentError

    fn = EXPERIMENTS.get(exp_id)
    if fn is None:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return fn(scale=scale, quick=quick)
