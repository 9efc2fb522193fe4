"""Deterministic fault injection for failure-hardening tests.

Production deployments of the anytime-clustering stack must survive
worker crashes, shared-memory exhaustion, corrupt index files, and slow
or failing σ kernels.  This package provides the *controlled* version of
those disasters:

* :class:`FaultRule` / :class:`FaultPlan` — a seeded, serializable
  description of which named *fault sites* fail, when, and how;
* :func:`fault_point` — the lightweight hook the hardened layers call at
  each site; a single global read and ``None`` check when no plan is
  armed, so production code pays nothing;
* :func:`arm` / :func:`disarm` / :class:`armed` — process-wide plan
  activation (also via the :data:`FAULT_PLAN_ENV` environment variable,
  which is how subprocess tests inherit a plan);
* :mod:`repro.faults.corruption` — seeded on-disk corruption helpers for
  the index-file battery.

The chaos suite (``pytest -m chaos``) runs the cross-backend
differential battery under randomized plans and asserts the invariant
the hardened stack guarantees by construction: injected faults *raise*,
*kill*, or *delay* — they never corrupt data — so any run that reports
success is byte-identical to the sequential reference.
"""

from repro.faults.plan import (
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    arm,
    armed,
    disarm,
    fault_point,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "arm",
    "armed",
    "disarm",
    "fault_point",
]
