"""Seeded fault plans and the ``fault_point`` hook.

A :class:`FaultPlan` is the process-wide description of which named
fault sites misbehave.  Hardened code marks its failure-prone moments
with ``fault_point("some.site")``; when a plan is armed and one of its
rules matches the site, the hook raises a configured exception, kills
the process (``os._exit`` — the worker-death simulation), or sleeps (the
slow-kernel / stalled-client simulation).  With no plan armed the hook
is one global read and a ``None`` check.

Determinism: every probabilistic decision comes from a per-rule
``random.Random`` stream seeded from ``(plan seed, rule index, site)``,
and visit counters advance under one lock — the same plan against the
same call sequence makes the same decisions.  Plans serialize to JSON so
a failing chaos run can ship the exact plan that broke it.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError

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

#: Environment variable holding a JSON-serialized plan.  Read at import
#: time, so subprocesses spawned with it set (and fork children, which
#: inherit the armed module state directly) run under the same plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class FaultInjected(ReproError):
    """The default failure a fault rule raises at its site."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


#: Exception types a ``raise`` rule may name.  Restricted to a fixed
#: registry so plans stay serializable and cannot smuggle arbitrary
#: constructors through JSON.
_EXCEPTIONS: Dict[str, type] = {
    "FaultInjected": FaultInjected,
    "OSError": OSError,
    "MemoryError": MemoryError,
    "ValueError": ValueError,
    "TimeoutError": TimeoutError,
    "ConnectionResetError": ConnectionResetError,
    "RuntimeError": RuntimeError,
}

_KINDS = ("raise", "exit", "delay")


@dataclass(frozen=True)
class FaultRule:
    """One failure: where (site pattern), when (after/times/probability),
    and how (raise an exception, exit the process, or sleep)."""

    site: str
    kind: str = "raise"
    #: Visits of the site to let through before the rule becomes eligible.
    after: int = 0
    #: Maximum firings (``None`` = unlimited).
    times: Optional[int] = 1
    #: Chance an eligible visit fires, from the rule's seeded stream.
    probability: float = 1.0
    #: Sleep duration for ``kind="delay"`` (seconds).
    delay: float = 0.01
    #: Exception name (registry key) for ``kind="raise"``.
    exception: str = "FaultInjected"
    #: Process exit status for ``kind="exit"``.
    exit_code: int = 86

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigError("fault rule needs a non-empty site")
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.exception not in _EXCEPTIONS:
            raise ConfigError(
                f"unknown fault exception {self.exception!r}; expected one "
                f"of {sorted(_EXCEPTIONS)}"
            )
        if self.after < 0:
            raise ConfigError("after must be >= 0")
        if self.times is not None and self.times < 1:
            raise ConfigError("times must be >= 1 (or None for unlimited)")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ConfigError("delay must be >= 0")

    def matches(self, site: str) -> bool:
        if any(ch in self.site for ch in "*?["):
            return fnmatch.fnmatchcase(site, self.site)
        return site == self.site


class FaultPlan:
    """A set of :class:`FaultRule` with deterministic runtime state."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        *,
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self.name = str(name)
        self._lock = threading.Lock()
        self._visits: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(self.rules)
        self._streams = [
            random.Random(f"{self.seed}:{index}:{rule.site}")
            for index, rule in enumerate(self.rules)
        ]

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def trigger(self, site: str) -> None:
        """Record one visit of ``site`` and fire the first eligible rule."""
        action: Optional[FaultRule] = None
        with self._lock:
            visits = self._visits.get(site, 0) + 1
            self._visits[site] = visits
            for index, rule in enumerate(self.rules):
                if not rule.matches(site):
                    continue
                if visits <= rule.after:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if (
                    rule.probability < 1.0
                    and self._streams[index].random() >= rule.probability
                ):
                    continue
                self._fired[index] += 1
                action = rule
                break
        if action is None:
            return
        if action.kind == "delay":
            time.sleep(action.delay)
            return
        if action.kind == "exit":
            # The worker-death simulation: no cleanup, no excepthook —
            # exactly what an OOM kill looks like to the parent.
            os._exit(action.exit_code)
        exc_cls = _EXCEPTIONS[action.exception]
        if exc_cls is FaultInjected:
            raise FaultInjected(site)
        raise exc_cls(f"injected {action.exception} at {site!r}")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Visit counts and per-rule firing counts (JSON-ready)."""
        with self._lock:
            return {
                "name": self.name,
                "seed": self.seed,
                "visits": dict(self._visits),
                "fired": [
                    {"site": rule.site, "kind": rule.kind, "count": count}
                    for rule, count in zip(self.rules, self._fired)
                ],
            }

    def fired_total(self) -> int:
        with self._lock:
            return sum(self._fired)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [asdict(rule) for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict) or "rules" not in data:
            raise ConfigError("fault plan must be an object with 'rules'")
        specs = data["rules"]
        if not isinstance(specs, list):
            raise ConfigError("fault plan 'rules' must be a list")
        rules = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise ConfigError("each fault rule must be an object")
            unknown = set(spec) - {f for f in FaultRule.__dataclass_fields__}
            if unknown:
                raise ConfigError(
                    f"unknown fault rule fields {sorted(unknown)}"
                )
            rules.append(FaultRule(**spec))
        return cls(
            rules,
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            name=str(data.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # randomized plans for the chaos battery
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        sites: Sequence[str],
        exit_sites: Sequence[str] = (),
        max_rules: int = 3,
    ) -> "FaultPlan":
        """A seeded random plan over a site vocabulary.

        ``exit_sites`` lists the sites where process death is survivable
        (code running in a subprocess the test watches); ``kind="exit"``
        rules are only generated there — an exit anywhere else would
        kill the test process itself.
        """
        rng = random.Random(f"fault-plan:{int(seed)}")
        rules: List[FaultRule] = []
        for _ in range(rng.randint(1, max(1, int(max_rules)))):
            site = rng.choice(list(sites))
            kinds = ["raise", "raise", "delay"]
            if site in exit_sites:
                kinds.append("exit")
            kind = rng.choice(kinds)
            rules.append(
                FaultRule(
                    site=site,
                    kind=kind,
                    after=rng.randint(0, 4),
                    times=rng.randint(1, 3),
                    probability=rng.choice([1.0, 1.0, 0.5]),
                    delay=rng.uniform(0.001, 0.02),
                )
            )
        return cls(rules, seed=int(seed), name=f"random-{int(seed)}")


# ----------------------------------------------------------------------
# process-wide arming
# ----------------------------------------------------------------------
_ARM_LOCK = threading.Lock()
_ACTIVE: Optional[FaultPlan] = None


def fault_point(site: str) -> None:
    """Hardened code calls this at each named failure-prone moment.

    Zero-cost when nothing is armed: one module-global read and a
    ``None`` check.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.trigger(site)


def arm(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan; returns it."""
    global _ACTIVE
    with _ARM_LOCK:
        _ACTIVE = plan
    return plan


def disarm() -> None:
    """Deactivate fault injection process-wide."""
    global _ACTIVE
    with _ARM_LOCK:
        _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@dataclass
class armed:
    """Context manager arming a plan for one block, restoring the prior
    plan (usually ``None``) afterwards::

        with armed(FaultPlan([FaultRule(site="index.load")])):
            ...
    """

    plan: FaultPlan
    _previous: Optional[FaultPlan] = field(default=None, repr=False)

    def __enter__(self) -> FaultPlan:
        global _ACTIVE
        with _ARM_LOCK:
            self._previous = _ACTIVE
            _ACTIVE = self.plan
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        with _ARM_LOCK:
            _ACTIVE = self._previous


def _arm_from_env() -> None:
    text = os.environ.get(FAULT_PLAN_ENV)
    if text:
        arm(FaultPlan.from_json(text))


_arm_from_env()
