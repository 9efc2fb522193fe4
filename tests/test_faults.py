"""Unit tests for the deterministic fault-injection framework."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.faults import (
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
from repro.faults.corruption import CORRUPTION_MODES, corrupt_file

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no process-wide plan armed."""
    disarm()
    yield
    disarm()


class TestFaultRule:
    def test_defaults_are_single_shot_raise(self):
        rule = FaultRule(site="a.b")
        assert rule.kind == "raise"
        assert rule.times == 1
        assert rule.probability == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"site": ""},
            {"site": "a", "kind": "explode"},
            {"site": "a", "exception": "SystemExit"},
            {"site": "a", "after": -1},
            {"site": "a", "times": 0},
            {"site": "a", "probability": 1.5},
            {"site": "a", "delay": -0.1},
        ],
    )
    def test_validation_rejects_bad_rules(self, kwargs):
        with pytest.raises(ConfigError):
            FaultRule(**kwargs)

    def test_site_matching_exact_and_glob(self):
        assert FaultRule(site="index.load").matches("index.load")
        assert not FaultRule(site="index.load").matches("index.loader")
        assert FaultRule(site="process.*").matches("process.segment.create")
        assert not FaultRule(site="process.*").matches("index.load")


class TestFaultPlan:
    def test_after_and_times_semantics(self):
        plan = FaultPlan([FaultRule(site="s", after=2, times=2)])
        plan.trigger("s")  # visit 1: below threshold
        plan.trigger("s")  # visit 2: below threshold
        with pytest.raises(FaultInjected):
            plan.trigger("s")
        with pytest.raises(FaultInjected):
            plan.trigger("s")
        plan.trigger("s")  # budget of 2 firings spent
        assert plan.fired_total() == 2

    def test_injected_exception_carries_site(self):
        plan = FaultPlan([FaultRule(site="index.load")])
        with pytest.raises(FaultInjected) as excinfo:
            plan.trigger("index.load")
        assert excinfo.value.site == "index.load"

    def test_registry_exception_kinds(self):
        plan = FaultPlan([FaultRule(site="s", exception="OSError")])
        with pytest.raises(OSError):
            plan.trigger("s")

    def test_delay_kind_sleeps_instead_of_raising(self):
        plan = FaultPlan([FaultRule(site="s", kind="delay", delay=0.01)])
        started = time.monotonic()
        plan.trigger("s")
        assert time.monotonic() - started >= 0.01
        assert plan.fired_total() == 1

    def test_probability_stream_is_deterministic(self):
        def decisions(plan):
            fired = []
            for _ in range(50):
                try:
                    plan.trigger("s")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        rule = FaultRule(site="s", probability=0.5, times=None)
        first = decisions(FaultPlan([rule], seed=7))
        second = decisions(FaultPlan([rule], seed=7))
        assert first == second
        assert any(first) and not all(first)

    def test_json_round_trip_preserves_behavior(self):
        plan = FaultPlan(
            [FaultRule(site="s", after=1, times=2, exception="ValueError")],
            seed=3,
            name="round-trip",
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.name == "round-trip"
        assert clone.seed == 3
        clone.trigger("s")
        with pytest.raises(ValueError):
            clone.trigger("s")

    def test_from_dict_rejects_malformed_plans(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"no": "rules"})
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"rules": [{"site": "s", "bogus": 1}]})
        with pytest.raises(ConfigError):
            FaultPlan.from_json("{not json")

    def test_report_counts_visits_and_firings(self):
        plan = FaultPlan([FaultRule(site="s")], name="r")
        plan.trigger("other")
        with pytest.raises(FaultInjected):
            plan.trigger("s")
        report = plan.report()
        assert report["name"] == "r"
        assert report["visits"] == {"other": 1, "s": 1}
        assert report["fired"] == [{"site": "s", "kind": "raise", "count": 1}]

    def test_random_plans_are_seeded_and_exit_restricted(self):
        sites = ["a", "b", "c"]
        one = FaultPlan.random(5, sites=sites, exit_sites=["a"])
        two = FaultPlan.random(5, sites=sites, exit_sites=["a"])
        assert one.to_dict() == two.to_dict()
        for seed in range(30):
            plan = FaultPlan.random(seed, sites=sites, exit_sites=["a"])
            for rule in plan.rules:
                assert rule.site in sites
                if rule.kind == "exit":
                    assert rule.site == "a"


class TestArming:
    def test_fault_point_is_inert_without_a_plan(self):
        assert active_plan() is None
        fault_point("anything")  # no-op

    def test_arm_and_disarm(self):
        plan = arm(FaultPlan([FaultRule(site="s")]))
        assert active_plan() is plan
        with pytest.raises(FaultInjected):
            fault_point("s")
        disarm()
        fault_point("s")

    def test_armed_context_restores_previous_plan(self):
        outer = arm(FaultPlan([], name="outer"))
        with armed(FaultPlan([FaultRule(site="s")], name="inner")) as inner:
            assert active_plan() is inner
            with pytest.raises(FaultInjected):
                fault_point("s")
        assert active_plan() is outer

    def test_env_var_arms_fresh_processes(self):
        plan = FaultPlan([FaultRule(site="env.site")], name="from-env")
        code = (
            "from repro.faults import active_plan\n"
            "plan = active_plan()\n"
            "print(plan.name, len(plan.rules))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env[FAULT_PLAN_ENV] = plan.to_json()
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["from-env", "1"]


class TestCorruption:
    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_each_mode_changes_the_file(self, mode, tmp_path):
        path = tmp_path / "payload.bin"
        original = bytes(range(256)) * 8
        path.write_bytes(original)
        note = corrupt_file(path, mode=mode, seed=1)
        assert str(path) in note
        assert path.read_bytes() != original

    def test_corruption_is_seeded(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            (tmp_path / name).write_bytes(bytes(range(256)) * 4)
        corrupt_file(tmp_path / "a.bin", mode="flip", seed=9)
        corrupt_file(tmp_path / "b.bin", mode="flip", seed=9)
        assert (
            tmp_path / "a.bin"
        ).read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_rejects_unknown_mode_and_empty_files(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"data")
        with pytest.raises(ConfigError):
            corrupt_file(path, mode="shred")
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(ConfigError):
            corrupt_file(empty)


def test_plan_env_round_trips_through_json(tmp_path):
    """A plan written for CI artifact upload reloads identically."""
    plan = FaultPlan.random(11, sites=["x", "y"], exit_sites=["x"])
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    clone = FaultPlan.from_dict(json.loads(path.read_text()))
    assert clone.to_dict() == plan.to_dict()
