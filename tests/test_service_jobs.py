"""End-to-end scheduler acceptance: interleaved anytime slices.

This file carries the issue's E2E criteria at the scheduler layer:

* two concurrent jobs make *interleaved* progress (observable in
  ``slice_log``) and both finish with the exact sequential-scan result;
* a mid-run snapshot reports ``assigned_fraction`` strictly inside
  (0, 1) — the anytime contract, not a before/after artifact;
* pause → export → import into a *fresh* scheduler → resume finishes
  with the exact result (the suspended cursor survives the restart);
* priorities order the queue; failures are contained per-job;
* finished-job memory is bounded: the oldest terminal jobs are dropped
  beyond a fixed count and every terminal job releases its algorithm.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.core.anyscan import AnySCAN
from repro.core.config import AnyScanConfig
from repro.errors import ConfigError, ReproError
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.result import Clustering
from repro.service.jobs import _TERMINAL_JOB_LIMIT, JobScheduler, JobState

_POLL = 0.002
_DEADLINE = 60.0


def _algo(graph, mu, epsilon, *, alpha=32, beta=32):
    config = AnyScanConfig(
        mu=mu, epsilon=epsilon, alpha=alpha, beta=beta, record_costs=False
    )
    return AnySCAN(graph, config)


def _canonical(clustering):
    return clustering.canonical().labels


def _poll(predicate, what):
    deadline = time.monotonic() + _DEADLINE
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(_POLL)


def test_two_jobs_interleave_and_finish_exact():
    """One worker, two jobs: slices must alternate, results must match
    the sequential baseline exactly (canonical labels)."""
    g1, _ = lfr_graph(LFRParams(n=300, average_degree=8, max_degree=25, seed=1))
    g2 = gnm_random_graph(300, 1400, seed=2)
    with JobScheduler(workers=1, slice_iterations=1) as scheduler:
        job1 = scheduler.submit(_algo(g1, 3, 0.6), graph_name="g1")
        job2 = scheduler.submit(_algo(g2, 3, 0.5), graph_name="g2")
        info1 = scheduler.wait(job1, timeout=_DEADLINE)
        info2 = scheduler.wait(job2, timeout=_DEADLINE)
        assert info1["state"] == "done" and info2["state"] == "done"
        log = list(scheduler.slice_log)
        result1 = scheduler.result(job1)
        result2 = scheduler.result(job2)
    # Interleaving: while both jobs were live the round-robin must have
    # switched jobs between consecutive slices, not run head-of-line.
    first_done = min(len(log) - 1 - log[::-1].index(j) for j in (job1, job2))
    live_prefix = log[:first_done]
    switches = sum(
        1 for a, b in zip(live_prefix, live_prefix[1:]) if a != b
    )
    assert switches >= max(1, len(live_prefix) - 1 - 2), (
        f"slices did not interleave: {live_prefix}"
    )
    assert np.array_equal(_canonical(result1), _canonical(scan(g1, 3, 0.6)))
    assert np.array_equal(_canonical(result2), _canonical(scan(g2, 3, 0.5)))


def test_mid_run_snapshot_fraction_strictly_inside_unit_interval():
    graph, _ = lfr_graph(
        LFRParams(n=800, average_degree=10, max_degree=40, seed=3)
    )
    with JobScheduler(workers=1, slice_iterations=1) as scheduler:
        job = scheduler.submit(_algo(graph, 3, 0.5, alpha=16, beta=16))
        observed = []

        def saw_partial():
            snap = scheduler.snapshot(job)
            if 0.0 < snap.assigned_fraction < 1.0 and not snap.final:
                observed.append(snap)
                return True
            return scheduler.info(job)["finished"]

        _poll(saw_partial, "a mid-run snapshot")
        assert observed, "job finished without a partial snapshot"
        snap = observed[0]
        assert 0.0 < snap.assigned_fraction < 1.0
        assert not snap.final
        assert snap.labels.shape == (graph.num_vertices,)
        # Exercise the pause/resume path on the same live job.
        scheduler.pause(job)
        _poll(
            lambda: scheduler.info(job)["state"] in ("paused", "done"),
            "pause to land",
        )
        if scheduler.info(job)["state"] == "paused":
            scheduler.resume(job)
        assert scheduler.wait(job, timeout=_DEADLINE)["state"] == "done"
        expected = _canonical(scan(graph, 3, 0.5))
        assert np.array_equal(_canonical(scheduler.result(job)), expected)


def test_export_import_across_scheduler_restart():
    """A paused job revives in a fresh scheduler and finishes exactly."""
    graph, _ = lfr_graph(LFRParams(n=400, average_degree=9, max_degree=30, seed=4))
    exported = None
    with JobScheduler(workers=1, slice_iterations=1) as first:
        job = first.submit(
            _algo(graph, 3, 0.55, alpha=16, beta=16), graph_name="g"
        )
        _poll(
            lambda: first.info(job)["iterations"] >= 1
            or first.info(job)["finished"],
            "progress before pause",
        )
        first.pause(job)
        _poll(
            lambda: first.info(job)["state"] in ("paused", "done"),
            "pause to land",
        )
        assert first.info(job)["state"] == "paused"
        exported = first.export_job(job)
        mid_iterations = first.info(job)["iterations"]
    with JobScheduler(workers=2, slice_iterations=4) as second:
        revived = second.import_job(exported)
        info = second.info(revived)
        assert info["state"] == "paused"
        assert info["iterations"] == mid_iterations
        assert info["graph"] == "g"
        second.resume(revived)
        assert second.wait(revived, timeout=_DEADLINE)["state"] == "done"
        got = _canonical(second.result(revived))
    assert np.array_equal(got, _canonical(scan(graph, 3, 0.55)))


def test_import_renames_colliding_job_ids():
    graph = gnm_random_graph(60, 150, seed=5)
    with JobScheduler(workers=1) as scheduler:
        job = scheduler.submit(_algo(graph, 2, 0.5))
        scheduler.wait(job, timeout=_DEADLINE)
        # Build an export blob claiming the same id.
        with JobScheduler(workers=1) as other:
            twin = other.submit(_algo(graph, 2, 0.5))
            other.pause(twin)
            _poll(
                lambda: other.info(twin)["state"] in ("paused", "done"),
                "twin pause",
            )
            if other.info(twin)["state"] != "paused":
                pytest.skip("twin finished before it could be exported")
            blob = other.export_job(twin)
        revived = scheduler.import_job(blob)
        assert revived != twin or twin not in [
            j["job_id"] for j in scheduler.list_jobs()
        ]
        assert scheduler.info(revived)["state"] == "paused"


class _HeldAnySCAN(AnySCAN):
    """Parks the worker inside its first slice until ``release`` is set.

    The events are class attributes, so the scheduler's slice
    checkpoint still pickles the instance.
    """

    entered = threading.Event()
    release = threading.Event()

    def advance(self):
        type(self).entered.set()
        assert type(self).release.wait(_DEADLINE), "never released"
        return super().advance()


def test_priority_orders_the_ready_queue():
    """Among pending jobs the higher priority one runs to completion
    first; reprioritize on a paused job takes effect at resume."""
    graphs = [gnm_random_graph(240, 1100, seed=s) for s in (6, 7, 8)]
    _HeldAnySCAN.entered.clear()
    _HeldAnySCAN.release.clear()
    config = AnyScanConfig(
        mu=2, epsilon=0.5, alpha=32, beta=32, record_costs=False
    )
    with JobScheduler(workers=1, slice_iterations=1) as scheduler:
        # The single worker is busy in `blocker` until both pauses
        # land: `low` outranks `blocker` and must not get a slice first.
        blocker = scheduler.submit(
            _HeldAnySCAN(graphs[0], config), priority=0
        )
        assert _HeldAnySCAN.entered.wait(_DEADLINE)
        low = scheduler.submit(_algo(graphs[1], 2, 0.5), priority=5)
        high = scheduler.submit(_algo(graphs[2], 2, 0.5), priority=1)
        scheduler.pause(low)
        scheduler.pause(high)
        _poll(
            lambda: scheduler.info(low)["state"] == "paused"
            and scheduler.info(high)["state"] == "paused",
            "both paused",
        )
        _HeldAnySCAN.release.set()
        # Swap the order while parked: `high` now outranks `low`.
        scheduler.reprioritize(high, 7)
        scheduler.resume(high)
        scheduler.resume(low)
        for job in (blocker, low, high):
            assert scheduler.wait(job, timeout=_DEADLINE)["state"] == "done"
        log = list(scheduler.slice_log)
    high_slices = [i for i, j in enumerate(log) if j == high]
    low_slices = [i for i, j in enumerate(log) if j == low]
    assert high_slices and low_slices
    assert max(high_slices) < min(low_slices), (
        "priority 7 job should finish before the priority 5 job starts"
    )


class _ExplodingAnySCAN(AnySCAN):
    def advance(self):
        raise RuntimeError("deliberate mid-slice failure")


def test_failures_are_contained_per_job():
    graph = gnm_random_graph(50, 120, seed=9)
    done = []
    with JobScheduler(workers=1, on_done=done.append) as scheduler:
        config = AnyScanConfig(mu=2, epsilon=0.5, alpha=8, beta=8)
        bad = scheduler.submit(_ExplodingAnySCAN(graph, config))
        good = scheduler.submit(_algo(graph, 2, 0.5))
        assert scheduler.wait(bad, timeout=_DEADLINE)["state"] == "failed"
        assert scheduler.wait(good, timeout=_DEADLINE)["state"] == "done"
        info = scheduler.info(bad)
        assert "deliberate mid-slice failure" in str(info["error"])
        with pytest.raises(ReproError):
            scheduler.result(bad)
    states = {job.job_id: job.state for job in done}
    assert states[bad] is JobState.FAILED
    assert states[good] is JobState.DONE


def test_cancel_stops_a_running_job():
    graph = gnm_random_graph(800, 4000, seed=10)
    with JobScheduler(workers=1, slice_iterations=1) as scheduler:
        job = scheduler.submit(_algo(graph, 3, 0.5, alpha=16, beta=16))
        _poll(
            lambda: scheduler.info(job)["iterations"] >= 1
            or scheduler.info(job)["finished"],
            "job to start",
        )
        scheduler.cancel(job)
        info = scheduler.wait(job, timeout=_DEADLINE)
        assert info["state"] in ("cancelled", "done")
        if info["state"] == "cancelled":
            with pytest.raises(ReproError):
                scheduler.result(job)
            # Terminal jobs reject further lifecycle transitions.
            with pytest.raises(ReproError):
                scheduler.resume(job)
            with pytest.raises(ReproError):
                scheduler.reprioritize(job, 3)


def test_finished_algorithm_submits_as_done():
    graph = gnm_random_graph(40, 90, seed=11)
    algorithm = _algo(graph, 2, 0.5)
    expected = algorithm.run()
    with JobScheduler(workers=1) as scheduler:
        job = scheduler.submit(algorithm)
        info = scheduler.info(job)
        assert info["state"] == "done"
        assert np.array_equal(
            scheduler.result(job).labels, expected.labels
        )


def test_scheduler_validation_and_shutdown():
    with pytest.raises(ConfigError):
        JobScheduler(workers=0)
    with pytest.raises(ConfigError):
        JobScheduler(slice_iterations=0)
    scheduler = JobScheduler(workers=1)
    with pytest.raises(ReproError):
        scheduler.info("job-404")
    scheduler.close()
    scheduler.close()  # idempotent
    graph = gnm_random_graph(20, 40, seed=12)
    with pytest.raises(ReproError):
        scheduler.submit(_algo(graph, 2, 0.5))


def _completed(scheduler):
    return scheduler.submit_completed(
        Clustering(labels=np.zeros(4, dtype=np.int64)), mu=2, epsilon=0.5
    )


def test_terminal_jobs_are_capped_oldest_first():
    with JobScheduler(workers=1) as scheduler:
        ids = [_completed(scheduler) for _ in range(_TERMINAL_JOB_LIMIT + 5)]
        kept = [job["job_id"] for job in scheduler.list_jobs()]
        assert kept == ids[5:]
        assert scheduler.state_counts() == {"done": _TERMINAL_JOB_LIMIT}


def test_a_dropped_job_answers_like_an_unknown_one():
    with JobScheduler(workers=1) as scheduler:
        dropped = _completed(scheduler)
        for _ in range(_TERMINAL_JOB_LIMIT):
            _completed(scheduler)
        assert dropped not in scheduler
        for read in (scheduler.info, scheduler.snapshot, scheduler.result):
            with pytest.raises(ReproError, match="unknown job"):
                read(dropped)
        with pytest.raises(ReproError, match="unknown job"):
            scheduler.cancel(dropped)


def test_non_terminal_jobs_are_never_dropped():
    """A running, a pending and a paused job outlive a flood of finished
    ones; the finished ones alone are capped."""
    graph = gnm_random_graph(60, 150, seed=14)
    config = AnyScanConfig(
        mu=2, epsilon=0.5, alpha=8, beta=8, record_costs=False
    )
    _HeldAnySCAN.entered.clear()
    _HeldAnySCAN.release.clear()
    with JobScheduler(workers=1, slice_iterations=1) as scheduler:
        running = scheduler.submit(_HeldAnySCAN(graph, config))
        assert _HeldAnySCAN.entered.wait(_DEADLINE)
        pending = scheduler.submit(_algo(graph, 2, 0.5))
        paused = scheduler.submit(_algo(graph, 2, 0.5))
        scheduler.pause(paused)
        for _ in range(2 * _TERMINAL_JOB_LIMIT):
            _completed(scheduler)
        states = {j["job_id"]: j["state"] for j in scheduler.list_jobs()}
        assert states[running] == "running"
        assert states[pending] == "pending"
        assert states[paused] == "paused"
        assert list(states.values()).count("done") == _TERMINAL_JOB_LIMIT
        _HeldAnySCAN.release.set()
        for job in (running, pending):
            assert scheduler.wait(job, timeout=_DEADLINE)["state"] == "done"
        assert scheduler.export_job(paused)


def test_terminal_jobs_release_their_algorithm():
    """on_done still reads the run's statistics; afterwards the record
    keeps only the result, not the whole AnySCAN."""
    graph = gnm_random_graph(60, 150, seed=15)
    seen = []

    def on_done(job):
        seen.append(job.algorithm.statistics()["sigma_evaluations"])

    with JobScheduler(workers=1, on_done=on_done) as scheduler:
        job = scheduler.submit(_algo(graph, 2, 0.5))
        assert scheduler.wait(job, timeout=_DEADLINE)["state"] == "done"
        record = scheduler._jobs[job]
        assert record.algorithm is None
        assert record.result is not None
    assert seen and seen[0] > 0
