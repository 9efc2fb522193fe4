"""Shared-memory hygiene on abnormal shutdown.

PR 2's ProcessBackend publishes CSR arrays through POSIX shared memory;
a SIGTERM mid-job used to leak the segments (they outlive the process
in /dev/shm).  The backend now uses named ``repro_{pid}_…`` segments, a
live-object registry, an atexit hook, and an opt-in signal hook
(:func:`repro.parallel.processes.install_signal_cleanup`); these tests
assert a killed session leaves no stray segments behind."""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.processes import (
    SEGMENT_PREFIX,
    ProcessBackend,
    cleanup_live_segments,
    install_signal_cleanup,
)

_SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(_SHM_DIR),
    reason="POSIX shared memory not mounted at /dev/shm",
)


def _segments_of(pid: int) -> list:
    return glob.glob(os.path.join(_SHM_DIR, f"{SEGMENT_PREFIX}_{pid}_*"))


def test_segments_are_named_and_cleaned_in_process():
    graph = gnm_random_graph(120, 480, seed=2)
    backend = ProcessBackend(workers=2)
    try:
        backend.sigma_rows(graph)
        if backend.kind != "process":
            pytest.skip("process pool unavailable; thread fallback active")
        assert _segments_of(os.getpid())
    finally:
        backend.close()
    assert not _segments_of(os.getpid())


def test_cleanup_live_segments_sweeps_open_backends():
    graph = gnm_random_graph(100, 400, seed=3)
    backend = ProcessBackend(workers=2)
    try:
        backend.sigma_rows(graph)
        if backend.kind != "process":
            pytest.skip("process pool unavailable; thread fallback active")
        assert _segments_of(os.getpid())
        assert cleanup_live_segments() > 0
        assert not _segments_of(os.getpid())
    finally:
        backend.close()


def test_install_signal_cleanup_restores_previous_handler():
    sentinel = []

    def previous(signum, frame):
        sentinel.append(signum)

    old = signal.signal(signal.SIGUSR1, previous)
    try:
        installed = install_signal_cleanup(signals=(signal.SIGUSR1,))
        assert [signum for signum, _ in installed] == [signal.SIGUSR1]
        os.kill(os.getpid(), signal.SIGUSR1)
        # The hook cleans segments, restores `previous`, and re-raises.
        assert sentinel == [signal.SIGUSR1]
    finally:
        signal.signal(signal.SIGUSR1, old)


_CHILD = textwrap.dedent(
    """
    import os, sys, threading, time
    from repro.graph.generators.random_graphs import gnm_random_graph
    from repro.parallel.processes import ProcessBackend, install_signal_cleanup

    install_signal_cleanup()
    graph = gnm_random_graph(400, 1600, seed=1)
    backend = ProcessBackend(workers=2)
    backend.sigma_rows(graph)
    if backend.kind != "process":
        print("FALLBACK", flush=True)
        sys.exit(0)

    def spin():
        while True:
            backend.sigma_rows(graph)

    threading.Thread(target=spin, daemon=True).start()
    print("READY", flush=True)
    time.sleep(60)
    """
)


def test_sigkill_parent_mid_job_leaves_no_stray_segments():
    """SIGKILL the parent mid-job; /dev/shm must still come back clean.

    SIGKILL runs no handler and no atexit hook, so this path cannot be
    cleaned by the parent: the guarantee comes from the worker-side
    parent watchdog (orphaned workers exit when they are reparented)
    plus the multiprocessing resource tracker, which sweeps every
    registered segment once the last pipe holder is gone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        if line == "FALLBACK":
            proc.wait(timeout=30)
            pytest.skip("process pool unavailable in this environment")
        assert line == "READY"
        deadline = time.monotonic() + 10
        while not _segments_of(proc.pid):
            assert time.monotonic() < deadline, "child published no segments"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        # Watchdog poll (0.5s) + tracker sweep; allow generous slack.
        deadline = time.monotonic() + 20
        while _segments_of(proc.pid):
            assert time.monotonic() < deadline, (
                f"stray segments: {_segments_of(proc.pid)}"
            )
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


def test_sigterm_mid_job_leaves_no_stray_segments(tmp_path):
    """Kill a busy session with SIGTERM; /dev/shm must come back clean."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        if line == "FALLBACK":
            proc.wait(timeout=30)
            pytest.skip("process pool unavailable in this environment")
        assert line == "READY"
        # The child is mid-job now; its segments are visible.
        deadline = time.monotonic() + 10
        while not _segments_of(proc.pid):
            assert time.monotonic() < deadline, "child published no segments"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        # Re-delivery preserved the death-by-signal exit status.
        assert proc.returncode == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while _segments_of(proc.pid):
            assert time.monotonic() < deadline, (
                f"stray segments: {_segments_of(proc.pid)}"
            )
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
