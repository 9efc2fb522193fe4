"""Shared-memory hygiene on abnormal shutdown.

The service's store publisher ships arrays through POSIX shared memory
owned by :class:`~repro.parallel.processes.SegmentRegistry`; segments
outlive their process in /dev/shm unless something unlinks them.  The
registry names them ``repro_{pid}_…`` and keeps a live-registry set
swept by an atexit hook and an opt-in signal hook
(:func:`repro.parallel.processes.install_signal_cleanup`); after a
SIGKILL the multiprocessing resource tracker reaps tracked segments.
These tests assert a killed session leaves no stray segments behind."""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import numpy as np

from repro.parallel.processes import (
    SEGMENT_PREFIX,
    SegmentRegistry,
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
    registry = SegmentRegistry()
    try:
        spec = registry.publish("indptr", np.arange(121, dtype=np.int64))
        assert spec.shm_name.startswith(f"{SEGMENT_PREFIX}_{os.getpid()}_")
        assert _segments_of(os.getpid())
    finally:
        registry.close()
    assert not _segments_of(os.getpid())


def test_cleanup_live_segments_sweeps_open_registries():
    registry = SegmentRegistry()
    try:
        registry.publish("sigmas", np.ones(400))
        registry.create_block("manifest", 4096)
        assert len(_segments_of(os.getpid())) == 2
        assert cleanup_live_segments() > 0
        assert registry.closed
        assert not _segments_of(os.getpid())
    finally:
        registry.close()


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
    import threading, time
    from repro.graph.generators.random_graphs import gnm_random_graph
    from repro.parallel.processes import SegmentRegistry, install_signal_cleanup
    from repro.parallel.threads import ThreadBackend
    from repro.similarity.index import EdgeSimilarityIndex

    install_signal_cleanup()
    graph = gnm_random_graph(400, 1600, seed=1)
    registry = SegmentRegistry()
    for label in ("indptr", "indices", "weights"):
        registry.publish(label, getattr(graph, label))
    registry.publish("sigmas", EdgeSimilarityIndex.build(graph).sigmas)

    def spin():
        # A σ pass keeps the process busy while its segments are live.
        while True:
            ThreadBackend(threads=2, chunk_size=16).sigma_rows(graph)

    threading.Thread(target=spin, daemon=True).start()
    print("READY", flush=True)
    time.sleep(60)
    """
)


def test_sigkill_parent_mid_job_leaves_no_stray_segments():
    """SIGKILL the owner mid-job; /dev/shm must still come back clean.

    SIGKILL runs no handler and no atexit hook, so this path cannot be
    cleaned by the owner: the guarantee comes from the multiprocessing
    resource tracker, which sweeps every registered segment once the
    last holder of its pipe is gone."""
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
        assert line == "READY"
        deadline = time.monotonic() + 10
        while not _segments_of(proc.pid):
            assert time.monotonic() < deadline, "child published no segments"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        # The tracker sweeps once it sees EOF; allow generous slack.
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
