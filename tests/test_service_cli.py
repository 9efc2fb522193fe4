"""`repro serve` smoke: a real subprocess, a real socket.

Drives the CLI entry exactly as an operator would — including the
``--graph NAME=PATH`` preload — then clusters, snapshots, cancels, and
shuts the server down cleanly over HTTP (exit status 0).  The last
tests hold every serve mode (single process or ``--processes 2``, with
or without ``--data-dir``) to the same startup refusals and one SIGTERM
drain.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.scan import scan
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.result import Clustering
from repro.service.client import ServiceClient

pytestmark = pytest.mark.timeout(180)

REPO = Path(__file__).resolve().parents[1]


def _spawn(args):
    """Launch ``repro serve`` through the real CLI dispatch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    )
    code = (
        "import sys; from repro.cli import main; "
        "sys.exit(main(['serve'] + sys.argv[1:]))"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _read_url(proc):
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    # A fleet's banner goes on: " (2 processes, control http://...)".
    return line.removeprefix("serving on ").split(" ")[0]


def _finish(proc):
    try:
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()
    return code


def test_serve_cluster_snapshot_cancel_shutdown(tmp_path):
    graph, _ = lfr_graph(
        LFRParams(n=200, average_degree=8, max_degree=25, seed=31)
    )
    proc = _spawn(["--port", "0", "--workers", "2"])
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=60.0)
        assert client.health()["status"] == "ok"

        client.load_graph("smoke", graph=graph)
        body = client.cluster("smoke", 3, 0.6, wait=60.0)
        assert body["state"] == "done"
        expected = scan(graph, 3, 0.6).canonical().labels
        got = Clustering(
            labels=np.asarray(body["labels"], dtype=np.int64)
        ).canonical().labels
        assert np.array_equal(got, expected)

        # Repeat over the wire: served from the cache, zero σ evals.
        again = client.cluster("smoke", 3, 0.6)
        assert again["cached"] is True
        assert again["sigma_evaluations"] == 0

        job_id = client.cluster("smoke", 2, 0.4, alpha=8, beta=8)["job_id"]
        snap = client.snapshot(job_id, labels=False)
        assert 0.0 <= snap["assigned_fraction"] <= 1.0
        client.cancel(job_id)
        deadline = time.monotonic() + 60
        while not client.status(job_id)["finished"]:
            assert time.monotonic() < deadline

        client.shutdown()
    except BaseException:
        proc.kill()
        raise
    assert _finish(proc) == 0


def test_serve_preloads_edge_list_files(tmp_path):
    graph, _ = lfr_graph(
        LFRParams(n=100, average_degree=6, max_degree=20, seed=32)
    )
    path = tmp_path / "edges.txt"
    with open(path, "w") as handle:
        for u, v, _w in graph.edges():
            handle.write(f"{u} {v}\n")
    proc = _spawn(
        ["--port", "0", "--graph", f"pre={path}", "--build-cluster-index"]
    )
    try:
        url = _read_url(proc)
        client = ServiceClient(url, timeout=60.0)
        info = client.graph_info("pre")
        assert info["num_vertices"] == graph.num_vertices
        assert info["num_edges"] == graph.num_edges
        assert info["cluster_indexed"] is True
        assert info["auto_cluster_index"] is True
        assert client.cluster("pre", 2, 0.5, wait=60.0)["state"] == "done"
        client.shutdown()
    except BaseException:
        proc.kill()
        raise
    assert _finish(proc) == 0


def test_serve_rejects_malformed_graph_spec():
    proc = _spawn(["--port", "0", "--graph", "missing-equals-sign"])
    assert _finish(proc) == 2
    assert proc.returncode == 2


# ----------------------------------------------------------------------
# every serve mode: one refusal, one SIGTERM drain
# ----------------------------------------------------------------------
_MODES = {
    "single": [],
    "single-durable": ["--data-dir"],
    "fleet": ["--processes", "2"],
    "fleet-durable": ["--processes", "2", "--data-dir"],
}


def _mode_args(mode, data_dir):
    return [
        arg for flag in _MODES[mode]
        for arg in ([flag, data_dir] if flag == "--data-dir" else [flag])
    ]


def _edge_file(tmp_path):
    graph, _ = lfr_graph(
        LFRParams(n=100, average_degree=6, max_degree=20, seed=33)
    )
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v, _w in graph.edges()))
    return graph, path


def _segments():
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("repro_*")} if shm.is_dir() else set()


def _exit_and_stderr(proc, timeout=60):
    """Wait for ``proc`` to exit; returns (exit status, stderr)."""
    try:
        _, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, stderr


@pytest.mark.parametrize("mode", ["single-durable", "fleet-durable"])
def test_data_dir_holding_state_is_refused_the_same_in_every_mode(
    mode, tmp_path
):
    """Without ``--recover`` both durable modes exit 2 with the hint,
    no traceback and no leaked segment."""
    data_dir = str(tmp_path / "data")
    _, path = _edge_file(tmp_path)
    proc = _spawn(
        ["--port", "0", "--data-dir", data_dir, "--graph", f"g={path}"]
    )
    try:
        with ServiceClient(_read_url(proc), timeout=60.0) as client:
            client.shutdown()
    except BaseException:
        proc.kill()
        raise
    assert _finish(proc) == 0

    before = _segments()
    proc = _spawn(["--port", "0", *_mode_args(mode, data_dir)])
    code, stderr = _exit_and_stderr(proc)
    assert code == 2, stderr
    assert "pass --recover" in stderr
    assert "Traceback" not in stderr
    assert _segments() - before == set()


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_unreadable_preload_path_is_refused_in_every_mode(mode, tmp_path):
    """A ``--graph`` path that cannot be read exits 2 naming it, with
    no traceback and no leaked segment, after closing what was open."""
    missing = tmp_path / "absent" / "edges.txt"
    before = _segments()
    proc = _spawn([
        "--port", "0", "--graph", f"g={missing}",
        *_mode_args(mode, str(tmp_path / "data")),
    ])
    code, stderr = _exit_and_stderr(proc)
    assert code == 2, stderr
    assert f"cannot load --graph g={missing}" in stderr
    assert "Traceback" not in stderr
    assert _segments() - before == set()


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_sigterm_drains_every_mode(mode, tmp_path):
    """SIGTERM exits 0 without leaking a segment; a durable server's
    drain checkpoints, so ``--recover`` replays no WAL record."""
    graph, path = _edge_file(tmp_path)
    args = [
        "--port", "0", "--workers", "1", "--graph", f"g={path}",
        *_mode_args(mode, str(tmp_path / "data")),
    ]
    before = _segments()
    proc = _spawn(args)
    try:
        with ServiceClient(_read_url(proc), timeout=60.0) as client:
            assert client.graph_info("g")["num_edges"] == graph.num_edges
        proc.send_signal(signal.SIGTERM)
    except BaseException:
        proc.kill()
        raise
    code, stderr = _exit_and_stderr(proc)
    assert code == 0, stderr
    assert _segments() - before == set()
    if "--data-dir" not in args:
        return

    proc = _spawn(args + ["--recover"])
    try:
        with ServiceClient(_read_url(proc), timeout=60.0) as client:
            assert client.graph_info("g")["num_edges"] == graph.num_edges
            client.shutdown()
    except BaseException:
        proc.kill()
        raise
    code, stderr = _exit_and_stderr(proc)
    assert code == 0, stderr
    assert "+ 0 replayed WAL record(s)" in stderr
    assert "skipping preload of 'g': already recovered" in stderr
    assert _segments() - before == set()
