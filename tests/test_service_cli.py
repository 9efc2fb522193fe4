"""`repro serve` smoke: a real subprocess, a real socket.

Drives the CLI entry exactly as an operator would — including the
``--graph NAME=PATH`` preload — then clusters, snapshots, cancels, and
shuts the server down cleanly over HTTP (exit status 0).
"""

from __future__ import annotations

import os
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
    return line.removeprefix("serving on ")


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
