"""Toy-scale smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tenth of its graph size for two seconds, traced
and untraced, and checks its result line against BENCHMARK.json; pins
the reference replay to sequential SCAN; and checks that the correctness
gate rejects corrupted answers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.common import BenchError, make_graph  # noqa: E402
from perfbench.reference import Reference  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "g.txt"
    graph = make_graph(1500, 3, str(path))
    return graph, Reference(graph.n, graph.edges)


@pytest.mark.parametrize("eps,mu", [(0.22, 3), (0.26, 5), (0.3, 2), (0.5, 4)])
@pytest.mark.parametrize("seed", [0, 9])
def test_reference_replays_sequential_scan(small, eps, mu, seed):
    from repro.baselines.scan import scan
    from repro.graph.csr import Graph

    graph, ref = small
    expected = scan(Graph.from_edges(graph.n, graph.edges), mu, eps,
                    seed=seed).labels
    labels, _ = ref.clustering(eps, mu, seed)
    assert np.array_equal(labels, expected)


def test_gate_rejects_corrupted_answers(small):
    from repro.core.anyscan import AnySCAN
    from repro.core.config import AnyScanConfig
    from repro.graph.csr import Graph

    graph, ref = small
    eps, mu = 0.26, 4
    labels, core = ref.clustering(eps, mu)
    ref.check_exact("exact", eps, mu, labels.tolist())
    corrupted = labels.copy()
    member = int(np.flatnonzero(labels >= 0)[0])
    corrupted[member] = -2
    with pytest.raises(BenchError):
        ref.check_exact("exact", eps, mu, corrupted.tolist())

    any_labels = AnySCAN(
        Graph.from_edges(graph.n, graph.edges),
        AnyScanConfig(mu=mu, epsilon=eps, alpha=64, beta=64),
    ).run().labels
    ref.check_equivalent("anyscan", eps, mu, any_labels)
    broken = any_labels.copy()
    broken[member] = -2
    with pytest.raises(BenchError):
        ref.check_equivalent("anyscan", eps, mu, broken)
    merged = any_labels.copy()
    merged[merged >= 0] = 0  # every cluster fused into one
    with pytest.raises(BenchError):
        ref.check_equivalent("anyscan", eps, mu, merged)

    cid = int(labels[member])
    members = np.flatnonzero(labels == cid).tolist()
    role = "core" if core[member] else "border"
    ref.check_local("local", eps, mu, member,
                    {"members": members, "seed_role": role})
    with pytest.raises(BenchError):
        ref.check_local("local", eps, mu, member,
                        {"members": members[:-1], "seed_role": role})
