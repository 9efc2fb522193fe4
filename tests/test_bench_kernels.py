"""The kernels bench experiment: registry, shapes, and JSON artifact."""

import json
import os

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    old = os.environ.get("REPRO_BENCH_DIR")
    os.environ["REPRO_BENCH_DIR"] = str(out_dir)
    try:
        yield run_experiment("kernels", quick=True), out_dir
    finally:
        if old is None:
            os.environ.pop("REPRO_BENCH_DIR", None)
        else:
            os.environ["REPRO_BENCH_DIR"] = old


class TestKernelsExperiment:
    def test_registered(self):
        assert "kernels" in EXPERIMENTS

    def test_two_tables_with_rows(self, results):
        tables, _ = results
        assert len(tables) == 2
        throughput, interactive = tables
        assert len(throughput.rows) == 2
        assert len(interactive.rows) == 2
        for table in tables:
            assert "kernels" in table.render()

    def test_batched_path_is_faster(self, results):
        tables, _ = results
        speedups = tables[0].column("speedup vs scalar")
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 1.0  # batched beats scalar even at toy scale

    def test_second_query_needs_no_sigma(self, results):
        tables, _ = results
        evals = tables[1].column("sigma evals")
        assert evals[0] > 0
        assert evals[1] == 0

    def test_json_artifact_written(self, results):
        tables, out_dir = results
        path = out_dir / "BENCH_kernels.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        for key in (
            "scalar_pairs_per_s",
            "batched_pairs_per_s",
            "speedup",
            "index_build_s",
            "first_query_sigma_evals",
            "second_query_sigma_evals",
        ):
            assert key in payload, key
        assert payload["speedup"] > 1.0
        assert payload["second_query_sigma_evals"] == 0
        assert payload["quick"] is True


def test_no_bench_dir_writes_nothing(tmp_path, monkeypatch):
    """Without ``REPRO_BENCH_DIR`` a run leaves the working directory
    alone (the committed bench-scale record lives there)."""
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    run_experiment("kernels", quick=True)
    assert list(tmp_path.iterdir()) == []
