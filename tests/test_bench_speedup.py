"""The measured-speedup bench experiment, quick mode (CI smoke)."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.core.parallel import MeasuredSpeedup, measured_sigma_speedups
from repro.errors import SimulationError
from repro.graph.generators.random_graphs import gnm_random_graph
from repro.parallel.threads import ThreadBackend


class TestRegistry:
    def test_speedup_is_registered(self):
        assert "speedup" in EXPERIMENTS

    def test_quick_run_shape(self):
        tables = run_experiment("speedup", quick=True)
        assert len(tables) == 1
        table = tables[0]
        assert table.headers[0] == "backend"
        assert [h for h in table.headers[1:]] == ["t=1", "t=2"]
        assert table.column("backend") == ["thread", "simulated"]
        # Every row is normalized to its own 1-worker baseline.
        for row in table.rows:
            assert row[1] == pytest.approx(1.0)


class TestBenchCli:
    def test_main_renders_table(self, capsys):
        assert bench_main(["speedup", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "measured sigma-phase speedup" in out
        assert "simulated" in out


class TestMeasuredSpeedups:
    def test_baseline_is_first_worker_count(self):
        graph = gnm_random_graph(120, 360, seed=5)
        rows = measured_sigma_speedups(graph, [1, 2], repeats=2)
        assert [r.workers for r in rows] == [1, 2]
        assert isinstance(rows[0], MeasuredSpeedup)
        assert rows[0].speedup == pytest.approx(1.0)
        assert all(r.seconds > 0 for r in rows)

    def test_chunking(self, monkeypatch):
        """The backend argument sets the block geometry; each worker
        count replaces only its thread count."""
        graph = gnm_random_graph(120, 360, seed=5)
        timed = []
        sigma_rows = ThreadBackend.sigma_rows

        def recording(backend, *args, **kwargs):
            timed.append((backend.threads, backend.chunk_size))
            return sigma_rows(backend, *args, **kwargs)

        monkeypatch.setattr(ThreadBackend, "sigma_rows", recording)
        rows = measured_sigma_speedups(
            graph, [1, 3], backend=ThreadBackend(threads=8, chunk_size=2)
        )
        assert len(rows) == 2
        assert timed == [(1, 2), (3, 2)]

    def test_empty_worker_counts_rejected(self):
        graph = gnm_random_graph(20, 40, seed=5)
        with pytest.raises(SimulationError):
            measured_sigma_speedups(graph, [])

    def test_bad_repeats_rejected(self):
        graph = gnm_random_graph(20, 40, seed=5)
        with pytest.raises(SimulationError):
            measured_sigma_speedups(graph, [1], repeats=0)
