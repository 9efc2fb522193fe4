"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.baselines import scan
from repro.cli import main
from repro.graph.io import load_edge_list, save_edge_list


@pytest.fixture()
def graph_file(lfr_small, tmp_path):
    path = tmp_path / "graph.txt"
    save_edge_list(lfr_small, path)
    return str(path)


class TestBasicRuns:
    def test_default_anyscan(self, graph_file, capsys):
        assert main([graph_file, "--mu", "4", "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out

    @pytest.mark.parametrize("alg", ["scan", "scan-b", "pscan", "scanpp"])
    def test_batch_algorithms(self, graph_file, capsys, alg):
        assert main(
            [graph_file, "--mu", "4", "--algorithm", alg]
        ) == 0
        assert "clusters" in capsys.readouterr().out

    def test_all_algorithms_same_cluster_count(self, graph_file, capsys):
        counts = []
        for alg in ("anyscan", "scan", "pscan"):
            main([graph_file, "--mu", "4", "--algorithm", alg])
            out = capsys.readouterr().out
            counts.append(int(out.split(" clusters")[0].split()[-1]))
        assert len(set(counts)) == 1


class TestOutput:
    def test_labels_file_written(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert main(
            [graph_file, "--mu", "4", "--output", str(out_file)]
        ) == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 301  # 300 vertices + header

    def test_progress_lines(self, graph_file, capsys):
        assert main([graph_file, "--mu", "4", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "iter" in err


class TestBudgets:
    def test_work_budget_stops_early(self, graph_file, capsys):
        assert main(
            [graph_file, "--mu", "4", "--budget-work", "100"]
        ) == 0
        err = capsys.readouterr().err
        assert "stopped early" in err or "approximate" in err

    def test_budget_with_batch_algorithm_rejected(self, graph_file, capsys):
        code = main(
            [
                graph_file, "--algorithm", "scan",
                "--budget-work", "100",
            ]
        )
        assert code == 2

    def test_huge_budget_finishes(self, graph_file, capsys):
        assert main(
            [graph_file, "--mu", "4", "--budget-work", "1e12"]
        ) == 0
        err = capsys.readouterr().err
        assert "stopped early" not in err


class TestWeighted:
    def test_weighted_load(self, weighted_triangle, tmp_path, capsys):
        path = tmp_path / "wt.txt"
        save_edge_list(weighted_triangle, path, weighted=True)
        assert main(
            [str(path), "--weighted", "--mu", "2", "--algorithm", "scan"]
        ) == 0
        assert "clusters" in capsys.readouterr().out


class TestBackendFlag:
    def _summary(self, capsys):
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_sequential_and_parallel_agree(self, graph_file, capsys):
        outputs = []
        for backend in ("sequential", "thread"):
            args = [graph_file, "--mu", "4", "--algorithm", "scan"]
            if backend != "sequential":
                args += ["--backend", backend, "--workers", "2"]
            assert main(args) == 0
            outputs.append(self._summary(capsys)[0])
        assert len(set(outputs)) == 1, outputs

    def test_resolved_kind_reported(self, graph_file, capsys):
        assert main(
            [graph_file, "--algorithm", "scan", "--backend", "thread",
             "--workers", "3"]
        ) == 0
        err = self._summary(capsys)[1]
        assert "backend thread: 3 threads" in err

    @pytest.mark.parametrize(
        "command",
        [["--algorithm", "scan"], ["local-cluster", "--seed", "0"]],
        ids=["run", "local-cluster"],
    )
    @pytest.mark.parametrize("name", ["process", "auto"])
    def test_removed_backend_names_exit_2(
        self, graph_file, capsys, name, command
    ):
        prefix = command[:1] if command[0] == "local-cluster" else []
        with pytest.raises(SystemExit) as exc:
            main([*prefix, graph_file, *command[len(prefix):],
                  "--backend", name])
        assert exc.value.code == 2
        assert "invalid choice" in self._summary(capsys)[1]

    def test_backend_with_non_scan_algorithm_rejected(self, graph_file, capsys):
        assert main([graph_file, "--backend", "thread"]) == 2
        assert main(
            [graph_file, "--algorithm", "pscan", "--backend", "thread"]
        ) == 2

    def test_backend_with_budget_rejected(self, graph_file, capsys):
        code = main(
            [graph_file, "--algorithm", "scan", "--backend", "thread",
             "--budget-work", "100"]
        )
        assert code == 2

    def test_labels_written_from_parallel_run(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert main(
            [graph_file, "--mu", "4", "--algorithm", "scan",
             "--backend", "thread", "--workers", "2",
             "--output", str(out_file)]
        ) == 0
        assert len(out_file.read_text().strip().splitlines()) == 301


class TestClusterIndexFlag:
    """``--cluster-index build|use``: the one precomputed-σ input."""

    def _output(self, graph_file, path, mu, epsilon, *extra):
        """The ``--output`` labels file of one ``--algorithm scan`` run."""
        assert main(
            [graph_file, "--algorithm", "scan", "--mu", str(mu),
             "--epsilon", str(epsilon), "--output", str(path), *extra]
        ) == 0
        return path.read_bytes()

    def test_build_then_use_matches_plain_scan(
        self, graph_file, tmp_path, capsys
    ):
        built = self._output(
            graph_file, tmp_path / "built.txt", 4, 0.5,
            "--cluster-index", "build",
        )
        err = capsys.readouterr().err
        assert "clustering index built" in err
        assert "σ evaluations: 0" in err
        assert built == self._output(graph_file, tmp_path / "plain.txt", 4, 0.5)
        capsys.readouterr()
        # A second (ε, μ) from the saved archive: same bytes as scan.
        used = self._output(
            graph_file, tmp_path / "used.txt", 3, 0.65,
            "--cluster-index", "use",
        )
        err = capsys.readouterr().err
        assert "clustering index loaded from" in err
        assert "σ evaluations: 0" in err
        assert used == self._output(
            graph_file, tmp_path / "plain2.txt", 3, 0.65
        )

    def test_truncated_archive_is_quarantined_and_rebuilt(
        self, graph_file, tmp_path, capsys
    ):
        self._output(
            graph_file, tmp_path / "a.txt", 4, 0.5, "--cluster-index", "build"
        )
        archive = graph_file + ".gsindex.npz"
        os.truncate(archive, os.path.getsize(archive) // 2)
        capsys.readouterr()
        used = self._output(
            graph_file, tmp_path / "b.txt", 4, 0.5, "--cluster-index", "use"
        )
        assert "quarantined" in capsys.readouterr().err
        assert os.path.exists(archive + ".quarantined")
        assert used == self._output(graph_file, tmp_path / "plain.txt", 4, 0.5)

    @pytest.mark.parametrize(
        "extra",
        [["--algorithm", "pscan"], ["--algorithm", "scan", "--budget-work", "10"]],
    )
    def test_refused_combinations_exit_2(self, graph_file, capsys, extra):
        assert main([graph_file, "--cluster-index", "use", *extra]) == 2

    def test_similarity_index_flag_is_gone(self, graph_file, capsys):
        for argv in (
            [graph_file, "--algorithm", "scan", "--similarity-index", "build"],
            ["local-cluster", graph_file, "--seed", "0",
             "--similarity-index", "build"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2


class TestLocalClusterCommand:
    @pytest.mark.parametrize(
        "index_args",
        [
            [],
            ["--cluster-index", "build"],
            ["--cluster-index", "build", "--backend", "thread",
             "--workers", "2"],
        ],
    )
    def test_members_match_scan(self, graph_file, capsys, index_args):
        graph, _ = load_edge_list(graph_file)
        reference = scan(graph, 4, 0.5, seed=0)
        clustered = np.flatnonzero(reference.labels >= 0)
        for seed in (int(clustered[0]), int(clustered[-1])):
            assert main(
                ["local-cluster", graph_file, "--seed", str(seed),
                 "--mu", "4", "--epsilon", "0.5", "--json", *index_args]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            want = np.flatnonzero(
                reference.labels == reference.labels[seed]
            )
            assert payload["members"] == want.tolist()
            expected_tier = "cluster-index" if index_args else "oracle"
            assert payload["stats"]["tier"] == expected_tier
