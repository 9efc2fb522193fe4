"""Interprocedural rules R6-R8: seeded fixtures, call graph, reports."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    Finding,
    ProgramAnalyzer,
    load_baseline,
    render_json,
    render_sarif,
    subtract_baseline,
    write_baseline,
)
from repro.analysis.dataflow import Program, build_call_graph

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO = Path(__file__).resolve().parent.parent

FIXTURE_CONFIG = AnalysisConfig(
    kernel_modules=["fixtures/analysis"],
    api_modules=["fixtures/analysis"],
    guarded_exception_modules=["fixtures/analysis"],
)


def findings_for(name, config=FIXTURE_CONFIG):
    analyzer = ProgramAnalyzer(config=config)
    return analyzer.analyze_paths([FIXTURES / name])


class TestCallGraph:
    def test_pool_map_arguments_become_roots(self):
        program = Program.build([FIXTURES / "viol_r6.py"])
        graph = build_call_graph(program, FIXTURE_CONFIG)
        roots = {root.function.qualname for root in graph.roots}
        assert {"worker", "other_worker", "local_worker"} <= roots

    def test_calls_resolve_through_helpers(self):
        program = Program.build([FIXTURES / "viol_r6.py"])
        graph = build_call_graph(program, FIXTURE_CONFIG)
        worker = next(
            info
            for info in program.functions.values()
            if info.qualname == "worker"
        )
        callees = {
            callee.qualname for _, callee in graph.edges.get(worker.ref, [])
        }
        assert {"_bump", "_tally", "_bump_safe"} <= callees

    def test_spawn_through_parameters_root_real_chunk_workers(
        self, tmp_path
    ):
        # A worker handed through a helper's parameter to the pool is a
        # root, one level of indirection deep.
        spawner = tmp_path / "spawner.py"
        spawner.write_text(
            textwrap.dedent(
                """
                from concurrent.futures import ThreadPoolExecutor

                def run_chunks(fn, tasks):
                    with ThreadPoolExecutor(2) as pool:
                        return list(pool.map(fn, tasks))

                def chunk_worker(task):
                    return task

                def drive(tasks):
                    return run_chunks(chunk_worker, tasks)
                """
            )
        )
        program = Program.build([spawner])
        graph = build_call_graph(program, AnalysisConfig())
        reasons = {
            root.function.qualname: root.reason for root in graph.roots
        }
        assert "spawn-through" in reasons["chunk_worker"]
        # The library's real chunk worker and scheduler loop are roots.
        program = Program.build([REPO / "src" / "repro"])
        graph = build_call_graph(program, AnalysisConfig())
        roots = {root.function.ref for root in graph.roots}
        assert (
            "repro.parallel.threads:ThreadBackend.sigma_rows.block_sigmas"
            in roots
        )
        assert "repro.service.jobs:JobScheduler._worker_loop" in roots

    def test_configured_concurrency_roots_are_added(self):
        config = AnalysisConfig(concurrency_roots=["_bump_safe"])
        program = Program.build([FIXTURES / "viol_r6.py"])
        graph = build_call_graph(program, config)
        reasons = {
            root.function.qualname: root.reason for root in graph.roots
        }
        assert "configured" in reasons["_bump_safe"]


class TestR6SharedWrites:
    def test_seeded_races_fire_through_one_and_two_call_hops(self):
        findings = [f for f in findings_for("viol_r6.py") if f.rule == "R6"]
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "'COUNTS'" in messages
        assert "'TOTALS'" in messages
        assert "_accumulate" in messages

    def test_guarded_and_local_writes_stay_silent(self):
        messages = " ".join(f.message for f in findings_for("viol_r6.py"))
        assert "SAFE_COUNTS" not in messages
        assert "local_worker" not in messages

    def test_pragma_on_writing_function_suppresses(self, tmp_path):
        source = (FIXTURES / "viol_r6.py").read_text()
        source = source.replace(
            "def _bump(key):",
            "def _bump(key):  # repro: allow[R6]",
        )
        target = tmp_path / "viol_r6.py"
        target.write_text(source)
        analyzer = ProgramAnalyzer(config=FIXTURE_CONFIG)
        findings = analyzer.analyze_paths([target])
        messages = " ".join(f.message for f in findings)
        assert "'COUNTS'" not in messages
        assert "'TOTALS'" in messages  # the other race still fires


class TestR7LockOrder:
    def test_abba_cycle_fires_with_real_sites(self):
        findings = [f for f in findings_for("viol_r7.py") if f.rule == "R7"]
        assert len(findings) == 1
        message = findings[0].message
        assert "LOCK_A" in message and "LOCK_B" in message
        assert "viol_r7.py:20" in message  # acquisition site, not line 1
        assert findings[0].line > 1

    def test_consistent_pair_stays_silent(self):
        message = " ".join(f.message for f in findings_for("viol_r7.py"))
        assert "LOCK_C" not in message
        assert "LOCK_D" not in message


class TestR8SegmentLifecycle:
    def test_fallthrough_and_exception_leaks_fire(self):
        findings = [f for f in findings_for("viol_r8.py") if f.rule == "R8"]
        assert len(findings) == 2
        by_message = {
            "fall-through": [
                f for f in findings if "fall-through" in f.message
            ],
            "exception": [f for f in findings if "raises" in f.message],
        }
        assert len(by_message["fall-through"]) == 1
        assert "leaky_fallthrough" in by_message["fall-through"][0].message
        assert len(by_message["exception"]) == 1
        assert "leaky_exception_edge" in by_message["exception"][0].message

    def test_clean_lifecycles_stay_silent(self):
        messages = " ".join(f.message for f in findings_for("viol_r8.py"))
        for clean in (
            "clean_try_finally",
            "clean_escape_to_registry",
            "clean_factory",
            "clean_attach_only",
        ):
            assert clean not in messages

    def test_handle_factory_leak_fires_and_with_discharges(self, tmp_path):
        """`handle-factories` entries get the same R8 audit as segments:
        an unclosed WAL-style handle leaks, a with-managed one does not."""
        target = tmp_path / "wal_handles.py"
        target.write_text(
            textwrap.dedent(
                """
                def _open_wal(path):
                    return open(path, "r+b", buffering=0)

                def leaky_open(path, sink):
                    handle = _open_wal(path)
                    sink(handle.read())
                    # falls through without close()

                def clean_with(path, sink):
                    with _open_wal(path) as handle:
                        sink(handle.read())

                def clean_close(path, sink):
                    handle = _open_wal(path)
                    try:
                        sink(handle.read())
                    finally:
                        handle.close()
                """
            )
        )
        config = AnalysisConfig(handle_factories=["_open_wal"])
        findings = [
            f
            for f in ProgramAnalyzer(config=config).analyze_paths([target])
            if f.rule == "R8"
        ]
        assert findings, "unclosed handle from a handle-factory must fire"
        messages = " ".join(f.message for f in findings)
        assert "leaky_open" in messages
        assert "clean_with" not in messages
        assert "clean_close" not in messages
        # Without the config entry the factory is not audited at all.
        silent = ProgramAnalyzer(config=AnalysisConfig()).analyze_paths(
            [target]
        )
        assert [f for f in silent if f.rule == "R8"] == []

    def test_view_of_handle_is_not_an_escape(self, tmp_path):
        target = tmp_path / "leak.py"
        target.write_text(
            textwrap.dedent(
                """
                from multiprocessing.shared_memory import SharedMemory

                def leak_via_view(sink):
                    shm = SharedMemory(create=True, size=16)
                    sink(shm.buf)
                    return shm.name
                """
            )
        )
        analyzer = ProgramAnalyzer(config=FIXTURE_CONFIG)
        findings = analyzer.analyze_paths([target])
        assert any(f.rule == "R8" for f in findings)


class TestSrcReproIsClean:
    def test_interprocedural_pass_is_clean_on_the_library(self):
        analyzer = ProgramAnalyzer(config=AnalysisConfig())
        findings = analyzer.analyze_paths([REPO / "src" / "repro"])
        assert findings == []


class TestReports:
    FINDINGS = [
        Finding(path="a.py", line=3, col=0, rule="R6", message="race on X"),
        Finding(path="b.py", line=9, col=4, rule="R8", message="leak of Y"),
    ]

    def test_json_report_shape(self):
        payload = json.loads(render_json(self.FINDINGS))
        assert payload["tool"]["name"] == "repro-analysis"
        assert payload["summary"] == {"R6": 1, "R8": 1, "total": 2}
        assert payload["findings"][0]["path"] == "a.py"

    def test_sarif_report_validates_basic_shape(self):
        doc = json.loads(render_sarif(self.FINDINGS))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "R6" in rule_ids and "R8" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R6"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "a.py"
        assert location["region"]["startLine"] == 3
        # ruleIndex must point at the matching rules[] entry
        assert rule_ids[result["ruleIndex"]] == "R6"

    def test_baseline_round_trip_and_diff(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, self.FINDINGS[:1])
        baseline = load_baseline(baseline_path)
        new_finding = Finding(
            path="c.py", line=1, col=0, rule="R7", message="cycle"
        )
        diff = subtract_baseline(
            [self.FINDINGS[0], new_finding], baseline
        )
        assert diff.new == [new_finding]
        assert diff.known == [self.FINDINGS[0]]
        assert diff.stale == []

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, self.FINDINGS)
        diff = subtract_baseline(
            [self.FINDINGS[0]], load_baseline(baseline_path)
        )
        assert [entry["rule"] for entry in diff.stale] == ["R8"]

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"findings\": [{\"rule\": \"R6\"}]}")
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestCli:
    def run_cli(self, *args, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_list_rules_includes_interprocedural_pack(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("R6", "R7", "R8"):
            assert rule_id in proc.stdout

    def test_interprocedural_gate_is_clean_on_src(self):
        proc = self.run_cli("--interprocedural", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sarif_output_file(self, tmp_path):
        out = tmp_path / "report.sarif"
        proc = self.run_cli(
            "--interprocedural",
            "--format",
            "sarif",
            "--output",
            str(out),
            "src/repro",
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"

    def test_select_program_rule_implies_interprocedural(self, tmp_path):
        fixture = tmp_path / "viol_r6.py"
        fixture.write_text((FIXTURES / "viol_r6.py").read_text())
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-analysis]\n")
        proc = self.run_cli(
            "--select",
            "R6",
            "--config",
            str(pyproject),
            str(fixture),
        )
        assert proc.returncode == 1
        assert "R6" in proc.stdout

    def test_baseline_gates_only_new_findings(self, tmp_path):
        fixture = tmp_path / "viol_r6.py"
        fixture.write_text((FIXTURES / "viol_r6.py").read_text())
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-analysis]\n")
        baseline = tmp_path / "baseline.json"
        proc = self.run_cli(
            "--select",
            "R6",
            "--config",
            str(pyproject),
            "--write-baseline",
            str(baseline),
            str(fixture),
        )
        assert proc.returncode == 0
        assert json.loads(baseline.read_text())["findings"]
        proc = self.run_cli(
            "--select",
            "R6",
            "--config",
            str(pyproject),
            "--baseline",
            str(baseline),
            str(fixture),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "matched the baseline" in proc.stderr
