"""Smoke tests: the quickstart and parameter-exploration examples.

The heavier examples (LFR generation, parallel sweeps) are exercised
manually / by the bench suite; quickstart is the advertised first
contact with the library and the parameter-exploration walk-through
(about 2 s) pins the explorer's and the ε-dendrogram's printed results.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_quickstart_runs_and_finds_the_structure():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "2 clusters" in out
    assert "vertex 4 is a HUB" in out
    assert "vertex 9 is an OUTLIER" in out


def test_parameter_exploration_prints_the_same_results():
    """Every printed figure except timings and modularity."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "parameter_exploration.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = proc.stdout
    assert "one-time σ table: 11,998 evaluations in " in out
    assert "(429,382 work units)" in out
    assert "μ=5 has 668 distinct ε thresholds" in out
    assert "suggested ε (modularity-maximizing probe): 0.254" in out
    assert "(still 11,998)" in out
    # μ, ε, clusters, coverage of the sweep table.
    start = next(i for i, line in enumerate(lines) if "ms/query" in line)
    rows = [line.split()[:4] for line in lines[start + 1 : start + 13]]
    assert rows == [
        ["3", "0.30", "87", "79.3%"],
        ["3", "0.45", "41", "17.1%"],
        ["3", "0.25", "10", "96.4%"],
        ["3", "0.70", "0", "0.0%"],
        ["5", "0.30", "53", "54.6%"],
        ["5", "0.45", "17", "11.2%"],
        ["5", "0.25", "49", "82.5%"],
        ["5", "0.70", "0", "0.0%"],
        ["8", "0.30", "30", "43.8%"],
        ["8", "0.45", "10", "7.0%"],
        ["8", "0.25", "32", "60.3%"],
        ["8", "0.70", "0", "0.0%"],
    ]
    assert "ε-dendrogram: 3,999 cluster nodes across 1,939 change levels" in out
    persistent = [line for line in lines if line.startswith("  node ")]
    assert persistent == [
        "  node   193: born at ε=0.456, persists 0.217, 13 cores",
        "  node   346: born at ε=0.418, persists 0.177, 16 cores",
        "  node   327: born at ε=0.422, persists 0.163, 13 cores",
        "  node   750: born at ε=0.365, persists 0.126, 20 cores",
        "  node  3998: born at ε=0.118, persists 0.118, 2000 cores",
    ]
    assert "stability-plateau cut: ε=0.554 → 6 clusters" in out


def test_all_examples_compile():
    import py_compile

    for script in sorted(EXAMPLES.glob("*.py")):
        py_compile.compile(str(script), doraise=True)
