"""The benchmark's output checks must keep rejecting wrong answers, and
the program's answers must keep passing them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14 of 14 passed" in proc.stdout


@pytest.mark.parametrize("workload", ["rate-queries", "region-tables", "graph-families"])
def test_benchmark_workload_answers_pass_its_checks(workload):
    # the LP, decomposition, hull and conflict-graph answers against the
    # benchmark's own independent checks; --seconds 0 runs the minimum
    # number of passes
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
