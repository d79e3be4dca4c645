"""The benchmark's output checks must keep rejecting wrong answers."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
