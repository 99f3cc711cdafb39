"""Smoke test of the benchmark itself: one small cell per workload, both modes.

Run from the root of a checkout with `python3 -m pytest perfbench/test_smoke.py`.
It fails within a minute when a metric stops printing, changes its unit,
or any output check fails.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_and_no_cell_fails():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
