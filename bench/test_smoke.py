"""The benchmark's own test: ``python3 -m pytest bench`` from the repository root.

Runs ``bench/run.py --smoke``: all three workloads with tiny budgets,
plain and traced, asserting that every metric BENCHMARK.json names is
emitted, no check fails and the traced pass restores what it wrapped.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600,
        cwd=RUN.parent.parent,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stdout.rstrip().endswith("smoke: ok")
