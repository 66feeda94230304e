"""The benchmark harness still runs against the package.

``bench/tracing.py`` wraps named functions and methods in the package
by looking them up in their owner's dict, so a refactor that moves one
of them elsewhere breaks the traced run.  One short traced pass of a
workload catches that here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_bench_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", "compute-deep", "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
