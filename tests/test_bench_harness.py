"""The benchmark harness still runs against the package.

``bench/tracing.py`` wraps named functions and methods in the package
by looking them up in their owner's dict, so a refactor that moves one
of them elsewhere breaks the traced run.  One short traced pass of each
workload catches that here: compute-deep reaches the skein engine,
verify-random and enumerate-many the identity checks (``g_tau``,
``check_skein_identity``, ``check_reversal_writhe``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify-random", "compute-deep", "enumerate-many"])
def test_traced_bench_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
