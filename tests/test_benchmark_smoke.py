"""Each benchmark workload runs one small round and checks its outputs.

perfbench/worker.py checks every result its operations return, so a
library change that breaks a benchmark check fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_smoke_round_is_correct(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--smoke", "--workdir", str(tmp_path)],
        cwd=ROOT, env=dict(os.environ, **SINGLE_THREADED), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
