"""Smoke run of every benchmark workload: the harness works end to end and
its oracles pass, among them classical_corr against the reference
conditional_information within 1e-9 and byte-identical outputs across
repetitions."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["mc-random", "single-state", "bounds-curves"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--smoke",
            "--seconds", "1",
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stdout
