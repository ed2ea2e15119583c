"""The traced run's exact counts repeat for a seed.

Runs each workload's traced mode twice in fresh processes with the same
seed and requires identical counts. Takes about a minute:

    python3 -m pytest perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import EXACT

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
        cwd=RUN.parent.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mc_sparse", "mc_dense", "quad_grid", "k_opt"])
def test_traced_counts_repeat(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
