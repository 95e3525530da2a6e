"""Smoke test of the benchmark: a one-second run of every workload, untraced
and traced, prints every metric BENCHMARK.json names, with its unit, and
reports the fail ratio with its base.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace, seconds=1):
    command = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("fail_ratio 0.0 (0 failed of ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "convert", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
