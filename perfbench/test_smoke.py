"""Smoke test of the benchmark at a tiny size (scale=16, 0.5 s audio).

Checks the output schema against BENCHMARK.json, that every operation
passes its output checks, that computed counts repeat exactly under one
seed, and that the benchmark refuses to run without the program. It
asserts no timing. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def run(workload, trace, repeat=0):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_checks(workload, trace):
    detail, result = run(workload, trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    env = detail["env"]
    assert 1 <= env["blas_threads"] <= env["nproc"]
    assert env["numpy"] and env["scipy"] and env["blas"] and env["python"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    counted = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] in ("count", "GFLOP", "GB", "B") and not m["name"].startswith("trace.")
    ]
    first = run(workload, 1)[1]["metrics"]
    second = run(workload, 1, repeat=1)[1]["metrics"]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
