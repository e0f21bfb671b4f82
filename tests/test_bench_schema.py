"""The benchmark runs one tiny workload and prints its end-to-end metrics.

``perfbench/run.py`` prints one result object as its last line; every
end-to-end metric that BENCHMARK.json declares must be in it, with its
unit and a non-zero value, with no failed operation. No timing is
asserted, and the run leaves the files under ``perfbench/`` as they were.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _snapshot(directory):
    return {
        str(p.relative_to(directory)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(directory.rglob("*"))
    }


def test_tiny_benchmark_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _snapshot(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--workload", "train-1s-splm",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in spec["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert printed["value"] != 0, metric["name"]
    assert _snapshot(ROOT / "perfbench") == before
