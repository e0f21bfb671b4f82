"""The benchmark runs tiny workloads and prints the metrics it declares.

``perfbench/run.py`` prints one result object as its last line; every
end-to-end metric that BENCHMARK.json declares must be in it, with its
unit and a non-zero value, with no failed operation. A traced run also
prints every per-layer metric, and its layer self times account for the
operation time. No timing is asserted, and the runs leave the files
under ``perfbench/`` as they were.
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


def _run_tiny(workload, trace):
    """The result object of one tiny run; checks it failed no operation
    and left ``perfbench/`` unchanged."""
    before = _snapshot(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _snapshot(ROOT / "perfbench") == before
    return result


def test_tiny_benchmark_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run_tiny("train-1s-splm", 0)
    for metric in spec["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert printed["value"] != 0, metric["name"]


def test_tiny_infer_benchmark_checks_every_operation():
    # Each operation enhances one record in nlm or splm mode, alternating,
    # and checks the waveform, zone track and VAD it returns.
    result = _run_tiny("infer", 0)
    assert result["attempted"] >= 2


def test_tiny_traced_benchmark_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = _run_tiny("train-6s", 1)["metrics"]
    for metric in spec["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
    op_s, attributed = metrics["trace.op_s"]["value"], metrics["trace.attributed_s"]["value"]
    assert abs(attributed - op_s) <= 0.05 * op_s, (attributed, op_s)


def test_tiny_synth_benchmark_resynthesizes_byte_identically():
    # The final check resynthesizes the reference record under its seed and
    # fails an operation unless every file it writes is byte-identical.
    result = _run_tiny("synth", 0)
    assert result["correct"]


def test_tiny_traced_synth_benchmark_counts_image_sources():
    # The tracer hooks roomsim's functions by name and reads the room and
    # reflection order from image_source_rir's arguments.
    metrics = _run_tiny("synth", 1)["metrics"]
    assert metrics["roomsim.image_source_rir.calls"]["value"] > 0
    assert metrics["roomsim.fftconvolve.calls"]["value"] > 0
    assert metrics["roomsim.image_source_rir.images"]["value"] > 0
