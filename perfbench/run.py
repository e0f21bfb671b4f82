#!/usr/bin/env python3
"""Seeded benchmark of neurobeam's training, inference and synthesis jobs.

Run from the repository root:

    python3 perfbench/run.py --workload train-6s --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
prints per-layer self times, call counts and the tracing overhead. The
last line of standard output is the result object; the line before it
holds the details (environment, per-kind medians and tails, samples).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = 1  # pinned; at most nproc, and 1 and 2 measured alike
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks model and audio for the smoke test")
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def run_op(workload, state, index):
    from workloads import OpResult

    try:
        return workload.op(state, index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return OpResult(float("nan"), workload.units_per_op, [], ["operation raised"])


def run_phase(workload, state, seconds, tracer=None):
    """Rounds of operations, one client in a closed loop, until ``seconds``
    have passed (the last round may overrun)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            index = len(results)
            if tracer is not None:
                tracer.op = index
            results.append(run_op(workload, state, index))
    if tracer is not None:
        tracer.op = None
    return results


def end_to_end(results, setup_times):
    """Timing over every operation that ran to the end, failed checks or not
    (failures are counted apart, in ``failed``)."""
    ok = [r for r in results if r.samples]
    kinds = {}
    for r in ok:
        for kind, seconds in r.samples:
            kinds.setdefault(kind, []).append(seconds)
    units = sum(r.units for r in ok)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # Median per kind of operation (NLM and SPLM records on infer, the
        # 12 room/T60 cells on synth), averaged over kinds: one median over
        # kinds of very different cost would jump between them.
        "op_s_p50": (statistics.fmean(statistics.median(v) for v in kinds.values()), "s"),
        "ops_per_s": (units / sum(r.wall for r in ok), "1/s"),
    }
    return metrics, kinds


def layer_metrics(tracer, traced, untraced, round_size):
    """Per-unit self times over every traced operation; calls and computed
    counts from the first round only, so they repeat exactly per seed."""
    from tracing import COUNT_SCALE, SETUP_SPANS, SPAN_NAMES, layer_metric_units

    totals = tracer.totals()
    n_units = sum(r.units for r in traced)
    first_units = sum(r.units for r in traced[:round_size])
    values = dict.fromkeys(layer_metric_units(), 0.0)
    first_counts = {}  # integer totals over the first round
    for (op, name), (self_s, total_s, calls) in totals.items():
        if op == "setup":
            values["setup.s"] += self_s
            if name in SETUP_SPANS:
                values[f"setup.{name}.self_s"] += self_s
            continue
        values[f"{name}.self_s"] += self_s / n_units
        values["trace.attributed_s"] += self_s / n_units
        if name == "autodiff.backward":
            values["autodiff.backward.s"] += total_s / n_units
        if op < round_size:
            first_counts[f"{name}.calls"] = first_counts.get(f"{name}.calls", 0) + calls
    for (op, metric), value in tracer.counts.items():
        if op != "setup" and op < round_size:
            first_counts[metric] = first_counts.get(metric, 0) + value
    for metric, value in first_counts.items():
        values[metric] = value * COUNT_SCALE.get(metric, 1) / first_units
    values["trace.op_s"] = sum(r.wall for r in traced) / n_units
    values["trace.untraced_op_s"] = sum(r.wall for r in untraced) / sum(r.units for r in untraced)
    values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
    unnamed = {name for _, name in totals} - set(SPAN_NAMES)
    if unnamed:
        raise RuntimeError(f"spans without a metric: {sorted(unnamed)}")
    return values


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "neurobeam" / "__init__.py").is_file():
        print(f"error: no neurobeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    harness = tracing.Patches()
    trace_patches = tracing.Patches()
    try:
        workload.install(harness)
        tracer = tracing.Tracer() if args.trace else None
        setup_times = []
        for i in range(1 if tracer else SETUP_REPEATS):
            if tracer is not None:
                tracing.install(tracer, trace_patches)
                tracer.op = "setup"
            work_dir = scratch / f"setup-{i}"
            work_dir.mkdir()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, args.size, work_dir)
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
                trace_patches.undo()
            if i:
                shutil.rmtree(scratch / f"setup-{i - 1}")

        t0 = time.perf_counter()
        warm = workload.warmup(state)
        warmup_s = time.perf_counter() - t0
        if tracer is None:
            measured = run_phase(workload, state, args.seconds)
            untraced = []
        else:
            untraced = run_phase(workload, state, args.seconds / 2)
            tracing.install(tracer, trace_patches)
            if "model" in state:
                tracing.instrument_model(tracer, state["model"])
            measured = run_phase(workload, state, args.seconds / 2, tracer)
            trace_patches.undo()
        final = workload.final_check(state)
    finally:
        trace_patches.undo()
        harness.undo()
        shutil.rmtree(scratch, ignore_errors=True)

    everything = warm + untraced + measured + final
    attempted = sum(r.units for r in everything)
    failed = sum(r.units for r in everything if r.problems)
    problems = sorted({p for r in everything for p in r.problems})
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "env": environment(),
        "setup_s": setup_times,
        "warmup_s": warmup_s,
        "operations": len(measured),
        "failed_op_share": failed / attempted,
        "problems": problems,
    }
    if not any(r.samples for r in measured):
        print(f"error: no operation ran to the end: {problems}", file=sys.stderr)
        return 1
    if tracer is None:
        metrics, kinds = end_to_end(measured, setup_times)
        detail["kinds"] = {
            kind: {
                "n": len(v),
                "p50_s": statistics.median(v),
                "p50_rtf": statistics.median(v) / state["audio_s"],
                "tail_s": tail(v),
                "samples_s": v,
            }
            for kind, v in kinds.items()
        }
        every = [x for v in kinds.values() for x in v]
        detail["all_kinds"] = {"n": len(every), "p50_s": statistics.median(every),
                               "tail_s": tail(every)}
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        units = tracing.layer_metric_units()
        values = layer_metrics(tracer, measured, untraced, workload.round_size)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["unit"] = "per training step" if workload.name.startswith("train") else "per record"

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
