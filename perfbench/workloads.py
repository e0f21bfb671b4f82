"""The benchmark's four seeded workloads.

Each workload synthesizes its fixtures from the workload seed in
``setup``, runs one operation at a time in ``op`` (timed from outside the
program's call) and checks that operation's outputs. The checks hold for
any correct implementation: they test finiteness, shapes, ranges and
byte-identical resynthesis under one seed, never digests of model
arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neurobeam import checkpoint, roomsim, training
from neurobeam.checkpoint import load_checkpoint
from neurobeam.config import config_from_dict
from neurobeam.dsp import StftConfig, num_frames, read_wav
from neurobeam.model import MimoDccrn

# ``full`` is what the benchmark measures; ``tiny`` keeps the smoke test fast.
SIZES = {
    "full": {"scale": 4, "long_s": 6.0, "long_speech_s": 4.0, "short_s": 1.0, "short_speech_s": 0.6},
    "tiny": {"scale": 16, "long_s": 0.5, "long_speech_s": 0.3, "short_s": 0.5, "short_speech_s": 0.3},
}
FIXTURE_RECORDS = 2
# Training and inference fixtures come from one room and T60, so the
# set-up cost does not depend on the seed's room draw; the model's cost
# does not depend on the reverberation.
FIXTURE_ROOM = {"rooms": [[5.0, 5.0, 3.0]], "t60_ranges": [[0.25, 0.25]],
                "target_distance_ranges": [[1.0, 2.0]]}
# synth cycles 3 room scenarios x 4 T60 bands, one round of 12 records,
# so every run holds the same mix of cheap and expensive records.
T60_BANDS = 4


@dataclass
class OpResult:
    """One operation: its wall time, work units and per-unit samples."""

    wall: float
    units: int
    samples: list = field(default_factory=list)  # (kind, seconds) per unit
    problems: list = field(default_factory=list)


class Recorder:
    """Wraps a program function and keeps (seconds, result) for each call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.fn(*args, **kwargs)
        self.calls.append((time.perf_counter() - t0, out))
        return out

    def take(self):
        calls, self.calls = self.calls, []
        return calls


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _run_config(seed, size, duration, speech, mode, steps, checkpoint_every):
    return config_from_dict({
        "seed": seed,
        "dataset": {"duration_s": duration, "speech_len_s": speech, **FIXTURE_ROOM},
        "model": {"scale": SIZES[size]["scale"]},
        "localization": {"mode": mode},
        "training": {"steps": steps, "checkpoint_every": checkpoint_every, "log_every": 1},
    })


class Workload:
    name = ""
    round_size = 1  # operations per measuring round
    units_per_op = 1

    def install(self, patches):
        """Harness wrappers that stay on in untraced runs (timing, capture)."""

    def setup(self, seed, size, work_dir):
        raise NotImplementedError

    def warmup(self, state):
        return [self.op(state, i) for i in range(self.round_size)]

    def op(self, state, index):
        raise NotImplementedError

    def final_check(self, state):
        """Operations run once after measuring, as OpResults."""
        return []


class Train(Workload):
    """``training.train`` calls of a few steps each, checkpointing as it goes."""

    def __init__(self, name, long, mode, steps, checkpoint_every, warmup_steps):
        self.name = name
        self.long = long
        self.mode = mode
        self.units_per_op = steps
        self.checkpoint_every = checkpoint_every
        self.warmup_steps = warmup_steps
        self.step_log = None  # Recorder around training_step, once installed

    def install(self, patches):
        self.step_log = Recorder(training.training_step)
        patches.set(training, "training_step", self.step_log)

    def setup(self, seed, size, work_dir):
        sz = SIZES[size]
        duration, speech = (
            (sz["long_s"], sz["long_speech_s"]) if self.long else (sz["short_s"], sz["short_speech_s"])
        )

        def cfg(steps, every):
            return _run_config(seed, size, duration, speech, self.mode, steps, every)

        config = cfg(self.units_per_op, self.checkpoint_every)
        roomsim.generate_dataset(config.dataset_config(), FIXTURE_RECORDS, work_dir / "data")
        return {
            "config": config,
            "warmup_config": cfg(self.warmup_steps, self.warmup_steps),
            "manifest": work_dir / "data" / "manifest.jsonl",
            "dir": work_dir,
            "runs": itertools.count(),
            "audio_s": duration,
        }

    def warmup(self, state):
        return [self._train(state, state["warmup_config"])]

    def op(self, state, index):
        return self._train(state, state["config"])

    def _train(self, state, cfg):
        out_dir = state["dir"] / f"run-{next(state['runs'])}"
        steps = cfg.training.steps
        self.step_log.take()
        t0 = time.perf_counter()
        try:
            history = training.train(cfg, state["manifest"], out_dir)
        except training.TrainingDiverged as exc:
            return OpResult(float("nan"), steps, [], [f"TrainingDiverged: {exc}"])
        wall = time.perf_counter() - t0
        samples = [("step", seconds) for seconds, _ in self.step_log.take()]
        problems = _check_training(out_dir, history, steps)
        shutil.rmtree(out_dir)
        return OpResult(wall, steps, samples, problems)


def _check_training(out_dir, history, steps):
    keys = ("loss_bce", "loss_sisnr", "total", "si_snr_db")
    problems = []
    with open(out_dir / training.LOG_NAME) as fh:
        logged = [json.loads(line) for line in fh if line.strip()]
    if len(history) != steps or len(logged) != steps:
        problems.append(f"{len(history)} steps returned, {len(logged)} logged, {steps} asked")
    if not all(_finite(*(r[k] for k in keys)) for r in history + logged):
        problems.append("non-finite loss logged")
    arrays, meta = load_checkpoint(out_dir / training.CHECKPOINT_NAME)
    if meta["train_step"] != steps:
        problems.append(f"final checkpoint is at step {meta['train_step']}, not {steps}")
    if not all(np.all(np.isfinite(a)) for a in arrays.values()):
        problems.append("final checkpoint holds non-finite values")
    return problems


class Infer(Workload):
    """``training.evaluate_records`` on one record, alternating NLM and SPLM."""

    name = "infer"
    round_size = 2
    modes = ("nlm", "splm")
    enhanced = None

    def install(self, patches):
        self.enhanced = Recorder(training.enhance_utterance)
        patches.set(training, "enhance_utterance", self.enhanced)

    def setup(self, seed, size, work_dir):
        sz = SIZES[size]
        config = _run_config(seed, size, sz["long_s"], sz["long_speech_s"], "nlm", 0, 1)
        data = work_dir / "data"
        roomsim.generate_dataset(config.dataset_config(), FIXTURE_RECORDS, data)
        # A zero-step run writes the initial checkpoint; restore it as eval does.
        training.train(config, data / "manifest.jsonl", work_dir / "model")
        arrays, meta = checkpoint.load_checkpoint(work_dir / "model" / training.CHECKPOINT_NAME)
        model = MimoDccrn.from_meta(meta)
        model.load_arrays(arrays)
        return {
            "entries": roomsim.load_manifest(data / "manifest.jsonl"),
            "base_dir": data,
            "model": model,
            "stft": StftConfig(**meta["stft"]),
            "geometry": training.geometry_from_meta(meta),
            "localization": meta["localization"],
            "audio_s": sz["long_s"],
        }

    def op(self, state, index):
        entry = state["entries"][(index // 2) % len(state["entries"])]
        mode = self.modes[index % 2]
        loc = state["localization"]
        self.enhanced.take()
        t0 = time.perf_counter()
        rows = training.evaluate_records(
            [entry], state["base_dir"], state["model"], state["stft"], state["geometry"],
            loc["zones"], mode, vad_threshold=loc["vad_threshold"],
        )
        wall = time.perf_counter() - t0
        calls = self.enhanced.take()
        problems = [] if len(calls) == 1 else [f"{len(calls)} enhance_utterance calls, not 1"]
        for _, (enhanced, result) in calls:
            problems += _check_enhanced(entry, enhanced, result, state["stft"], loc["zones"])
        row = rows[0]
        if not _finite(row["si_snr_noisy_db"], row["si_snr_enhanced_db"]):
            problems.append("non-finite SI-SNR")
        return OpResult(wall, 1, [(mode, wall)], problems)


def _check_enhanced(entry, enhanced, result, stft_cfg, zones):
    problems = []
    n = int(round(entry["duration_s"] * entry["sample_rate"]))
    frames = num_frames(n, stft_cfg.window_length, stft_cfg.hop)
    expect = stft_cfg.window_length + (frames - 1) * stft_cfg.hop
    if enhanced.samples.shape != (1, expect):
        problems.append(f"enhanced shape {enhanced.samples.shape}, expected (1, {expect})")
    if not np.all(np.isfinite(enhanced.samples)):
        problems.append("enhanced waveform is not finite")
    if result.zone_track.shape != (frames,) or not np.all(
        (result.zone_track >= 1) & (result.zone_track <= zones)
    ):
        problems.append("zone track outside 1..N or of the wrong length")
    if not np.all((result.vad_track >= 0.0) & (result.vad_track <= 1.0)):
        problems.append("VAD score outside [0, 1]")
    return problems


class Synth(Workload):
    """``roomsim.generate_dataset(..., threads=1)``: one record per operation.

    Operation i draws its record under a seed derived from the workload
    seed and i, in room scenario i mod 3 and the (i // 3) mod 4-th quarter
    of that scenario's T60 range.
    """

    name = "synth"
    round_size = 3 * T60_BANDS  # every (scenario, quarter) cell once

    def setup(self, seed, size, work_dir):
        sz = SIZES[size]
        base = roomsim.DatasetConfig(duration_s=sz["long_s"], speech_len_s=sz["long_speech_s"])
        state = {"seed": seed, "base": base, "dir": work_dir, "runs": itertools.count(),
                 "audio_s": sz["long_s"]}
        # The reference record is resynthesized at the end and must match.
        roomsim.generate_dataset(self._config(state, 0), 1, work_dir / "reference", threads=1)
        return state

    def _config(self, state, index):
        base = state["base"]
        s, band = _cell(index)
        lo, hi = base.t60_ranges[s]
        width = (hi - lo) / T60_BANDS
        master = int(np.random.SeedSequence([state["seed"], index]).generate_state(1)[0])
        return roomsim.DatasetConfig(
            master_seed=master,
            rooms=(base.rooms[s],),
            t60_ranges=((lo + band * width, lo + (band + 1) * width),),
            target_distance_ranges=(base.target_distance_ranges[s],),
            duration_s=base.duration_s,
            speech_len_s=base.speech_len_s,
        )

    def warmup(self, state):
        return []  # set-up synthesized the reference record in this process

    def op(self, state, index):
        cfg = self._config(state, index)
        out = state["dir"] / f"op-{next(state['runs'])}"
        t0 = time.perf_counter()
        entries = roomsim.generate_dataset(cfg, 1, out, threads=1)
        wall = time.perf_counter() - t0
        problems = _check_records(out, entries, cfg)
        shutil.rmtree(out)
        return OpResult(wall, 1, [("room{}-t60q{}".format(*_cell(index)), wall)], problems)

    def final_check(self, state):
        again = state["dir"] / "reference-again"
        t0 = time.perf_counter()
        roomsim.generate_dataset(self._config(state, 0), 1, again, threads=1)
        wall = time.perf_counter() - t0
        ref = state["dir"] / "reference"
        names = sorted(p.name for p in ref.iterdir())
        problems = []
        if names != sorted(p.name for p in again.iterdir()) or any(
            (ref / n).read_bytes() != (again / n).read_bytes() for n in names
        ):
            problems.append("resynthesis under the same seed is not byte-identical")
        return [OpResult(wall, 1, [], problems)]


def _cell(index):
    """(room scenario, T60 quarter) of synth operation ``index``."""
    return index % 3, (index // 3) % T60_BANDS


def _check_records(out, entries, cfg):
    problems = []
    n = int(round(cfg.duration_s * cfg.sample_rate))
    for entry in entries:
        for key in ("noisy_path", "target_path"):
            wave = read_wav(Path(out) / entry[key])
            if wave.samples.shape != (cfg.mics, n) or wave.sample_rate != cfg.sample_rate:
                problems.append(
                    f"{entry[key]}: {wave.samples.shape} at {wave.sample_rate} Hz, "
                    f"expected ({cfg.mics}, {n}) at {cfg.sample_rate} Hz"
                )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Train("train-6s", long=True, mode="nlm", steps=3, checkpoint_every=1, warmup_steps=1),
        Train("train-1s-splm", long=False, mode="splm", steps=8, checkpoint_every=4, warmup_steps=2),
        Infer(),
        Synth(),
    )
}
