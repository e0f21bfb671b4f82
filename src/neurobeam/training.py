"""Multi-task training loop (enhancement + localization) and evaluation.

Each step processes one manifest record (cycled in order), builds the
loss graph end-to-end — spectrogram, filter estimation, filter-and-sum,
overlap-add synthesis, SI-SNR, plus binary cross-entropy through the
chosen localization path — and takes one Adam step. Everything is
deterministic given the config seed; checkpoints carry parameters,
batch-norm statistics, and optimizer moments so a resumed run reproduces
the uninterrupted trajectory. Restore and resume read a checkpoint's meta
as a run config (``RunConfig.from_meta``); errors name the file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import reduce
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .arraygeom import ground_truth_map, steering_set
from .beamloc import enhance_utterance, localize
from .checkpoint import fill_arrays, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .dsp import read_wav, stft
from .losses import (
    LossBreakdown,
    bce_loss,
    filter_and_sum_tensor,
    si_snr,
    si_snr_loss,
    splm_map_tensor,
    synthesize_waveform,
    total_loss,
)
from .metrics import loc_metrics, merge_metrics
from .model import CHECKPOINT_SCHEMA, MimoDccrn
from .optim import Adam
from .roomsim import azimuth_track_from_entry, load_manifest

CHECKPOINT_NAME = "checkpoint_last.nbcp"
LOG_NAME = "train_log.jsonl"
SIR_BUCKETS = (-10.0, -5.0, 0.0, 10.0)


class TrainingDiverged(RuntimeError):
    def __init__(self, step, message):
        super().__init__(message)
        self.step = step


def build_model(cfg, seed=None):
    """The float32 network of ``cfg`` (``MimoDccrn.for_run``), seeded by
    ``cfg.seed`` unless ``seed`` is given."""
    return MimoDccrn.for_run(cfg, cfg.seed if seed is None else seed)


def checkpoint_meta(cfg, step):
    """The meta of a checkpoint of ``build_model(cfg)`` after ``step``
    steps: the arrays' schema, the sections the model is rebuilt from
    (``RunConfig.from_meta``), and the sample rate and reference mic that
    evaluation uses."""
    plain = cfg.to_dict()
    return {
        "schema": CHECKPOINT_SCHEMA,
        "train_step": step,
        "stft": plain["stft"],
        "array": {key: value for key, value in plain["array"].items() if value is not None},
        "model": plain["model"],
        "localization": plain["localization"],
        "dataset": {"sample_rate": cfg.dataset.sample_rate},
        "training": {"reference_mic": cfg.training.reference_mic},
    }


def geometry_from_meta(meta):
    """The ``ArraySpec`` a checkpoint was trained with."""
    return RunConfig.from_meta(meta).array


@contextmanager
def _naming(subject):
    """Re-raise a ``ConfigError`` or ``ValueError`` raised in the block with
    ``subject`` (the checkpoint or record it is about) in its message."""
    try:
        yield
    except ValueError as exc:
        kind = ConfigError if isinstance(exc, ConfigError) else ValueError
        raise kind(f"{subject}: {exc}") from exc


def restore_checkpoint(path):
    """(model, run config) of the checkpoint at ``path``. The checksum
    covers only the arrays, so the meta's settings are read as a run config
    (``RunConfig.from_meta``), with the config's checks (a ``ConfigError``
    names a missing or wrong key), and the float32 model is built from it
    by the training rule and loaded (a ``ValueError`` names an array the
    model does not fit by name, shape or dtype); either names the file."""
    arrays, meta = load_checkpoint(path)
    with _naming(f"checkpoint {path}"):
        run = RunConfig.from_meta(meta)
        model = MimoDccrn.for_run(run)
        model.load_arrays(arrays)
    return model, run


def _state(model, adam):
    """A training checkpoint's arrays by name: the model's, then the optimizer's."""
    return {**model.checkpoint_arrays(), **adam.state_arrays()}


def _save(out_dir, model, adam, cfg, step):
    save_checkpoint(out_dir / CHECKPOINT_NAME, _state(model, adam), checkpoint_meta(cfg, step))


def _read_record_wav(base_dir, entry, key, sample_rate, mics):
    """The record WAV ``entry[key]`` as ``read_wav`` reads it, which must also be
    what its entry describes: ``round(duration_s * sample_rate)`` samples (as
    synthesis and ``azimuth_track_from_entry`` round them) at its rate."""
    path = Path(base_dir) / entry[key]
    wave = read_wav(path, sample_rate, mics)
    rate = entry["sample_rate"]
    if wave.sample_rate != rate or wave.num_samples != np.rint(entry["duration_s"] * rate):
        raise ValueError(f"{path} holds {wave.num_samples} samples at {wave.sample_rate} Hz, but "
                         f"its entry has duration_s {entry['duration_s']} at sample_rate {rate}")
    return wave


def training_step(model, adam, cfg, entry, base_dir, steering=None):
    """One optimization step on one mixture.

    Returns ``(breakdown, fault)``: ``fault`` is None when the update was
    applied, else why it was not (a non-finite loss, or the first
    parameter whose gradient is non-finite), with the parameters untouched.
    """
    trn, stft_cfg = cfg.training, cfg.stft
    noisy, target = (_read_record_wav(base_dir, entry, key, cfg.dataset.sample_rate,
                                      cfg.array.mics) for key in ("noisy_path", "target_path"))
    spec = stft(noisy, stft_cfg)

    weights = model.forward_weights(spec, training=True)
    enhanced = filter_and_sum_tensor(weights, spec)
    estimate = synthesize_waveform(enhanced, stft_cfg)
    reference = target.samples[trn.reference_mic][: estimate.shape[0]]
    loss_sisnr = si_snr_loss(estimate, reference)

    track = azimuth_track_from_entry(entry, stft_cfg)
    truth = ground_truth_map(track, cfg.localization.zones)
    if cfg.localization.mode == "nlm":
        zhat = model.localize(weights, training=True)
    else:
        zhat = splm_map_tensor(weights, steering)
    loss_bce = bce_loss(truth, zhat)

    loss = total_loss(loss_bce, loss_sisnr, trn.gamma)
    breakdown = LossBreakdown(
        si_snr_db=-float(loss_sisnr.item()),
        loss_sisnr=float(loss_sisnr.item()),
        loss_bce=float(loss_bce.item()),
        total=float(loss.item()),
    )
    if not np.isfinite(breakdown.total):
        return breakdown, "non-finite loss"
    adam.zero_grad()
    ad.backward(loss)
    for name, p in model.params().items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            return breakdown, f"non-finite gradient of {name}"
    adam.step()
    return breakdown, None


def _truncate_log(path, step):
    """Drop the rows of the training log at ``path`` (if any) logged at
    ``step`` or later: a resumed run logs those steps again. A last line
    without its newline is a torn write and is dropped too, since the
    checkpoint, not the log, says where the run stands; a complete line
    that is not a row is an error naming ``file:line``."""
    if not path.exists():
        return
    with open(path, "rb") as fh:  # json decodes each line, so bad UTF-8 names its line too
        lines = fh.read().split(b"\n")[:-1]  # drops what follows the last newline
    rows = []
    for number, line in enumerate(lines, 1):
        try:
            if line.strip() and json.loads(line)["step"] < step:
                rows.append(line + b"\n")
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}:{number}: not a training log row ({exc!r})") from exc
    with open(path, "wb") as fh:
        fh.writelines(rows)


# The settings a resumed run must share with its checkpoint: what builds the
# model, its input and its losses (``vad_threshold`` is read only by scoring).
_RESUME_KEYS = ("model", "stft", "array", "dataset.sample_rate", "localization.mode",
                "localization.zones", "training.reference_mic")


def _resume(arrays, meta, cfg, model, adam):
    """Fill ``model`` and ``adam`` from a resume checkpoint (``fill_arrays`` over
    ``_state``). Reject one recorded under other ``_RESUME_KEYS`` settings than
    ``cfg``, or whose step is not its optimizer's."""
    run = RunConfig.from_meta(meta)
    for key in _RESUME_KEYS:
        recorded, wanted = (reduce(getattr, key.split("."), c) for c in (run, cfg))
        if recorded != wanted:
            raise ValueError(f"records {key} {recorded}, but the config's is {wanted}")
    state = _state(model, adam)
    fill_arrays(arrays, state, ("param.", "buffer.", "adam."))
    adam.step_count = int(state["adam.step"][0])
    if meta.get("train_step") != adam.step_count:
        raise ValueError(
            f"records train_step {meta.get('train_step')}, but its adam.step is {adam.step_count}")


def train(cfg, manifest_path, out_dir, resume=None):
    """Run the configured number of steps; returns the per-step log.

    A ``resume`` checkpoint must agree with ``cfg`` (``_resume``). On
    a non-finite loss or parameter gradient the last finite-state
    checkpoint is kept on disk and ``TrainingDiverged`` is raised.
    """
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = load_manifest(manifest_path)
    base_dir = manifest_path.parent
    model = build_model(cfg)
    adam = Adam(
        model.params(), lr=cfg.training.lr, beta1=cfg.training.beta1,
        beta2=cfg.training.beta2, eps=cfg.training.eps,
    )
    if resume is not None:
        arrays, meta = load_checkpoint(resume)
        with _naming(f"checkpoint {resume}"):
            _resume(arrays, meta, cfg, model, adam)
    start = adam.step_count

    steering = None
    if cfg.localization.mode == "splm":
        steering = steering_set(
            cfg.array, cfg.localization.zones, cfg.stft.frequencies(cfg.dataset.sample_rate)
        )

    log_path = out_dir / LOG_NAME
    if resume is not None:
        _truncate_log(log_path, start)
    log_fh = open(log_path, "a" if resume is not None else "w")
    history = []
    _save(out_dir, model, adam, cfg, start)
    try:
        for step in range(start, cfg.training.steps):
            t0 = time.perf_counter()
            entry = entries[step % len(entries)]
            with _naming(f"record {entry['id']}"):
                breakdown, fault = training_step(model, adam, cfg, entry, base_dir, steering)
            if fault is not None:
                # Parameters predate the poisoned update; keep them if finite.
                if all(np.all(np.isfinite(p.data)) for p in model.params().values()):
                    _save(out_dir, model, adam, cfg, step)
                raise TrainingDiverged(
                    step,
                    f"{fault} at step {step} "
                    f"(bce={breakdown.loss_bce}, sisnr={breakdown.loss_sisnr}); "
                    f"last finite checkpoint retained at {out_dir / CHECKPOINT_NAME}",
                )
            record = {
                "step": step,
                "loss_bce": breakdown.loss_bce,
                "loss_sisnr": breakdown.loss_sisnr,
                "total": breakdown.total,
                "si_snr_db": breakdown.si_snr_db,
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
            }
            history.append(record)
            if step % cfg.training.log_every == 0 or step == cfg.training.steps - 1:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                log_fh.flush()
            done = step + 1
            if done % cfg.training.checkpoint_every == 0 or done == cfg.training.steps:
                _save(out_dir, model, adam, cfg, done)
    finally:
        log_fh.close()
    return history


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def interior_slice(stft_cfg, length):
    """Scoring region: one analysis window trimmed from each edge."""
    return slice(stft_cfg.window_length, length - stft_cfg.window_length)


def evaluate_records(
    entries, base_dir, model, stft_cfg, array, zones, mode,
    vad_threshold=0.5, reference_mic=0, sample_rate=None,
):
    """Per-record SI-SNR improvement and localization metrics.

    The enhanced and the unprocessed signal are both scored against the
    target image at ``reference_mic``; a WAV with other channels than the
    array's mics, at another rate than ``sample_rate`` if given, or that is
    not the record its entry describes, is rejected. A ``ValueError`` names
    its record.
    """
    rows = []
    for entry in entries:
        with _naming(f"record {entry['id']}"):
            noisy = _read_record_wav(base_dir, entry, "noisy_path", sample_rate, array.mics)
            enhanced, loc = enhance_utterance(
                noisy, model, mode, zones, array, stft_cfg, vad_threshold
            )
            # Only scoring reads the target, so it is not held while enhancing.
            target = _read_record_wav(base_dir, entry, "target_path", sample_rate, array.mics)
            n = enhanced.num_samples
            if n <= 2 * stft_cfg.window_length:
                raise ValueError(
                    f"{n} enhanced samples leave no scored interior; scoring needs more "
                    f"than {2 * stft_cfg.window_length} (one analysis window per edge)")
            sl = interior_slice(stft_cfg, n)
            ref = target.samples[reference_mic][:n][sl]
            est = enhanced.samples[0][sl]
            unprocessed = noisy.samples[reference_mic][:n][sl]
            si_noisy = si_snr(unprocessed, ref)
            si_enh = si_snr(est, ref)

            track = azimuth_track_from_entry(entry, stft_cfg)
            truth = localize(ground_truth_map(track, zones))  # zone 1 where inactive
            metrics = loc_metrics(loc.zone_track, truth, ~np.isnan(track), zones)
        rows.append(
            {
                "id": entry["id"],
                "sir_db": entry["sir_db"],
                "si_snr_noisy_db": si_noisy,
                "si_snr_enhanced_db": si_enh,
                "si_snri_db": si_enh - si_noisy,
                "metrics": metrics,
            }
        )
    return rows


def _nearest_bucket(sir):
    return min(SIR_BUCKETS, key=lambda b: abs(b - sir))


def summarize(rows):
    """Group rows into the report's SIR buckets; empty buckets are omitted."""
    buckets = {}
    for row in rows:
        buckets.setdefault(_nearest_bucket(row["sir_db"]), []).append(row)
    summary = {}
    for bucket in SIR_BUCKETS:
        if bucket not in buckets:
            continue
        group = buckets[bucket]
        summary[bucket] = _pool(group)
    summary["avg"] = _pool(rows)
    return summary


def _pool(rows):
    pooled = merge_metrics([r["metrics"] for r in rows])
    return {
        "count": len(rows),
        "si_snr_noisy_db": float(np.mean([r["si_snr_noisy_db"] for r in rows])),
        "si_snr_enhanced_db": float(np.mean([r["si_snr_enhanced_db"] for r in rows])),
        "si_snri_db": float(np.mean([r["si_snri_db"] for r in rows])),
        "acc": pooled.acc,
        "aer": pooled.aer,
        "oer": pooled.oer,
    }


def write_report(path, summary):
    """CSV mirroring the SIR-bucket table layout, one metric per row."""
    cols = [b for b in SIR_BUCKETS if b in summary] + ["avg"]

    def label(col):
        return "avg" if col == "avg" else f"sir_{col:+.0f}db"

    metric_names = [
        "count", "si_snr_noisy_db", "si_snr_enhanced_db", "si_snri_db",
        "acc", "aer", "oer",
    ]
    with open(path, "w") as fh:
        fh.write("metric," + ",".join(label(c) for c in cols) + "\n")
        for name in metric_names:
            vals = []
            for col in cols:
                v = summary[col][name]
                vals.append(str(v) if name == "count" else f"{v:.4f}")
            fh.write(name + "," + ",".join(vals) + "\n")
        fh.write(
            "# si_snr 10*log10 of powers; values clamped to +/-60 dB; "
            "scored on the interior (one analysis window trimmed per edge)\n"
        )


def evaluate(manifest_path, checkpoint_path, out_csv=None, mode=None):
    """Evaluate a trained checkpoint over a manifest; returns the summary."""
    manifest_path = Path(manifest_path)
    entries = load_manifest(manifest_path)
    model, run = restore_checkpoint(checkpoint_path)
    loc = run.localization
    rows = evaluate_records(
        entries, manifest_path.parent, model, run.stft, run.array, loc.zones,
        mode or loc.mode, vad_threshold=loc.vad_threshold,
        reference_mic=run.training.reference_mic, sample_rate=run.dataset.sample_rate,
    )
    summary = summarize(rows)
    if out_csv is not None:
        write_report(out_csv, summary)
    return summary
