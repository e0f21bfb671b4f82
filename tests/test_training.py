import json
import re

import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.config import ConfigError, config_from_dict
from neurobeam.dsp import read_wav, stft
from neurobeam.losses import (
    bce_loss,
    filter_and_sum_tensor,
    si_snr_loss,
    synthesize_waveform,
    total_loss,
)
from neurobeam.training import (
    CHECKPOINT_NAME,
    LOG_NAME,
    TrainingDiverged,
    build_model,
    evaluate,
    evaluate_records,
    interior_slice,
    summarize,
    train,
    write_report,
)

from conftest import toy_config_dict


def _strip_wall(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for r in rows:
        r.pop("wall_ms")
    return rows


def test_train_short_run_writes_artifacts(tmp_path, toy_dataset):
    cfg = config_from_dict(toy_config_dict(steps=2))
    history = train(cfg, toy_dataset["manifest"], tmp_path / "run")
    assert len(history) == 2
    assert all(np.isfinite(h["total"]) for h in history)
    assert (tmp_path / "run" / CHECKPOINT_NAME).exists()
    assert len(_strip_wall(tmp_path / "run" / LOG_NAME)) == 2


def test_train_splm_mode(tmp_path, toy_dataset):
    base = toy_config_dict(steps=2)
    base["localization"] = {"mode": "splm", "zones": 12}
    cfg = config_from_dict(base)
    history = train(cfg, toy_dataset["manifest"], tmp_path / "run")
    assert all(np.isfinite(h["total"]) for h in history)
    # An splm checkpoint has no neural localization head but evaluates fine.
    from neurobeam.training import evaluate

    summary = evaluate(toy_dataset["manifest"], tmp_path / "run" / CHECKPOINT_NAME)
    assert 0.0 <= summary["avg"]["acc"] <= 1.0


def test_train_deterministic_across_runs(tmp_path, toy_dataset):
    cfg = config_from_dict(toy_config_dict(steps=2))
    train(cfg, toy_dataset["manifest"], tmp_path / "a")
    train(cfg, toy_dataset["manifest"], tmp_path / "b")
    assert (tmp_path / "a" / CHECKPOINT_NAME).read_bytes() == (
        tmp_path / "b" / CHECKPOINT_NAME
    ).read_bytes()
    assert _strip_wall(tmp_path / "a" / LOG_NAME) == _strip_wall(tmp_path / "b" / LOG_NAME)


@pytest.mark.parametrize("mode", ["nlm", "splm"])
def test_train_checkpoint_bit_identical_on_one_and_two_workers(tmp_path, toy_dataset,
                                                               monkeypatch, mode):
    # The conv kernels split their band loop across the caller and a worker
    # thread and keep the serial arithmetic, so a 2-step run writes the same
    # checkpoint bytes with one worker and two. A 1 MiB band budget gives
    # this 1 s run's calls enough bands to split, so the worker does run.
    import hashlib

    from neurobeam import layers

    data = toy_config_dict(steps=2)
    data["localization"] = {"mode": mode}
    cfg = config_from_dict(data)
    monkeypatch.setattr(layers, "_BAND_BYTES", 1 << 20)
    submitted, submit = [], layers._worker.submit
    monkeypatch.setattr(layers._worker, "submit", lambda fn: submitted.append(fn) or submit(fn))
    digests, logs = [], []
    for workers in (1, 2):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        train(cfg, toy_dataset["manifest"], tmp_path / str(workers))
        digests.append(hashlib.sha256((tmp_path / str(workers) / CHECKPOINT_NAME).read_bytes())
                       .hexdigest())
        logs.append(_strip_wall(tmp_path / str(workers) / LOG_NAME))
        assert bool(submitted) == (workers == 2)
    assert digests[0] == digests[1]
    assert logs[0] == logs[1]


def test_resume_reproduces_trajectory(tmp_path, toy_dataset):
    full_cfg = config_from_dict(toy_config_dict(steps=4, checkpoint_every=2))
    train(full_cfg, toy_dataset["manifest"], tmp_path / "full")

    half_cfg = config_from_dict(toy_config_dict(steps=2, checkpoint_every=2))
    train(half_cfg, toy_dataset["manifest"], tmp_path / "split")
    resumed_cfg = config_from_dict(toy_config_dict(steps=4, checkpoint_every=2))
    train(
        resumed_cfg, toy_dataset["manifest"], tmp_path / "split",
        resume=tmp_path / "split" / CHECKPOINT_NAME,
    )
    assert (tmp_path / "full" / CHECKPOINT_NAME).read_bytes() == (
        tmp_path / "split" / CHECKPOINT_NAME
    ).read_bytes()
    assert _strip_wall(tmp_path / "full" / LOG_NAME) == _strip_wall(
        tmp_path / "split" / LOG_NAME
    )


def test_resume_logs_each_step_once(tmp_path, toy_dataset):
    # A run that went on past its last checkpoint and restarts from it
    # logs the steps after the checkpoint again.
    import shutil

    out = tmp_path / "run"
    half_cfg = config_from_dict(toy_config_dict(steps=2, checkpoint_every=2))
    train(half_cfg, toy_dataset["manifest"], out)
    step2 = tmp_path / "step2.nbcp"
    shutil.copy(out / CHECKPOINT_NAME, step2)
    cfg = config_from_dict(toy_config_dict(steps=4, checkpoint_every=2))
    train(cfg, toy_dataset["manifest"], out, resume=out / CHECKPOINT_NAME)
    train(cfg, toy_dataset["manifest"], out, resume=step2)
    assert [row["step"] for row in _strip_wall(out / LOG_NAME)] == [0, 1, 2, 3]


@pytest.mark.parametrize("section, values, key", [
    ("stft", {"window_length": 512, "hop": 128}, "stft"),
    ("array", {"radius_m": 0.06}, "array"),
    ("dataset", {"sample_rate": 8000}, "dataset.sample_rate"),
    ("model", {"lstm_hidden": 128}, "model"),
    ("localization", {"mode": "splm"}, "localization.mode"),
    ("localization", {"zones": 8}, "localization.zones"),
    ("training", {"reference_mic": 2}, "training.reference_mic"),
])
def test_resume_rejects_checkpoint_of_other_settings(tmp_path, toy_dataset, section, values, key):
    # Each of these settings builds the model, its input or its losses: a
    # resumed run under another value would train on from another run's state.
    train(config_from_dict(toy_config_dict(steps=1)), toy_dataset["manifest"], tmp_path / "run")
    other = toy_config_dict(steps=2)
    other[section] = {**other.get(section, {}), **values}
    with pytest.raises(ValueError, match=f"records {key} "):
        train(config_from_dict(other), toy_dataset["manifest"], tmp_path / "run",
              resume=tmp_path / "run" / CHECKPOINT_NAME)


def test_resume_rejects_step_that_is_not_the_optimizers(tmp_path, toy_dataset, capsys):
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint
    from neurobeam.cli import main

    cfg = config_from_dict(toy_config_dict(steps=1))
    train(cfg, toy_dataset["manifest"], tmp_path / "run")
    ckpt = tmp_path / "run" / CHECKPOINT_NAME
    arrays, meta = load_checkpoint(ckpt)
    save_checkpoint(ckpt, arrays, {**meta, "train_step": 2})
    config = tmp_path / "c2.json"
    config.write_text(json.dumps(toy_config_dict(steps=2)))
    argv = ["train", str(config), "--manifest", str(toy_dataset["manifest"]),
            "--out", str(tmp_path / "run"), "--resume", str(ckpt)]
    assert main(argv) == 1
    assert "records train_step 2, but its adam.step is 1" in capsys.readouterr().err
    # A meta without those keys is rejected, naming the first section it lacks.
    legacy = {k: v for k, v in meta.items() if k not in ("train_step", "stft", "array", "dataset")}
    save_checkpoint(ckpt, arrays, legacy)
    assert main(argv) == 1
    assert f"checkpoint {ckpt}: checkpoint meta has no 'stft'" in capsys.readouterr().err


def test_nan_abort_keeps_checkpoint(tmp_path, toy_dataset, nan_loss_at_step_1):
    from neurobeam.checkpoint import load_checkpoint

    cfg = config_from_dict(toy_config_dict(steps=4))
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 1"):
        train(cfg, toy_dataset["manifest"], tmp_path / "run")
    arrays, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_NAME)
    assert meta["train_step"] == 1 and arrays["adam.step"][0] == 1


def test_nan_gradient_with_finite_loss_aborts_before_update(tmp_path, toy_dataset, monkeypatch):
    from neurobeam import training
    from neurobeam.checkpoint import load_checkpoint

    models, backward_calls = [], []
    real_build, real_backward = training.build_model, ad.backward

    def recording_build(cfg):
        models.append(real_build(cfg))
        return models[-1]

    def poisoned_backward(loss):
        real_backward(loss)
        backward_calls.append(loss)
        if len(backward_calls) == 2:  # step 1: the loss stays finite
            models[0].params()["dec2.bn.gamma"].grad[0, 0] = np.nan

    monkeypatch.setattr(training, "build_model", recording_build)
    monkeypatch.setattr(ad, "backward", poisoned_backward)
    cfg = config_from_dict(toy_config_dict(steps=4, checkpoint_every=100))
    with pytest.raises(TrainingDiverged, match="non-finite gradient of dec2.bn.gamma at step 1"):
        train(cfg, toy_dataset["manifest"], tmp_path / "run")
    assert np.isfinite(backward_calls[1].item())
    arrays, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_NAME)
    assert meta["train_step"] == 1
    for name, p in models[0].params().items():
        assert np.all(np.isfinite(p.data)), name
        assert np.array_equal(arrays[f"param.{name}"], p.data), name


def test_empty_manifest_rejected(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    cfg = config_from_dict(toy_config_dict())
    with pytest.raises(ValueError, match="empty"):
        train(cfg, manifest, tmp_path / "run")


def test_gamma_zero_is_pure_bce_and_head_reachability(toy_dataset):
    """The localization head is reachable only through the BCE branch."""
    cfg = toy_dataset["config"]
    stft_cfg = cfg.stft
    model = build_model(cfg)
    entry = toy_dataset["entries"][0]
    noisy = read_wav(toy_dataset["dir"] / entry["noisy_path"])
    target = read_wav(toy_dataset["dir"] / entry["target_path"])
    spec = stft(noisy, stft_cfg)

    def losses():
        w = model.forward_weights(spec, training=True)
        enh = filter_and_sum_tensor(w, spec)
        est = synthesize_waveform(enh, stft_cfg)
        ref = target.samples[0][: est.shape[0]]
        lsisnr = si_snr_loss(est, ref)
        zhat = model.localize(w, training=True)
        truth = np.zeros((w.shape[3], 12))
        truth[:, 2] = 1.0
        return bce_loss(truth, zhat), lsisnr

    head_params = [p for name, p in model.params().items() if name.startswith("nlm.")]
    assert head_params

    # Enhancement-only objective: the head receives no gradient.
    for p in model.params().values():
        p.zero_grad()
    bce, lsisnr = losses()
    ad.backward(lsisnr)
    assert all(p.grad is None or np.all(p.grad == 0) for p in head_params)

    # Full multi-task objective: the head trains.
    for p in model.params().values():
        p.zero_grad()
    bce, lsisnr = losses()
    ad.backward(total_loss(bce, lsisnr, gamma=1.0))
    assert any(p.grad is not None and np.abs(p.grad).max() > 0 for p in head_params)

    # gamma=0 keeps only the BCE value in the total.
    assert total_loss(bce, lsisnr, gamma=0.0).item() == bce.item()


def test_training_step_after_no_grad_block_still_trains(toy_dataset):
    from neurobeam.optim import Adam
    from neurobeam.training import training_step

    cfg = toy_dataset["config"]
    stft_cfg = cfg.stft
    entry = toy_dataset["entries"][0]
    model = build_model(cfg)
    adam = Adam(model.params(), lr=1e-3)
    spec = stft(read_wav(toy_dataset["dir"] / entry["noisy_path"]), stft_cfg)
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            model.forward_weights(spec, training=False)
            raise RuntimeError("inside the block")
    before = {k: p.data.copy() for k, p in model.params().items()}
    breakdown, fault = training_step(model, adam, cfg, entry, toy_dataset["dir"])
    assert fault is None and np.isfinite(breakdown.total)
    params = model.params()
    assert all(p.grad is not None for p in params.values())
    assert all(not np.array_equal(params[k].data, before[k]) for k in ("enc0.conv.w", "lstm.wx"))


# Ops with a backward in one training step, per kind (the function that
# made the op).
_STEP_OPS = {
    "nlm": {
        "_weights_op": 1, "add": 4, "bce_loss": 1, "block_kernel": 15, "concat": 1,
        "conv2d": 1, "conv_bn_prelu": 13, "lstm": 1, "matmul": 3, "mul": 1, "narrow": 1,
        "prelu": 1, "reshape": 5, "si_snr_loss": 1, "sigmoid": 1, "synthesize_waveform": 1,
        "transpose": 6, "zone_scores": 1,
    },
    "splm": {
        "_weights_op": 2, "add": 2, "bce_loss": 1, "block_kernel": 13, "concat": 1,
        "conv2d": 1, "conv_bn_prelu": 11, "lstm": 1, "matmul": 1, "mul": 1, "narrow": 1,
        "reshape": 3, "si_snr_loss": 1, "synthesize_waveform": 1, "transpose": 3,
    },
}


@pytest.mark.parametrize("mode", ["nlm", "splm"])
def test_training_step_graph_size_per_op_kind(tmp_path, toy_dataset, monkeypatch, mode):
    from collections import Counter

    losses, backward = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda loss: (losses.append(loss), backward(loss)))
    base = toy_config_dict(steps=1)
    base["localization"] = {"mode": mode}
    train(config_from_dict(base), toy_dataset["manifest"], tmp_path / "run")
    (loss,) = losses
    kinds = Counter(node._backward.__qualname__.split(".")[0]
                    for node in ad._topo_order(loss) if node._backward is not None)
    assert dict(kinds) == _STEP_OPS[mode]
    assert sum(kinds.values()) == {"nlm": 58, "splm": 43}[mode]


class _MicSelectorModel:
    """Identity beamformer: passes microphone 0 through unchanged."""

    mics = 4
    dtype = np.float64

    def forward_weights(self, spec_data, training=False):
        m, t, f = spec_data.shape
        w = np.zeros((2, m, f, t))  # (re, im) filters
        w[0, 0] = 1.0
        return ad.Tensor(w)


def test_identity_model_improvement_is_zero(toy_dataset):
    cfg = toy_dataset["config"]
    rows = evaluate_records(
        toy_dataset["entries"], toy_dataset["dir"], _MicSelectorModel(),
        cfg.stft, cfg.array, 12, "splm",
    )
    assert abs(rows[0]["si_snri_db"]) < 1e-3


@pytest.mark.parametrize("key, value, message", [
    ("sample_rate", 8000, "holds 16000 samples at 16000 Hz, but its entry has duration_s 1.0 at "
                          "sample_rate 8000"),
    ("duration_s", 1.5, "holds 16000 samples at 16000 Hz, but its entry has duration_s 1.5 at "
                        "sample_rate 16000"),
])
def test_evaluate_records_checks_each_wav_against_its_entry(toy_dataset, key, value, message):
    # Without a sample rate to check against (the benchmark's call), a WAV
    # must still be the record its entry describes.
    cfg = toy_dataset["config"]
    entry = {**toy_dataset["entries"][0], key: value}
    noisy = toy_dataset["dir"] / entry["noisy_path"]
    with pytest.raises(ValueError, match=re.escape(f"record 0: {noisy} {message}")):
        evaluate_records([entry], toy_dataset["dir"], _MicSelectorModel(), cfg.stft, cfg.array,
                         12, "splm")


def test_summary_buckets_and_report(tmp_path, toy_dataset):
    cfg = toy_dataset["config"]
    rows = evaluate_records(
        toy_dataset["entries"], toy_dataset["dir"], _MicSelectorModel(),
        cfg.stft, cfg.array, 12, "splm",
    )
    summary = summarize(rows)
    # Only the SIR=0 bucket is populated; the others are omitted.
    assert set(summary.keys()) == {0.0, "avg"}
    out = tmp_path / "report.csv"
    write_report(out, summary)
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,sir_+0db,avg"
    names = [line.split(",")[0] for line in lines[1:-1]]
    assert names == [
        "count", "si_snr_noisy_db", "si_snr_enhanced_db", "si_snri_db",
        "acc", "aer", "oer",
    ]
    assert lines[-1].startswith("#")


def test_report_header_with_all_buckets(tmp_path):
    from neurobeam.metrics import loc_metrics

    rows = []
    for i, sir in enumerate((-10.0, -5.0, 0.0, 10.0)):
        rows.append(
            {
                "id": i,
                "sir_db": sir,
                "si_snr_noisy_db": 0.0,
                "si_snr_enhanced_db": 1.0,
                "si_snri_db": 1.0,
                "metrics": loc_metrics([1, 2], [1, 2], [True, True], 12),
            }
        )
    summary = summarize(rows)
    out = tmp_path / "r.csv"
    write_report(out, summary)
    header = out.read_text().splitlines()[0]
    assert header == "metric,sir_-10db,sir_-5db,sir_+0db,sir_+10db,avg"


def test_checkpoint_meta_carries_run_settings(tmp_path, toy_dataset):
    from neurobeam.checkpoint import load_checkpoint

    cfg = config_from_dict(toy_config_dict(steps=1))
    train(cfg, toy_dataset["manifest"], tmp_path / "run")
    _, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_NAME)
    assert meta["stft"]["window_length"] == 400
    assert meta["array"]["mics"] == 4
    assert meta["localization"]["mode"] == "nlm"
    assert meta["train_step"] == 1
    assert meta["dataset"]["sample_rate"] == 16000
    assert meta["training"] == {"reference_mic": 0}
    assert meta["schema"] == 4 and "dtype" not in meta


@pytest.mark.parametrize("section, key, value", [
    ("stft", "hop", "100"),
    ("model", "kernel", 5),
    ("array", "positions", 3),
    ("localization", "vad_threshold", "0.5"),
    ("training", "reference_mic", "0"),
])
def test_restore_rejects_meta_value_of_wrong_type(tmp_path, toy_dataset, section, key, value):
    # The checksum covers the arrays, not the meta, so a hand-edited meta
    # is checked against the settings' types, and ``eval`` reports a user error.
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint
    from neurobeam.cli import main
    from neurobeam.training import restore_checkpoint

    train(config_from_dict(toy_config_dict(steps=0)), toy_dataset["manifest"], tmp_path / "run")
    arrays, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_NAME)
    meta[section][key] = value
    save_checkpoint(tmp_path / "edited.nbcp", arrays, meta)
    with pytest.raises(ConfigError, match=f"'{section}.{key}' expects"):
        restore_checkpoint(tmp_path / "edited.nbcp")
    assert main(["eval", str(tmp_path / "edited.nbcp"), str(toy_dataset["manifest"]),
                 "--out", str(tmp_path / "report.csv")]) == 1


def _edited_checkpoint(tmp_path, toy_dataset, edit):
    """A fresh toy checkpoint re-saved after ``edit(arrays, meta)``."""
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint

    train(config_from_dict(toy_config_dict(steps=0)), toy_dataset["manifest"], tmp_path / "run")
    arrays, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_NAME)
    edit(arrays, meta)
    save_checkpoint(tmp_path / "edited.nbcp", arrays, meta)
    return tmp_path / "edited.nbcp"


def _eval_exit_code(checkpoint, tmp_path, toy_dataset):
    from neurobeam.cli import main

    return main(["eval", str(checkpoint), str(toy_dataset["manifest"]),
                 "--out", str(tmp_path / "report.csv")])


@pytest.mark.parametrize("section, key, value, error, message", [
    ("training", "reference_mic", 7, ConfigError, "training.reference_mic 7 is out of range"),
    ("localization", "zones", 8, ValueError,
     r"'param\.nlm\.block1\.conv\.w' has shape \(2, 24, 4, 5, 2\), expected \(2, 16, 4, 5, 2\)"),
    ("model", "stride", [0, 1], ConfigError, r"model\.stride\[0\] must be at least 1, got 0"),
    ("model", "kernel", [0, 2], ConfigError, r"model\.kernel\[0\] must be at least 1, got 0"),
], ids=["reference_mic", "zones", "stride", "kernel"])
def test_restore_rejects_meta_value_the_model_contradicts(
        tmp_path, toy_dataset, section, key, value, error, message):
    # Well-typed, but not what the model was trained as: a mic it does not
    # have, a stride or a kernel that is not two positive integers (checked
    # by the same rules as a run config's), or a zone grid the model is then
    # built for and whose NLM head the arrays do not fit.
    from neurobeam.training import restore_checkpoint

    path = _edited_checkpoint(
        tmp_path, toy_dataset, lambda arrays, meta: meta[section].update({key: value}))
    with pytest.raises(error, match=message):
        restore_checkpoint(path)
    assert _eval_exit_code(path, tmp_path, toy_dataset) == 1


def _drop_running_mean(arrays):
    del arrays["buffer.enc0.bn.running_mean"]


def _narrow_running_var(arrays):
    arrays["buffer.enc0.bn.running_var"] = arrays["buffer.enc0.bn.running_var"][:, :1]


def _add_buffer(arrays):
    arrays["buffer.enc9.bn.running_mean"] = np.zeros((2, 4), np.float32)


@pytest.mark.parametrize("edit, message", [
    (_drop_running_mean, "missing tensor 'buffer.enc0.bn.running_mean'"),
    (_narrow_running_var, r"'buffer.enc0.bn.running_var' has shape \(2, 1\)"),
    (_add_buffer, r"lacks: \['buffer.enc9.bn.running_mean'\]"),
], ids=["missing", "misshaped", "unknown"])
def test_restore_checks_buffers_as_parameters(tmp_path, toy_dataset, edit, message):
    from neurobeam.training import restore_checkpoint

    path = _edited_checkpoint(tmp_path, toy_dataset, lambda arrays, meta: edit(arrays))
    with pytest.raises(ValueError, match=message):
        restore_checkpoint(path)
    assert _eval_exit_code(path, tmp_path, toy_dataset) == 1


def _cut_adam_moment(arrays):
    arrays["adam.v.enc0.conv.w"] = arrays["adam.v.enc0.conv.w"][:1]


@pytest.mark.parametrize("edit, message", [
    (_cut_adam_moment, "tensor 'adam.v.enc0.conv.w' has shape (1, 4, 4, 5, 2), "
                       "expected (2, 4, 4, 5, 2)"),
    (lambda arrays: arrays.pop("adam.step"), "is missing tensor 'adam.step'"),
    (lambda arrays: arrays.pop("adam.m.enc0.conv.w"), "is missing tensor 'adam.m.enc0.conv.w'"),
], ids=["misshaped", "no_step", "no_moment"])
def test_resume_checks_optimizer_arrays(tmp_path, toy_dataset, capsys, edit, message):
    # A cut moment would be broadcast into place and train on; a missing
    # array would end in a KeyError. Both are user errors naming the file
    # and the array, as the model's arrays are.
    from neurobeam.cli import main

    path = _edited_checkpoint(tmp_path, toy_dataset, lambda arrays, meta: edit(arrays))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(toy_config_dict(steps=1)))
    assert main(["train", str(config), "--manifest", str(toy_dataset["manifest"]),
                 "--out", str(tmp_path / "resumed"), "--resume", str(path)]) == 1
    assert f"error: checkpoint {path}: checkpoint {message}" in capsys.readouterr().err


def test_stft_of_other_size_trains_one_step(tmp_path, toy_dataset):
    # The model's bins follow the STFT: 129 analysis bins model 128.
    base = toy_config_dict(steps=1)
    base["stft"] = {"window_length": 256, "hop": 64, "fft_size": 256}
    history = train(config_from_dict(base), toy_dataset["manifest"], tmp_path / "run")
    assert len(history) == 1 and np.isfinite(history[0]["total"])


def _dataset_with_noisy_at(tmp_path, toy_dataset, rate):
    """A copy of the toy dataset whose noisy WAV is re-labelled at ``rate``."""
    import shutil

    from neurobeam.dsp import Waveform, write_wav

    data = tmp_path / "data"
    shutil.copytree(toy_dataset["dir"], data)
    noisy = data / toy_dataset["entries"][0]["noisy_path"]
    write_wav(noisy, Waveform(read_wav(noisy).samples, rate))
    return data


def test_train_and_eval_reject_wav_at_another_rate(tmp_path, toy_dataset):
    cfg = config_from_dict(toy_config_dict(steps=1))
    train(cfg, toy_dataset["manifest"], tmp_path / "run")
    data = _dataset_with_noisy_at(tmp_path, toy_dataset, 8000)
    expect = "mix_00000_noisy.wav is at 8000 Hz, not at 16000 Hz"
    with pytest.raises(ValueError, match=expect):
        train(cfg, data / "manifest.jsonl", tmp_path / "run2")
    with pytest.raises(ValueError, match=expect):
        evaluate(data / "manifest.jsonl", tmp_path / "run" / CHECKPOINT_NAME)


def _noisy_si_snr(toy_dataset, mic):
    """SI-SNR of the unprocessed mixture at ``mic`` as evaluation scores it."""
    from neurobeam.losses import si_snr

    entry = toy_dataset["entries"][0]
    stft_cfg = toy_dataset["config"].stft
    noisy = read_wav(toy_dataset["dir"] / entry["noisy_path"])
    target = read_wav(toy_dataset["dir"] / entry["target_path"])
    n = stft_cfg.window_length + (stft(noisy, stft_cfg).data.shape[1] - 1) * stft_cfg.hop
    sl = interior_slice(stft_cfg, n)
    return si_snr(noisy.samples[mic][:n][sl], target.samples[mic][:n][sl])


def test_evaluate_scores_at_the_recorded_mic_and_convention(tmp_path, toy_dataset):
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint

    cfg = config_from_dict(toy_config_dict(steps=0, reference_mic=2))
    train(cfg, toy_dataset["manifest"], tmp_path / "run")
    ckpt = tmp_path / "run" / CHECKPOINT_NAME
    report = tmp_path / "report.csv"
    summary = evaluate(toy_dataset["manifest"], ckpt, out_csv=report)
    expect = _noisy_si_snr(toy_dataset, 2)
    assert expect != _noisy_si_snr(toy_dataset, 0)
    assert summary["avg"]["si_snr_noisy_db"] == expect
    assert "si_snr 10*log10 of powers" in report.read_text().splitlines()[-1]  # the one scale

    # A meta without the recorded scoring settings and rate is rejected:
    # it would otherwise score at mic 0 and accept any rate.
    arrays, meta = load_checkpoint(ckpt)
    del meta["training"], meta["dataset"]
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(ConfigError, match="checkpoint meta has no 'dataset' section"):
        evaluate(toy_dataset["manifest"], ckpt)
    assert _eval_exit_code(ckpt, tmp_path, toy_dataset) == 1
