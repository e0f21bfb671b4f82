import json
import re

import numpy as np
import pytest

from neurobeam.cli import main
from neurobeam.config import RunConfig, write_config
from neurobeam.dsp import Waveform, write_wav

from conftest import toy_config_dict


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(toy_config_dict(), fh)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 2-step trained checkpoint over a tiny dataset, via the CLI."""
    base = tmp_path_factory.mktemp("cli_train")
    cfg_path = base / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(toy_config_dict(steps=2), fh)
    assert main(["synth", str(cfg_path), "--count", "1", "--out", str(base / "data")]) == 0
    assert (
        main([
            "train", str(cfg_path),
            "--manifest", str(base / "data" / "manifest.jsonl"),
            "--out", str(base / "run"),
        ])
        == 0
    )
    return {
        "base": base,
        "config": cfg_path,
        "manifest": base / "data" / "manifest.jsonl",
        "checkpoint": base / "run" / "checkpoint_last.nbcp",
        "noisy": base / "data" / "mix_00000_noisy.wav",
    }


def test_version_prints_schemas(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "neurobeam" in out and "config schema" in out and "checkpoint format" in out
    from neurobeam.model import CHECKPOINT_SCHEMA

    assert f"checkpoint schema {CHECKPOINT_SCHEMA})" in out


def test_synth_count_zero(tmp_path, config_path):
    assert main(["synth", str(config_path), "--count", "0", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "manifest.jsonl").read_text() == ""


def test_synth_deterministic(tmp_path, config_path):
    for name in ("a", "b"):
        assert (
            main(["synth", str(config_path), "--count", "1", "--out", str(tmp_path / name)])
            == 0
        )
    assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
        tmp_path / "b" / "manifest.jsonl"
    ).read_bytes()
    assert (tmp_path / "a" / "mix_00000_noisy.wav").read_bytes() == (
        tmp_path / "b" / "mix_00000_noisy.wav"
    ).read_bytes()


def test_invalid_config_key_names_it(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = toy_config_dict()
    data["training"]["learning_rate_typo"] = 0.1
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert main(["synth", str(path), "--count", "0", "--out", str(tmp_path / "d")]) == 1
    assert "training.learning_rate_typo" in capsys.readouterr().err


def test_config_value_of_wrong_type_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = toy_config_dict()
    data["dataset"]["speech_dir"] = 5
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert main(["synth", str(path), "--count", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "dataset.speech_dir" in err and "internal error" not in err


@pytest.mark.parametrize("section, key, value, named", [
    ("model", "encoder_channels", [16, 32, 64, 128, 256, 0], "model.encoder_channels[5]"),
    ("model", "lstm_hidden", 0, "model.lstm_hidden"),
    ("training", "log_every", 0, "training.log_every"),
    ("training", "checkpoint_every", 0, "training.checkpoint_every"),
], ids=["encoder_channels", "lstm_hidden", "log_every", "checkpoint_every"])
def test_train_rejects_width_or_interval_below_one(trained, tmp_path, capsys,
                                                   section, key, value, named):
    # A width of 0 would be clamped to 1 and train; an interval of 0 would
    # divide by zero. Both are config errors naming the key.
    from neurobeam.config import ConfigError, config_from_dict

    data = toy_config_dict()
    data.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=re.escape(named)):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["train", str(path), "--manifest", str(trained["manifest"]),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


def test_synth_rejects_unpaired_scenario_lists(tmp_path, capsys):
    # One T60 range beside three rooms and three distance ranges: the
    # scenario index drawn per record would run past the short list.
    path = tmp_path / "bad.json"
    data = toy_config_dict()
    data["dataset"]["t60_ranges"] = [[0.15, 0.25]]
    path.write_text(json.dumps(data))
    assert main(["synth", str(path), "--count", "4", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "dataset.t60_ranges" in err and "3, 1, 3 items" in err
    assert "internal error" not in err


def test_synth_rejects_empty_scenario_lists(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = toy_config_dict()
    data["dataset"].update(rooms=[], t60_ranges=[], target_distance_ranges=[])
    path.write_text(json.dumps(data))
    assert main(["synth", str(path), "--count", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert ("dataset.rooms, dataset.t60_ranges and dataset.target_distance_ranges "
            "must list at least one scenario") in err


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["synth", str(path), "--count", "0", "--out", str(tmp_path / "d")]) == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.json"), "--count", "0", "--out", "x"]) == 1


def test_cli_set_override_rejects_unknown(tmp_path, config_path, capsys):
    rc = main([
        "train", str(config_path), "--manifest", "m", "--out", "o",
        "--set", "training.nonsense=3",
    ])
    assert rc == 1
    assert "training.nonsense" in capsys.readouterr().err


def test_train_and_eval_cli(trained, tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["eval", str(trained["checkpoint"]), str(trained["manifest"]),
               "--out", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("metric,")
    assert "si_snri_db" in lines[4]


def test_enhance_cli_outputs(trained, tmp_path):
    out_wav = tmp_path / "enh.wav"
    rc = main(["enhance", str(trained["checkpoint"]), str(trained["noisy"]),
               "--out", str(out_wav)])
    assert rc == 0
    assert out_wav.exists()
    csv_path = tmp_path / "enh.wav.loc.csv"
    rows = csv_path.read_text().strip().splitlines()
    from neurobeam.dsp import num_frames, read_wav

    noisy = read_wav(trained["noisy"])
    assert len(rows) - 1 == num_frames(noisy.num_samples, 400, 100)


@pytest.mark.parametrize("zones", [0, 1])
def test_enhance_rejects_zones_below_two(trained, tmp_path, capsys, zones):
    rc = main(["enhance", str(trained["checkpoint"]), str(trained["noisy"]), "--mode", "splm",
               "--zones", str(zones), "--out", str(tmp_path / "o.wav")])
    assert rc == 1
    assert f"--zones must be at least 2, got {zones}" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_enhance_channel_mismatch_exit_code(trained, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    write_wav(bad, Waveform(np.zeros((3, 2000))))
    rc = main(["enhance", str(trained["checkpoint"]), str(bad),
               "--out", str(tmp_path / "o.wav")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "3" in err and "4" in err


def test_enhance_silence_vad_inactive(trained, tmp_path):
    silent = tmp_path / "silent.wav"
    write_wav(silent, Waveform(np.zeros((4, 3000))))
    out_wav = tmp_path / "out.wav"
    csv_path = tmp_path / "loc.csv"
    rc = main(["enhance", str(trained["checkpoint"]), str(silent),
               "--out", str(out_wav), "--csv", str(csv_path), "--mode", "splm"])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[3]) <= 0.5 for r in rows)


def test_enhance_wav_at_another_rate_exit_code(trained, tmp_path, capsys):
    wrong = tmp_path / "wrong_rate.wav"
    write_wav(wrong, Waveform(np.zeros((4, 3000)), 8000))
    rc = main(["enhance", str(trained["checkpoint"]), str(wrong),
               "--out", str(tmp_path / "out.wav")])
    assert rc == 1
    assert "wrong_rate.wav is at 8000 Hz, not at 16000 Hz" in capsys.readouterr().err


def test_enhance_wav_with_non_finite_sample_names_it(trained, tmp_path, capsys):
    from scipy.io import wavfile

    samples = np.zeros((3000, 4), np.float32)
    samples[100, 2] = np.nan
    bad = tmp_path / "nan_sample.wav"
    wavfile.write(bad, 16000, samples)
    rc = main(["enhance", str(trained["checkpoint"]), str(bad),
               "--out", str(tmp_path / "out.wav")])
    assert rc == 1
    assert f"{bad}: samples contain non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enhance", "eval"])
def test_truncated_checkpoint_exit_code(trained, tmp_path, capsys, command):
    cut = tmp_path / "cut.nbcp"
    data = trained["checkpoint"].read_bytes()
    cut.write_bytes(data[: len(data) // 2])
    second = trained["noisy"] if command == "enhance" else trained["manifest"]
    rc = main([command, str(cut), str(second), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cut.nbcp is truncated" in err and "Traceback" not in err


def test_eval_checkpoint_meta_of_wrong_type_exit_code(trained, tmp_path, capsys):
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint

    arrays, meta = load_checkpoint(trained["checkpoint"])
    meta["stft"]["hop"] = "100"
    save_checkpoint(tmp_path / "edited.nbcp", arrays, meta)
    rc = main(["eval", str(tmp_path / "edited.nbcp"), str(trained["manifest"]),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 1
    assert "stft.hop" in capsys.readouterr().err


def _run_on(command, checkpoint, trained, tmp_path):
    """Exit code of ``command`` (eval, enhance or train --resume) on ``checkpoint``."""
    out = str(tmp_path / "out")
    if command == "eval":
        return main(["eval", str(checkpoint), str(trained["manifest"]), "--out", out])
    if command == "enhance":
        return main(["enhance", str(checkpoint), str(trained["noisy"]), "--out", out])
    return main(["train", str(trained["config"]), "--manifest", str(trained["manifest"]),
                 "--out", out, "--resume", str(checkpoint)])


def _set_schema(value):
    return lambda meta: meta.update(schema=value)


def _drop(key):
    return lambda meta: meta.pop(key)


_META_FORMS = {
    "schema1": (_set_schema(1), "'schema' is 1; only schema 3 is read"),
    "schema2": (_set_schema(2), "'schema' is 2; only schema 3 is read"),
    "schema99": (_set_schema(99), "'schema' is 99; only schema 3 is read"),
    "no_schema": (_drop("schema"), "has no 'schema'"),
    **{f"no_{key}": (_drop(key), f"has no '{key}' section")
       for key in ("stft", "array", "model", "localization", "dataset", "training")},
    "no_dtype": (_drop("dtype"), "has no 'dtype'"),
}


@pytest.mark.parametrize("command", ["eval", "enhance", "train"])
@pytest.mark.parametrize("form", list(_META_FORMS))
def test_checkpoint_meta_of_other_form_exit_code(trained, tmp_path, capsys, form, command):
    # Schema 3 is the only checkpoint layout read, and every section of
    # its meta is required: any other form is a user error naming the file
    # and the key, never a silent load (exit 0) or a KeyError (exit 2).
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint

    edit, message = _META_FORMS[form]
    arrays, meta = load_checkpoint(trained["checkpoint"])
    edit(meta)
    path = tmp_path / "edited.nbcp"
    save_checkpoint(path, arrays, meta)
    assert _run_on(command, path, trained, tmp_path) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {path}: checkpoint meta {message}" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["eval", "enhance", "train"])
def test_checkpoint_without_checksum_exit_code(trained, tmp_path, capsys, command):
    from neurobeam.checkpoint import MAGIC

    data = trained["checkpoint"].read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    header = json.loads(data[start:end])
    del header["crc32"]
    raw = json.dumps(header, sort_keys=True).encode()
    path = tmp_path / "no_crc.nbcp"
    path.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw + data[end:])
    assert _run_on(command, path, trained, tmp_path) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {path} has a corrupt header" in err and "internal error" not in err


def test_train_nan_abort_exit_code(trained, tmp_path, capsys, nan_loss_at_step_1):
    cfg = tmp_path / "c3.json"
    with open(cfg, "w") as fh:
        json.dump(toy_config_dict(steps=3), fh)
    out = tmp_path / "run"
    rc = main(["train", str(cfg), "--manifest", str(trained["manifest"]),
               "--out", str(out)])
    assert rc == 2
    assert "non-finite loss" in capsys.readouterr().err
    assert (out / "checkpoint_last.nbcp").exists()  # last finite state retained


def test_synth_unwritable_out_dir_is_user_error(config_path, capsys):
    rc = main(["synth", str(config_path), "--count", "1",
               "--out", "/proc/definitely/not/writable"])
    assert rc == 1


def test_train_resume_cli(trained, tmp_path):
    cfg4 = tmp_path / "c4.json"
    with open(cfg4, "w") as fh:
        json.dump(toy_config_dict(steps=4), fh)
    out = trained["base"] / "resumed"
    import shutil

    shutil.copytree(trained["base"] / "run", out)
    rc = main(["train", str(cfg4), "--manifest", str(trained["manifest"]),
               "--out", str(out), "--resume", str(out / "checkpoint_last.nbcp")])
    assert rc == 0


def test_selfcheck_passes_within_budget(capsys):
    import time

    t0 = time.perf_counter()
    assert main(["selfcheck"]) == 0
    assert time.perf_counter() - t0 < 300.0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_selfcheck_corrupted_gradient_fails_with_op_name(capsys, monkeypatch):
    from neurobeam import autodiff as ad
    from neurobeam import selfcheck

    def wrong_square(x):
        def backward_fn(g):
            x.accumulate(3.0 * g * x.data, owned=True)  # d(x^2)/dx is 2x

        return ad.Tensor(x.data * x.data, (x,), backward_fn)

    case = ("wrong_square", lambda x: ad.reduce_sum(wrong_square(x)), [np.array([0.5, -1.5])])
    monkeypatch.setattr(selfcheck, "gradient_cases", lambda: [case])
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL gradient_wrong_square" in out


def test_write_config_roundtrip(tmp_path):
    from neurobeam.config import load_config

    path = tmp_path / "c.json"
    write_config(path, RunConfig())
    cfg = load_config(path)
    assert cfg == RunConfig()
