import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("flag, value", [("--count", 0), ("--count", -1), ("--threads", 0),
                                         ("--threads", -3)])
def test_synth_rejects_count_or_threads_below_one(tmp_path, config_path, capsys, flag, value):
    # A count below one wrote an empty dataset and a thread count below one
    # ran serially, both with exit 0; each is a user error naming the flag.
    argv = ["synth", str(config_path), "--count", "1", "--out", str(tmp_path / "d")]
    assert main(argv + [flag, str(value)]) == 1
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Prints the BLAS settings numpy is imported under, then those the CLI leaves.
_SPY_ON_NUMPY_IMPORT = """
import os, sys
VARS = {vars!r}
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in VARS])
sys.meta_path.insert(0, Spy())
import neurobeam.cli
print(seen[0], [os.environ.get(v) for v in VARS])
""".format(vars=_BLAS_VARS)


@pytest.mark.parametrize("user_value", [None, "2"], ids=["default", "user_set"])
def test_cli_pins_blas_to_one_thread_before_numpy_loads(user_value):
    # The conv kernels run their own second thread, so the CLI gives BLAS
    # one thread unless the user set a count, before numpy reads it.
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    out = subprocess.run([sys.executable, "-c", _SPY_ON_NUMPY_IMPORT], env=env, timeout=120,
                         capture_output=True, text=True, check=True).stdout
    expect = [user_value or "1", "1", "1"]
    assert out.strip() == f"{expect} {expect}"


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


def test_eval_names_a_record_too_short_to_score(tmp_path, capsys):
    # 0.04 s records give 600 enhanced samples, and the scored interior trims
    # one 400-sample window per edge; eval used to say only that the
    # reference signal is silent.
    data = toy_config_dict(steps=0)
    data["dataset"].update(duration_s=0.04, speech_len_s=0.02)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    manifest = tmp_path / "data" / "manifest.jsonl"
    assert main(["synth", str(cfg_path), "--count", "1", "--out", str(tmp_path / "data")]) == 0
    assert main(["train", str(cfg_path), "--manifest", str(manifest),
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    rc = main(["eval", str(tmp_path / "run" / "checkpoint_last.nbcp"), str(manifest),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 1
    assert ("record 0: 600 enhanced samples leave no scored interior; scoring needs more "
            "than 800") in capsys.readouterr().err


def test_eval_names_a_record_with_a_silent_target(trained, tmp_path, capsys):
    import shutil

    from neurobeam.dsp import read_wav

    data = tmp_path / "data"
    shutil.copytree(trained["manifest"].parent, data)
    target = data / "mix_00000_target.wav"
    write_wav(target, Waveform(np.zeros_like(read_wav(target).samples)))
    rc = main(["eval", str(trained["checkpoint"]), str(data / "manifest.jsonl"),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 1
    assert "record 0: reference signal is silent" in capsys.readouterr().err


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


_GOOD_WAV_SAMPLES = 1600


def _damages(frames):
    """A cut of a 4-channel float32 WAV of ``frames`` frames (a 58-byte
    header), or one changed header byte."""
    cuts = st.tuples(st.just("cut"), st.integers(0, 58 + 16 * frames - 1))
    changes = st.tuples(st.just("byte"), st.integers(0, 57), st.integers(0, 255))
    return cuts | changes


def _damage(path, damage):
    """Cut the WAV at ``path`` or change one of its header bytes."""
    data = bytearray(path.read_bytes())
    assert data.index(b"data") + 8 == 58
    if damage[0] == "cut":
        data = data[: damage[1]]
    else:
        data[damage[1]] = damage[2]
    path.write_bytes(bytes(data))


@example(damage=("cut", 4))
@example(damage=("cut", 20))
@example(damage=("cut", 44))
@example(damage=("cut", 58))  # at the end of the header
@example(damage=("cut", 58 + 16 * 100))  # after 100 of the samples
@example(damage=("byte", 16, 127))
@example(damage=("byte", 42, 0))
@example(damage=("byte", 22, 0))
@example(damage=("byte", 32, 127))
@example(damage=("byte", 55, 1))  # a data chunk that declares fewer samples than it holds
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(damage=_damages(_GOOD_WAV_SAMPLES))
def test_a_cut_or_damaged_wav_is_a_user_error_naming_it(trained, damage):
    # A 4-channel float32 WAV (a 58-byte header) cut short or with one header
    # byte changed: enhance exits 0 or 1, never 2, and an exit 1 names the
    # file. Each example above crashed or was read short, with only a warning.
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.wav"
        write_wav(path, Waveform(0.1 * rng.standard_normal((4, _GOOD_WAV_SAMPLES))))
        _damage(path, damage)
        code, err = _quiet(["enhance", str(trained["checkpoint"]), str(path),
                            "--out", str(Path(tmp) / "out.wav")])
    assert code in (0, 1), err
    assert code == 0 or str(path) in err, err
    if damage[0] == "cut" or damage in (("byte", 16, 127), ("byte", 55, 1)):
        assert code == 1, err


@pytest.mark.parametrize("command", ["synth", "train"])
def test_coincident_microphones_are_rejected_at_load(toy_dataset, tmp_path, capsys, command):
    # An nlm-mode run builds no steering vectors, so only the config's
    # check catches the array; nothing is written.
    data = toy_config_dict()
    data["array"] = {"positions": [[0.05, 0.0, 0.0], [0.0, 0.05, 0.0], [0.05, 0.0, 0.0],
                                   [0.0, -0.05, 0.0]]}
    data["localization"] = {"mode": "nlm"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    args = (["--count", "1"] if command == "synth"
            else ["--manifest", str(toy_dataset["manifest"])])
    rc = main([command, str(cfg), *args, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "array.positions: microphones 0 and 2 coincide" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _log_rows(path):
    """The rows of a training log without their ``wall_ms``."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def _run_with_log_tail(trained, tmp_path, tail):
    """A copy of the 2-step run whose training log ends in ``tail``, and a
    4-step config to resume it with."""
    import shutil

    out = tmp_path / "resumed"
    shutil.copytree(trained["base"] / "run", out)
    with open(out / "train_log.jsonl", "a") as fh:
        fh.write(tail)
    cfg = tmp_path / "c4.json"
    cfg.write_text(json.dumps(toy_config_dict(steps=4)))
    return out, cfg


def _train(trained, cfg, out, *flags):
    return main(["train", str(cfg), "--manifest", str(trained["manifest"]),
                 "--out", str(out), *flags])


def test_train_resume_drops_a_torn_last_log_line(trained, tmp_path):
    # The run went on past its step-2 checkpoint and was cut off while
    # logging step 2: the row lacks its end and its newline.
    out, cfg = _run_with_log_tail(trained, tmp_path, '{"loss_bce": 0.69, "loss_si')
    assert _train(trained, cfg, out, "--resume", str(out / "checkpoint_last.nbcp")) == 0
    assert _train(trained, cfg, tmp_path / "full") == 0
    assert _log_rows(out / "train_log.jsonl") == _log_rows(tmp_path / "full" / "train_log.jsonl")


def test_train_resume_names_a_log_line_that_is_not_a_row(trained, tmp_path, capsys):
    out, cfg = _run_with_log_tail(trained, tmp_path, '{"loss_bce": 0.69, "loss_si\n')
    log = out / "train_log.jsonl"
    text = log.read_text()
    assert _train(trained, cfg, out, "--resume", str(out / "checkpoint_last.nbcp")) == 1
    assert f"{log}:3: not a training log row" in capsys.readouterr().err
    assert log.read_text() == text


# Runs the CLI with argv[2:] and ends the process with os._exit(3) at the
# crash point argv[1] of a 4-step run that checkpoints at steps 0, 2 and 4:
# right after logging step 2, halfway through step 3's log row, or between
# the step-4 checkpoint's temporary write and its os.replace.
_CRASH_CHILD = """
import os, sys
from neurobeam import training
from neurobeam.cli import main

point = sys.argv[1]
real_open, real_replace, replaced = open, os.replace, []

class Log:
    def __init__(self, fh):
        self.fh, self.rows = fh, 0
    def write(self, row):
        self.rows += 1
        if point == "mid_row" and self.rows == 4:
            self.fh.write(row[: len(row) // 2])
            self.fh.flush()
            os._exit(3)
        self.fh.write(row)
    def flush(self):
        self.fh.flush()
        if point == "after_row" and self.rows == 3:
            os._exit(3)
    def close(self):
        self.fh.close()

def log_open(path, *args, **kwargs):
    fh = real_open(path, *args, **kwargs)
    return Log(fh) if path.name == training.LOG_NAME else fh

def replace(src, dst):
    replaced.append(dst)
    if point == "before_replace" and len(replaced) == 3:
        os._exit(3)
    real_replace(src, dst)

training.open, os.replace = log_open, replace
sys.exit(main(sys.argv[2:]))
"""


def test_train_killed_at_a_crash_point_resumes_exactly(trained, tmp_path):
    # Each crash point ends one child run; train --resume from what it left
    # on disk then gives the checkpoint bytes and log rows of a run that
    # was never stopped.
    import hashlib

    cfg = tmp_path / "c4.json"
    cfg.write_text(json.dumps(toy_config_dict(steps=4, checkpoint_every=2)))
    assert _train(trained, cfg, tmp_path / "full") == 0

    def digest(run):
        return hashlib.sha256((run / "checkpoint_last.nbcp").read_bytes()).hexdigest()

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    rows = _log_rows(tmp_path / "full" / "train_log.jsonl")
    for point in ("after_row", "mid_row", "before_replace"):
        out = tmp_path / point
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, point, "train", str(cfg),
             "--manifest", str(trained["manifest"]), "--out", str(out)],
            env=env, timeout=120, capture_output=True)
        assert child.returncode == 3, child.stderr
        log = (out / "train_log.jsonl").read_text()
        assert log.count("\n") == {"after_row": 3, "mid_row": 3, "before_replace": 4}[point]
        assert log.endswith("\n") == (point != "mid_row")
        assert (out / "checkpoint_last.nbcp.tmp").exists() == (point == "before_replace")
        assert _train(trained, cfg, out, "--resume", str(out / "checkpoint_last.nbcp")) == 0
        assert digest(out) == digest(tmp_path / "full"), point
        assert _log_rows(out / "train_log.jsonl") == rows, point


def _copy_data(trained, tmp_path):
    """A copy of the trained run's dataset directory."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(trained["manifest"].parent, data)
    return data


def _run_command(command, trained, manifest, tmp_path, *flags):
    """``train`` with the trained run's config, or ``eval`` of its checkpoint, on ``manifest``."""
    if command == "train":
        return main(["train", str(trained["config"]), "--manifest", str(manifest),
                     "--out", str(tmp_path / "run"), *flags])
    return main(["eval", str(trained["checkpoint"]), str(manifest),
                 "--out", str(tmp_path / "report.csv"), *flags])


def test_train_names_the_record_of_a_wav_with_other_channels(trained, tmp_path, capsys):
    from neurobeam.dsp import read_wav

    data = _copy_data(trained, tmp_path)
    noisy = data / trained["noisy"].name
    wave = read_wav(noisy)
    write_wav(noisy, Waveform(wave.samples[:2], wave.sample_rate))
    assert _run_command("train", trained, data / "manifest.jsonl", tmp_path) == 1
    assert f"error: record 0: {noisy} has 2 channel(s), not the array's 4" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command, reference_mic", [("train", 2), ("train", 0), ("eval", None)])
def test_a_one_channel_target_wav_is_named(trained, tmp_path, capsys, command, reference_mic):
    # A target cut to one channel used to end train in an IndexError (exit
    # 2) when reference_mic needs more, and to train and score silently at
    # reference_mic 0.
    from neurobeam.dsp import read_wav

    data = _copy_data(trained, tmp_path)
    target = data / "mix_00000_target.wav"
    wave = read_wav(target)
    write_wav(target, Waveform(wave.samples[:1], wave.sample_rate))
    flags = [] if reference_mic is None else ["--set", f"training.reference_mic={reference_mic}"]
    assert _run_command(command, trained, data / "manifest.jsonl", tmp_path, *flags) == 1
    assert f"error: record 0: {target} has 1 channel(s), not the array's 4" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("damage, named", [
    (lambda lines: lines[:-1] + [lines[-1][:10]], ":2: not a JSON object (Unterminated string"),
    (lambda lines: lines[:-1] + ["[1, 2]"], ":2: not a JSON object"),
    (lambda lines: [json.dumps({k: v for k, v in json.loads(lines[0]).items()
                                if k != "target_path"})] + lines[1:], ":1: no key 'target_path'"),
    (lambda lines: [json.dumps({**json.loads(lines[0]), "duration_s": "0.5"})] + lines[1:],
     ":1: 'duration_s' must be a number, not '0.5'"),
], ids=["torn_last_line", "not_an_object", "no_target_path", "string_duration"])
def test_a_bad_manifest_line_is_named(trained, tmp_path, capsys, command, damage, named):
    # A missing key used to end train and eval in a KeyError (exit 2), a
    # string duration train in a TypeError (exit 2), and a torn line in a
    # JSON message that named neither the file nor the line.
    data = _copy_data(trained, tmp_path)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines.append(lines[0])  # a second record, so the last line is not the first
    manifest.write_text("\n".join(damage(lines)))  # no newline after a torn write
    assert _run_command(command, trained, manifest, tmp_path) == 1
    assert f"error: {manifest}{named}" in capsys.readouterr().err


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


# A valid tiny run: one 0.5 s record in one room and a scale-16 model. The
# array is given by its positions, so they are a key the test can change.
_TINY_RUN = {
    "seed": 3,
    "array": {"positions": [[0.05, 0.0, 0.0], [0.0, 0.05, 0.0], [-0.05, 0.0, 0.0],
                            [0.0, -0.05, 0.0]]},
    "dataset": {"duration_s": 0.5, "speech_len_s": 0.3, "rooms": [[5.0, 5.0, 3.0]],
                "t60_ranges": [[0.15, 0.25]], "target_distance_ranges": [[1.0, 2.0]],
                "sir_values_db": [0.0]},
    "model": {"scale": 16},
    "training": {"steps": 1, "checkpoint_every": 1, "log_every": 1},
}
# Only these keys have an upper bound. Sizes (durations, rooms, widths) have
# none on purpose: a huge one asks for memory it may not get, a resource limit
# and not bad input, so a MemoryError is out of this test's scope.
_CAPPED = {"localization.zones", "localization.vad_threshold", "training.beta1",
           "training.beta2"}
# Values that crashed, ran silently or failed naming no key, and one break of
# each rule across items and fields; the keys a checkpoint's meta records are
# also set in a meta (``model.lstm_hidden``, ``localization.zones``, ...).
_PROBED = [
    ("training.steps", -1), ("training.lr", -1), ("training.eps", 0), ("training.beta1", 2),
    ("training.beta2", 2), ("training.gamma", -1), ("localization.vad_threshold", 5),
    ("localization.zones", 100000), ("seed", -1), ("array.mics", 1), ("array.radius_m", 0),
    ("array.speed_of_sound", 0), ("dataset.sample_rate", 0), ("dataset.duration_s", -1),
    ("dataset.speech_len_s", -1), ("dataset.early_ms", 0),
    ("dataset.interference_distance_m", 0), ("dataset.rooms", [[5, 5]]),
    ("dataset.sir_range_db", [5]), ("dataset.t60_ranges", [[0.3]]),
    ("dataset.sir_range_db", [15, -5]), ("dataset.t60_ranges", [[0.25, 0.15]]),
    ("dataset.target_azimuth_grid", [0, 180, 0]), ("dataset.target_azimuth_grid", [180, 0, 1]),
    ("dataset.speech_len_s", 0.8), ("dataset.sir_values_db", []), ("model.stride", [2, 2]),
    ("model.lstm_hidden", 0), ("localization.zones", 361),
    ("array.positions", [[0.05, 0.0, 0.0], [0.0, 0.05, 0.0], [0.0, 0.05, 0.0], [0.0, -0.05, 0.0]]),
]


def _keys(data, path=""):
    """(dotted key, value) of every number or list in a config dict."""
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _keys(value, dotted)
        elif isinstance(value, (int, float, list)) and dotted != "schema_version":
            yield dotted, value


def _changed(value, capped):
    """``value`` set to zero or a negative (or a huge value, if ``capped``);
    or, for a list, one item so changed, an item dropped or repeated, or the
    list reversed."""
    if not isinstance(value, list):
        return st.sampled_from([0, -1] + [10**6] * capped)
    lists = [st.just(value[:-1]), st.just(value + value[-1:]), st.just(value[::-1])]
    return st.one_of(lists + [
        _changed(item, capped).map(lambda new, i=i: value[:i] + [new] + value[i + 1:])
        for i, item in enumerate(value)
    ])


def _cases():
    from neurobeam.config import config_from_dict

    keys = sorted(_keys(config_from_dict(_TINY_RUN).to_dict()))
    return st.sampled_from(keys).flatmap(
        lambda kv: _changed(kv[1], kv[0] in _CAPPED).map(lambda value: (kv[0], value)))


def _set(data, dotted, value):
    *parents, leaf = dotted.split(".")
    for part in parents:
        data = data.setdefault(part, {})
    data[leaf] = value


def _quiet(argv):
    """(exit code, stderr) of the CLI on ``argv``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The tiny run's dataset and a checkpoint trained zero steps on it."""
    base = tmp_path_factory.mktemp("tiny_run")
    (base / "config.json").write_text(json.dumps(_TINY_RUN))
    assert _quiet(["synth", str(base / "config.json"), "--count", "1",
                   "--out", str(base / "data")])[0] == 0
    assert _quiet(["train", str(base / "config.json"), "--steps", "0",
                   "--manifest", str(base / "data" / "manifest.jsonl"),
                   "--out", str(base / "run")])[0] == 0
    return base


def _with_examples(cases):
    def decorate(test):
        for case in reversed(cases):
            test = example(case=case, probed=True)(test)
        return test
    return decorate


@_with_examples(_PROBED)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=_cases(), probed=st.just(False))
def test_value_out_of_form_is_a_user_error_naming_its_key(tiny_run, case, probed):
    # One key of a valid tiny run set to zero, a negative, a huge value (only
    # where there is an upper bound), a list of the wrong length or a
    # reversed pair: synth, then train if it loaded, exit 0 or 1, never 2,
    # and an exit 1 names the key. A checkpoint whose meta carries the same
    # change evaluates with exit 0 or 1, naming the key or the file. Each
    # probed value is rejected, naming its key, in a config and in a meta.
    from neurobeam.checkpoint import load_checkpoint, save_checkpoint

    key, value = case
    data = json.loads(json.dumps(_TINY_RUN))
    _set(data, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "config.json").write_text(json.dumps(data))
        code, err = _quiet(["synth", str(out / "config.json"), "--count", "1",
                            "--out", str(out / "data")])
        if code == 0:
            code, err = _quiet(["train", str(out / "config.json"), "--out", str(out / "run"),
                                "--manifest", str(out / "data" / "manifest.jsonl")])
        assert code in ((1,) if probed else (0, 1)), err
        assert code == 0 or key in err, err

        arrays, meta = load_checkpoint(tiny_run / "run" / "checkpoint_last.nbcp")
        section, name = key.split(".", 1) if "." in key else ("", key)
        if name in meta.get(section, {}):
            _set(meta, key, value)
            save_checkpoint(out / "edited.nbcp", arrays, meta)
            code, err = _quiet(["eval", str(out / "edited.nbcp"),
                                str(tiny_run / "data" / "manifest.jsonl"),
                                "--out", str(out / "report.csv")])
            assert code in ((1,) if probed else (0, 1)), err
            assert code == 0 or key in err or (str(out / "edited.nbcp") in err and not probed), err


# The tiny run's record WAVs hold 0.5 s at 16 kHz.
_TINY_FRAMES = 8000


@example(wav="noisy", damage=("cut", 4))
@example(wav="target", damage=("cut", 58 + 16 * 100))
@example(wav="noisy", damage=("byte", 20, 2))  # format tag 2: ADPCM
@example(wav="target", damage=("byte", 22, 0))  # 0 channels
@example(wav="noisy", damage=("byte", 34, 8))  # 8-bit float
@example(wav="target", damage=("byte", 0, ord("X")))  # RIFX
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(wav=st.sampled_from(["noisy", "target"]), damage=_damages(_TINY_FRAMES))
def test_a_cut_or_damaged_record_wav_is_a_user_error_naming_it(tiny_run, wav, damage):
    # A record's noisy or target WAV cut short or with one header byte
    # changed: train and eval exit 0 or 1, never 2, and an exit 1 names the
    # file. Each cut is rejected.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        shutil.copytree(tiny_run / "data", out / "data")
        path = out / "data" / f"mix_00000_{wav}.wav"
        _damage(path, damage)
        manifest = str(out / "data" / "manifest.jsonl")
        for argv in (["train", str(tiny_run / "config.json"), "--manifest", manifest,
                      "--out", str(out / "run")],
                     ["eval", str(tiny_run / "run" / "checkpoint_last.nbcp"), manifest,
                      "--out", str(out / "report.csv")]):
            code, err = _quiet(argv)
            assert code in (0, 1), err
            assert code == 0 or str(path) in err, err
            if damage[0] == "cut":
                assert code == 1, err


# Runs a toy synth, train, eval and enhance in a process that refuses to
# import scipy, then prints their exit codes and the scipy modules loaded.
_WITHOUT_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
sys.meta_path.insert(0, NoScipy())
from neurobeam.cli import main
base = sys.argv[1]
cfg, data, run = base + "/config.json", base + "/data", base + "/run"
codes = [
    main(["synth", cfg, "--count", "1", "--out", data]),
    main(["train", cfg, "--manifest", data + "/manifest.jsonl", "--out", run]),
    main(["eval", run + "/checkpoint_last.nbcp", data + "/manifest.jsonl",
          "--out", base + "/report.csv"]),
    main(["enhance", run + "/checkpoint_last.nbcp", data + "/mix_00000_noisy.wav",
          "--out", base + "/enhanced.wav"]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_cli_runs_without_scipy(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(_TINY_RUN))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                            timeout=300, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0] []", result.stderr
