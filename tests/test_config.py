import itertools
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurobeam.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)

from conftest import write_config


def test_defaults_roundtrip_through_dict():
    cfg = RunConfig()
    assert config_from_dict(cfg.to_dict()) == cfg


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        config_from_dict({"bogus": 1})


def test_unknown_nested_key_names_full_path():
    with pytest.raises(ConfigError, match="model.depth"):
        config_from_dict({"model": {"depth": 7}})
    # The model's bins follow the STFT; there is no key for them.
    with pytest.raises(ConfigError, match="unknown key 'model.freq_bins_model'"):
        config_from_dict({"model": {"freq_bins_model": 256}})


def test_schema_version_rejected():
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"schema_version": 99})


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="splm"):
        config_from_dict({"localization": {"mode": "magic"}})


def test_bad_convention_rejected(tmp_path, capsys):
    # SI-SNR has one scale, 10*log10 of powers: the key that chose another is
    # unknown in a config file, a --set and a checkpoint's meta alike (exit 1).
    from neurobeam.checkpoint import save_checkpoint
    from neurobeam.cli import main
    from neurobeam.training import checkpoint_meta

    unknown = "unknown key 'training.sisnr_convention'"
    for value in ("standard", "printed"):
        with pytest.raises(ConfigError, match=re.escape(unknown)):
            config_from_dict({"training": {"sisnr_convention": value}})
        with pytest.raises(ConfigError, match=re.escape(unknown)):
            apply_overrides(RunConfig(), {"training.sisnr_convention": value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"training": {"sisnr_convention": "standard"}}))
    meta = checkpoint_meta(RunConfig(), 0)
    meta["training"]["sisnr_convention"] = "standard"
    save_checkpoint(tmp_path / "ck.nbcp", {}, meta)
    write_config(tmp_path / "plain.json", RunConfig())
    for argv in (["synth", str(path), "--count", "1", "--out", str(tmp_path / "d")],
                 ["train", str(tmp_path / "plain.json"), "--set", "training.sisnr_convention=printed",
                  "--manifest", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "r")],
                 ["enhance", str(tmp_path / "ck.nbcp"), str(tmp_path / "in.wav"),
                  "--out", str(tmp_path / "out.wav")]):
        assert main(argv) == 1
        assert unknown in capsys.readouterr().err


def test_lists_become_tuples():
    cfg = config_from_dict({"model": {"encoder_channels": [4, 8], "kernel": [3, 2]}})
    assert cfg.model.encoder_channels == (4, 8)
    assert cfg.model.kernel == (3, 2)
    # An integer item of a list of numbers widens, as a number field does.
    cfg = config_from_dict({"dataset": {"rooms": [[5, 5, 3]], "t60_ranges": [[0.2, 0.4]],
                                        "target_distance_ranges": [[1, 2]],
                                        "sir_values_db": [0]}})
    assert cfg.dataset.rooms == ((5.0, 5.0, 3.0),) and cfg.dataset.sir_values_db == (0.0,)
    assert all(type(v) is float for v in cfg.dataset.rooms[0] + cfg.dataset.sir_values_db)


def test_explicit_positions_geometry():
    pos = [[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0], [0.0, 0.05, 0.0]]
    cfg = config_from_dict({"array": {"mics": 3, "positions": pos}})
    assert np.allclose(cfg.array.mic_positions, pos)
    assert cfg.dataset_config().positions == ((0.05, 0.0, 0.0), (-0.05, 0.0, 0.0), (0.0, 0.05, 0.0))


def test_positions_near_the_float_limit_load_without_a_warning():
    # Their difference overflows to inf: far apart, neither coincident nor
    # a RuntimeWarning on stderr. Coincident ones there are still rejected.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = config_from_dict({"array": {"mics": 2, "positions": [[1e308, 0, 0], [-1e308, 0, 0]]}})
        assert cfg.array.mic_positions[0, 0] == 1e308
        with pytest.raises(ConfigError, match="microphones 0 and 1 coincide"):
            config_from_dict({"array": {"mics": 2, "positions": [[1e308, 0, 0], [1e308, 0, 0]]}})


def test_positions_count_must_match_mics():
    with pytest.raises(ConfigError, match="array.positions"):
        config_from_dict({"array": {"mics": 4, "positions": [[0, 0, 0], [1, 0, 0]]}})


def test_type_validation():
    with pytest.raises(ConfigError, match="seed.*integer"):
        config_from_dict({"seed": "abc"})
    with pytest.raises(ConfigError, match="training.lr.*number"):
        config_from_dict({"training": {"lr": "fast"}})
    # Integers widen to floats quietly.
    cfg = config_from_dict({"training": {"gamma": 1}})
    assert cfg.training.gamma == 1.0 and isinstance(cfg.training.gamma, float)


@pytest.mark.parametrize("data, key", [
    ({"dataset": {"speech_dir": 5}}, "dataset.speech_dir"),
    ({"dataset": {"sir_values_db": "x"}}, "dataset.sir_values_db"),
    ({"array": {"positions": 3}}, "array.positions"),
    ({"training": {"lr": None}}, "training.lr"),
    ({"model": {"kernel": "ab"}}, "model.kernel"),
    ({"training": {"gamma": True}}, "training.gamma"),
    ({"model": {"kernel": ["5", 2]}}, "model.kernel[0]"),
    ({"dataset": {"sir_values_db": ["x"]}}, "dataset.sir_values_db[0]"),
    ({"dataset": {"rooms": [[5.0, 5.0, None]]}}, "dataset.rooms[0][2]"),
])
def test_values_checked_against_field_annotations(data, key):
    # Optional fields and null are checked too; a bool is never a number.
    with pytest.raises(ConfigError, match=f"key '{re.escape(key)}' expects"):
        config_from_dict(data)


def test_zone_count_checked_at_load():
    with pytest.raises(ConfigError, match="localization.zones"):
        config_from_dict({"localization": {"zones": 1}})


@pytest.mark.parametrize("stride, message", [
    ([], r"model\.stride must list 2 items, got 0"),
    ([0, 1], r"model\.stride\[0\] must be at least 1, got 0"),
    ([2, 1, 1], r"model\.stride must list 2 items, got 3"),
], ids=["stride0", "stride1", "stride2"])
def test_stride_checked_at_load(stride, message):
    # The load-time bin check takes stride[0] ** depth, so a stride without
    # two positive items is a config error, not a crash.
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"model": {"stride": stride}})


@pytest.mark.parametrize("kernel, message", [
    ([0, 2], "model.kernel[0] must be at least 1, got 0"),
    ([], "model.kernel must list 2 items, got 0"),
    ([5], "model.kernel must list 2 items, got 1"),
    ([5, 2, 1], "model.kernel must list 2 items, got 3"),
], ids=["kernel0", "kernel1", "kernel2", "kernel3"])
def test_kernel_checked_at_load(tmp_path, capsys, kernel, message):
    # By the stride's rule: a kernel without two positive items is a config
    # error naming the key, not a crash when the model is built.
    from neurobeam.cli import main

    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict({"model": {"kernel": kernel}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kernel": kernel}}))
    assert main(["train", str(path), "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["duration_s", "early_ms"])
def test_infinite_bounded_float_rejected_naming_it(tmp_path, capsys, key):
    # JSON Infinity passes a lower bound (inf > 0), so a float with a
    # declared bound must also be finite: a config error naming the key,
    # not an OverflowError when a record is drawn.
    from neurobeam.cli import main

    data = {"dataset": {key: float("inf")}}
    with pytest.raises(ConfigError, match=re.escape(f"dataset.{key} must be finite, got inf")):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    assert main(["synth", str(path), "--count", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert f"dataset.{key} must be finite" in err and "internal error" not in err


def test_unbounded_float_may_be_infinite():
    # An infinite SIR value means no interference; the key declares no bound.
    cfg = config_from_dict(json.loads('{"dataset": {"sir_values_db": [Infinity]}}'))
    assert cfg.dataset.sir_values_db == (float("inf"),)


@pytest.mark.parametrize("key, value, message", [
    ("sir_range_db", [-np.inf, 5], "sir_range_db[0] must be finite, got -inf"),
    ("snr_range_db", [0, np.inf], "snr_range_db[1] must be finite, got inf"),
    ("snr_range_db", [1e308, 1e308], "snr_range_db[0] must be at most 3082, got 1e+308"),
    ("sir_values_db", [-1e308], "sir_values_db[0] must be Infinity or in [-200, 3082] dB"),
    ("sir_values_db", [0, np.nan], "sir_values_db[1] must be Infinity or in [-200, 3082] dB"),
    ("sir_values_db", [-np.inf], "sir_values_db[0] must be Infinity or in [-200, 3082] dB"),
], ids=["sir_range_-inf", "snr_range_inf", "snr_range_1e308", "sir_value_-1e308",
        "sir_value_nan", "sir_value_-inf"])
def test_a_level_without_a_finite_power_ratio_is_named(tmp_path, capsys, key, value, message):
    # Each of these used to load, then end synth in an OverflowError or a
    # ZeroDivisionError (exit 2), or stop it midway naming no key.
    from neurobeam.cli import main

    data = {"dataset": {key: value}}
    with pytest.raises(ConfigError, match=re.escape(f"dataset.{message}")):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["synth", str(path), "--count", "1", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"dataset.{message}" in err


def test_levels_within_the_float_range_load():
    # Up to +3082 dB, 10^(dB/10) is a normal finite float. Below -200 dB a
    # level leaves too little margin to train: at -400 dB a step overflows
    # float32, and a subnormal ratio (-3200 dB) ended synth in a
    # ZeroDivisionError (exit 2).
    cfg = config_from_dict({"dataset": {"sir_range_db": [-200, 3082],
                                        "snr_range_db": [-200, 3082],
                                        "sir_values_db": [-200, 3082, np.inf]}})
    assert cfg.dataset.sir_values_db == (-200.0, 3082.0, np.inf)
    for key, value, message in [
        ("sir_range_db", [-201, 0], "sir_range_db[0] must be at least -200, got -201.0"),
        ("snr_range_db", [-201, 0], "snr_range_db[0] must be at least -200, got -201.0"),
        ("sir_values_db", [-201], "sir_values_db[0] must be Infinity or in [-200, 3082] dB"),
        ("sir_values_db", [-3200], "sir_values_db[0] must be Infinity or in [-200, 3082] dB"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"dataset.{message}")):
            config_from_dict({"dataset": {key: value}})


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEVELS = st.floats(-200, 3000)  # dB a record trains at
_POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
_UNIT = st.floats(0, 1)
_COUNTS = st.integers(0, 2**40)
_WIDTHS = st.integers(1, 2**40)
_COLA_STFTS = [
    {"window_length": 400, "hop": 100, "fft_size": 512},
    {"window_length": 512, "hop": 128, "fft_size": 512},
    {"window_length": 256, "hop": 64, "fft_size": 256},
]


def _lists(elements, size=None):
    """Lists of exactly ``size`` items, or of 1 to 4 without a size."""
    return st.lists(elements, min_size=size or 1, max_size=size or 4)


def _apart(positions):
    """Whether no two positions are ``np.allclose``: coincident microphones
    are rejected at load."""
    with np.errstate(over="ignore"):
        return not any(np.allclose(a, b) for a, b in itertools.combinations(positions, 2))


def _ordered_pairs(elements):
    return _lists(elements, 2).map(sorted)


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


@st.composite
def _config_dicts(draw):
    """Valid run configs as JSON objects; every key but ``array.mics`` is optional."""
    mics = draw(st.integers(2, 8))
    return draw(_section(
        {"array": _section(
            {"mics": st.just(mics)},
            radius_m=_POSITIVE | _WIDTHS,
            speed_of_sound=_POSITIVE,
            positions=st.none() | _lists(_lists(_FINITE, 3), mics).filter(_apart),
        )},
        seed=_COUNTS,
        stft=st.sampled_from(_COLA_STFTS),
        dataset=_section(
            rooms=_lists(_lists(_POSITIVE, 3), 3),  # paired with the 3 default T60 ranges
            sir_range_db=_ordered_pairs(_LEVELS),
            sir_values_db=st.none() | _lists(_LEVELS),
            speech_dir=st.none() | st.text(max_size=8),
            sample_rate=_WIDTHS,
            early_ms=_POSITIVE | _WIDTHS,
        ),
        model=_section(encoder_channels=st.lists(_WIDTHS, min_size=1, max_size=4),
                       kernel=_lists(_WIDTHS, 2), scale=_WIDTHS),
        localization=_section(
            zones=st.integers(2, 360),
            mode=st.sampled_from(["splm", "nlm"]),
            vad_threshold=_UNIT,
        ),
        training=_section(
            lr=_POSITIVE,
            steps=_COUNTS,
            reference_mic=st.integers(0, mics - 1),
        ),
    ))


@settings(max_examples=60, deadline=None)
@given(_config_dicts())
def test_config_roundtrips_through_json(data):
    cfg = config_from_dict(data)
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_reference_mic_must_fit_array():
    with pytest.raises(ConfigError, match="reference_mic"):
        config_from_dict({"array": {"mics": 2}, "training": {"reference_mic": 5}})


def test_from_meta_reads_the_recorded_sample_rate():
    from neurobeam.training import checkpoint_meta

    cfg = config_from_dict({"dataset": {"sample_rate": 8000}})
    run = RunConfig.from_meta(checkpoint_meta(cfg, 0))
    assert run.dataset.sample_rate == 8000
    assert (run.stft, run.array, run.model, run.localization) == (
        cfg.stft, cfg.array, cfg.model, cfg.localization)


def test_override_through_scalar_rejected():
    with pytest.raises(ConfigError, match="seed.deeper"):
        apply_overrides(RunConfig(), {"seed.deeper": 1})


def test_apply_overrides_dotted_paths():
    cfg = RunConfig()
    out = apply_overrides(cfg, {"training.steps": 77, "seed": 5})
    assert out.training.steps == 77 and out.seed == 5
    with pytest.raises(ConfigError, match="training.warmup"):
        apply_overrides(cfg, {"training.warmup": 3})


def test_write_and_load(tmp_path):
    path = tmp_path / "c.json"
    cfg = apply_overrides(RunConfig(), {"localization.mode": "splm"})
    write_config(path, cfg)
    assert load_config(path) == cfg


def test_non_cola_stft_rejected_at_load():
    with pytest.raises(ConfigError, match="stft"):
        config_from_dict({"stft": {"hop": 150}})


def test_stft_bins_the_encoder_cannot_halve_rejected_at_load(tmp_path, capsys):
    # 400/100/400 gives 201 bins, 200 modeled, not a multiple of 2**6: the
    # error names the keys to change, at load, not when training starts.
    from neurobeam.cli import main

    keys = (r"200 modeled bins \(stft\.fft_size // 2\) .*"
            r"model\.stride\[0\] \*\* len\(model\.encoder_channels\) = 2\*\*6")
    with pytest.raises(ConfigError, match=keys):
        config_from_dict({"stft": {"window_length": 400, "hop": 100, "fft_size": 400}})
    with pytest.raises(ConfigError, match=keys):
        apply_overrides(RunConfig(), {"stft.fft_size": 400})
    path = tmp_path / "config.json"
    write_config(path, RunConfig())
    assert main(["train", str(path), "--manifest", str(tmp_path / "m.jsonl"),
                 "--out", str(tmp_path / "run"), "--set", "stft.fft_size=400"]) == 1
    assert re.search(keys, capsys.readouterr().err)
    # Fewer encoder blocks halve 200 bins three times.
    assert config_from_dict({"stft": {"window_length": 400, "hop": 100, "fft_size": 400},
                             "model": {"encoder_channels": [8, 8, 8]}})


def test_sections_are_the_domain_types():
    from neurobeam.arraygeom import ArraySpec
    from neurobeam.dsp import StftConfig
    from neurobeam.roomsim import DatasetConfig, MixtureRanges

    cfg = config_from_dict({"stft": {"window_length": 512, "hop": 128}})
    assert cfg.stft == StftConfig(512, 128, 512)
    assert cfg.stft.window.shape == (512,)
    assert set(cfg.to_dict()["stft"]) == {"window_length", "hop", "fft_size"}
    assert type(cfg.dataset) is MixtureRanges
    data = cfg.dataset_config()
    assert isinstance(data, DatasetConfig) and data.master_seed == cfg.seed
    # The dataset is drawn for the run's array, speed of sound included.
    assert type(cfg.array) is ArraySpec and isinstance(data, ArraySpec)
    assert all(getattr(data, f.name) == getattr(cfg.array, f.name) for f in fields(ArraySpec))
