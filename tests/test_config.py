import numpy as np
import pytest

from neurobeam.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
    write_config,
)


def test_defaults_roundtrip_through_dict():
    cfg = RunConfig()
    assert config_from_dict(cfg.to_dict()) == cfg


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        config_from_dict({"bogus": 1})


def test_unknown_nested_key_names_full_path():
    with pytest.raises(ConfigError, match="model.depth"):
        config_from_dict({"model": {"depth": 7}})


def test_schema_version_rejected():
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"schema_version": 99})


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="splm"):
        config_from_dict({"localization": {"mode": "magic"}})


def test_bad_convention_rejected():
    with pytest.raises(ConfigError, match="sisnr_convention"):
        config_from_dict({"training": {"sisnr_convention": "db"}})


def test_lists_become_tuples():
    cfg = config_from_dict({"model": {"encoder_channels": [4, 8], "kernel": [3, 2]}})
    assert cfg.model.encoder_channels == (4, 8)
    assert cfg.model.kernel == (3, 2)


def test_explicit_positions_geometry():
    pos = [[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0], [0.0, 0.05, 0.0]]
    cfg = config_from_dict({"array": {"mics": 3, "positions": pos}})
    geom = cfg.geometry()
    assert np.allclose(geom.positions, pos)
    assert cfg.dataset_config().positions == ((0.05, 0.0, 0.0), (-0.05, 0.0, 0.0), (0.0, 0.05, 0.0))


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


def test_reference_mic_must_fit_array():
    with pytest.raises(ConfigError, match="reference_mic"):
        config_from_dict({"array": {"mics": 2}, "training": {"reference_mic": 5}})


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


def test_sections_are_the_domain_types():
    from neurobeam.dsp import StftConfig
    from neurobeam.roomsim import DatasetConfig, MixtureRanges

    cfg = config_from_dict({"stft": {"window_length": 512, "hop": 128}})
    assert cfg.stft == StftConfig(512, 128, 512)
    assert cfg.stft.window.shape == (512,)
    assert set(cfg.to_dict()["stft"]) == {"window_length", "hop", "fft_size"}
    assert type(cfg.dataset) is MixtureRanges
    data = cfg.dataset_config()
    assert isinstance(data, DatasetConfig) and data.master_seed == cfg.seed
