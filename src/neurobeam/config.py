"""Run configuration: one JSON document covering array geometry, mixture
ranges, STFT settings, model size, and training hyperparameters.

Loading is strict: unknown keys anywhere in the document are rejected by
their dotted path. Command-line flags override individual keys after the
file is parsed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .arraygeom import array_geometry
from .dsp import StftConfig
from .model import MimoDccrnConfig, NlmConfig
from .roomsim import DatasetConfig, MixtureRanges

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ArraySection:
    mics: int = 4
    radius_m: float = 0.05
    speed_of_sound: float = 343.0
    positions: tuple | None = None  # explicit [x, y, z] per mic; overrides the UCA

    def __post_init__(self):
        if self.positions is not None and len(self.positions) != self.mics:
            raise ConfigError(
                f"array.positions lists {len(self.positions)} microphones "
                f"but array.mics is {self.mics}"
            )


@dataclass(frozen=True)
class ModelSection:
    encoder_channels: tuple = (16, 32, 64, 128, 256, 256)
    kernel: tuple = (5, 2)
    stride: tuple = (2, 1)
    lstm_hidden: int = 256
    freq_bins_model: int = 256
    scale: int = 4


@dataclass(frozen=True)
class LocalizationSection:
    zones: int = 12
    mode: str = "nlm"
    vad_threshold: float = 0.5

    def __post_init__(self):
        if self.mode not in ("splm", "nlm"):
            raise ConfigError(f"localization.mode must be 'splm' or 'nlm', got '{self.mode}'")


@dataclass(frozen=True)
class TrainingSection:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    steps: int = 200
    gamma: float = 1.0
    checkpoint_every: int = 100
    log_every: int = 1
    sisnr_convention: str = "standard"
    reference_mic: int = 0

    def __post_init__(self):
        if self.sisnr_convention not in ("standard", "printed"):
            raise ConfigError(
                f"training.sisnr_convention must be 'standard' or 'printed', "
                f"got '{self.sisnr_convention}'"
            )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)
    array: ArraySection = field(default_factory=ArraySection)
    dataset: MixtureRanges = field(default_factory=MixtureRanges)
    model: ModelSection = field(default_factory=ModelSection)
    localization: LocalizationSection = field(default_factory=LocalizationSection)
    training: TrainingSection = field(default_factory=TrainingSection)

    def __post_init__(self):
        if not 0 <= self.training.reference_mic < self.array.mics:
            raise ConfigError(
                f"training.reference_mic {self.training.reference_mic} is out of "
                f"range for array.mics {self.array.mics}"
            )

    # -- assembled objects ---------------------------------------------------
    def geometry(self):
        return array_geometry(**dataclasses.asdict(self.array))

    def dataset_config(self):
        return DatasetConfig(
            master_seed=self.seed,
            mics=self.array.mics,
            radius_m=self.array.radius_m,
            positions=self.array.positions,
            **dataclasses.asdict(self.dataset),
        )

    def model_config(self):
        return MimoDccrnConfig(
            mics=self.array.mics,
            encoder_channels=self.model.encoder_channels,
            kernel=self.model.kernel,
            stride=self.model.stride,
            lstm_hidden=self.model.lstm_hidden,
            freq_bins_model=self.model.freq_bins_model,
            scale=self.model.scale,
        )

    def nlm_config(self):
        return NlmConfig(zones=self.localization.zones)

    def to_dict(self):
        return {"schema_version": CONFIG_SCHEMA_VERSION, **_as_plain(self)}


def _as_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_as_plain(v) for v in obj]
    return obj


_TUPLE_FIELDS = {
    "rooms", "t60_ranges", "target_distance_ranges", "target_azimuth_grid",
    "interference_azimuth_grid", "sir_range_db", "sir_values_db", "snr_range_db",
    "encoder_channels", "kernel", "stride", "positions",
}


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _coerce(value, default, dotted):
    """Validate a scalar against the field default's type; ints widen to
    floats but nothing else converts silently."""
    if default is None or value is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key '{dotted}' expects a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key '{dotted}' expects an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key '{dotted}' expects a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key '{dotted}' expects a string, got {value!r}")
        return value
    return value


def _build_section(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    known = {f.name: f for f in dataclasses.fields(cls)}
    defaults = cls()
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{path}.{key}'" if path else
                              f"unknown config key '{key}'")
        dotted = f"{path}.{key}" if path else key
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, dotted)
        elif key in _TUPLE_FIELDS and value is not None:
            kwargs[key] = _tuplify(value)
        else:
            kwargs[key] = _coerce(value, getattr(defaults, key), dotted)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config section '{path or '<root>'}': {exc}") from exc


_SECTION_TYPES = {
    "stft": StftConfig,
    "array": ArraySection,
    "dataset": MixtureRanges,
    "model": ModelSection,
    "localization": LocalizationSection,
    "training": TrainingSection,
}


def config_from_dict(data):
    data = dict(data)
    version = data.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    return _build_section(RunConfig, data, "")


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(cfg, overrides):
    """Apply dotted-path overrides (e.g. {'training.steps': 50}) on top of a
    parsed config; CLI flags take precedence over the file."""
    data = cfg.to_dict()
    for dotted, value in overrides.items():
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown config key '{dotted}'")
            node = node[part]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(f"unknown config key '{dotted}'")
        node[parts[-1]] = value
    return config_from_dict(data)
