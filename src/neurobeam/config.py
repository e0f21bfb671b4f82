"""Run configuration: one JSON document covering array geometry, mixture
ranges, STFT settings, model size, and training hyperparameters.

The ``stft``, ``array``, ``dataset`` and ``model`` sections are the domain
types themselves; the network's mic, bin and zone counts are not keys.
Loading is strict: unknown keys anywhere in the document are rejected by
their dotted path, and every value is checked against its field's type
annotation (``load_section``), in a config as in a checkpoint's meta
(``RunConfig.from_meta``, its one reader). Command-line flags override
individual keys after the file is parsed.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

import numpy as np

from .arraygeom import ArraySpec
from .dsp import StftConfig
from .model import CHECKPOINT_SCHEMA, MimoDccrnConfig
from .roomsim import DatasetConfig, MixtureRanges

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LocalizationSection:
    zones: int = 12
    mode: str = "nlm"
    vad_threshold: float = 0.5

    def __post_init__(self):
        if self.zones < 2:
            raise ConfigError(f"localization.zones must be at least 2, got {self.zones}")
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
        for key in ("checkpoint_every", "log_every"):
            if getattr(self, key) < 1:
                raise ConfigError(f"training.{key} must be at least 1, got {getattr(self, key)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    stft: StftConfig = field(default_factory=StftConfig)
    array: ArraySpec = field(default_factory=ArraySpec)
    dataset: MixtureRanges = field(default_factory=MixtureRanges)
    model: MimoDccrnConfig = field(default_factory=MimoDccrnConfig)
    localization: LocalizationSection = field(default_factory=LocalizationSection)
    training: TrainingSection = field(default_factory=TrainingSection)

    def __post_init__(self):
        mic, mics = self.training.reference_mic, self.array.mics
        if not 0 <= mic < mics:
            raise ConfigError(f"training.reference_mic {mic} is out of range for {mics} mics")
        # The network models every bin but DC; each encoder block divides them.
        bins, stride, depth = self.stft.num_bins - 1, self.model.stride[0], self.model.depth
        if bins % stride ** depth:
            raise ConfigError(
                f"{bins} modeled bins (stft.fft_size // 2) must be divisible by "
                f"model.stride[0] ** len(model.encoder_channels) = {stride}**{depth}"
            )

    @classmethod
    def from_meta(cls, meta):
        """The run settings a checkpoint's ``meta`` records, checked as a
        config's: its ``stft``, ``array``, ``model`` and ``localization``
        sections, ``dataset.sample_rate`` and the ``training`` scoring keys.
        A meta of another ``schema`` than ``CHECKPOINT_SCHEMA`` or without
        one of these sections is a ``ConfigError`` naming the key. Metas
        written before the model section was the network's own config repeat
        ``array.mics``, the bins and ``localization.zones`` as ``model.mics``,
        ``model.freq_bins_model`` and ``nlm``: not read."""
        if "schema" not in meta:
            raise ConfigError("checkpoint meta has no 'schema'")
        if meta["schema"] != CHECKPOINT_SCHEMA:
            raise ConfigError(
                f"checkpoint meta 'schema' is {meta['schema']!r}; "
                f"only schema {CHECKPOINT_SCHEMA} is read"
            )
        sections = {}
        for key in ("stft", "array", "model", "localization", "dataset", "training"):
            if key not in meta:
                raise ConfigError(f"checkpoint meta has no '{key}' section")
            sections[key] = meta[key]
        if isinstance(sections["model"], dict):
            sections["model"] = {k: v for k, v in sections["model"].items()
                                 if k not in ("mics", "freq_bins_model")}
        return load_section(cls, sections, "")

    # -- assembled objects ---------------------------------------------------
    def dataset_config(self):
        return DatasetConfig(
            master_seed=self.seed,
            **dataclasses.asdict(self.array),
            **dataclasses.asdict(self.dataset),
        )

    def to_dict(self):
        return {"schema_version": CONFIG_SCHEMA_VERSION, **_as_plain(self)}


def meta_dtype(meta):
    """The dtype of the model arrays a checkpoint's ``meta`` records as
    ``dtype``; a missing or unreadable one is a ``ConfigError``."""
    if "dtype" not in meta:
        raise ConfigError("checkpoint meta has no 'dtype'")
    if meta["dtype"] not in ("float32", "float64"):
        raise ConfigError(f"checkpoint meta 'dtype' {meta['dtype']!r} is not float32 or float64")
    return np.dtype(meta["dtype"])


def _as_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_as_plain(v) for v in obj]
    return obj


_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


def _load_value(kind, value, dotted):
    """``value`` checked against the annotation ``kind``: a dataclass is a
    section; ``X | None`` takes None or an X; ``tuple[X, ...]`` takes a list
    of X, each item checked (``key[i]`` in errors); an int widens to a
    float, and nothing else converts (a bool is never a number)."""
    if dataclasses.is_dataclass(kind):
        return load_section(kind, value, dotted)
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        (kind,) = [k for k in options if k is not type(None)]
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config key '{dotted}' expects a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_load_value(item, v, f"{dotted}[{i}]") for i, v in enumerate(value))
    if kind is float and type(value) is int:
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"config key '{dotted}' expects {_EXPECTED[kind]}, got {value!r}")
    return value


def load_section(cls, data, path):
    """The dataclass ``cls`` built from the JSON object ``data`` (a config
    section or a section of a checkpoint's meta), each value checked against
    its field's annotation; ``path`` names the section in errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config key '{dotted}'")
        kwargs[key] = _load_value(kinds[key], value, dotted)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section '{path or '<root>'}': {exc}") from exc


def config_from_dict(data):
    data = dict(data)
    version = data.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    return load_section(RunConfig, data, "")


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
