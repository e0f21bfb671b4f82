"""Run configuration: one JSON document covering array geometry, mixture
ranges, STFT settings, model size, and training hyperparameters.

The ``stft``, ``array``, ``dataset`` and ``model`` sections are the domain
types themselves; the network's mic, bin and zone counts are not keys.
Each key's valid form (type, item count, bounds, choices) is declared once,
on its field, and ``load_section`` checks it, in a config, a ``--set``
override, a checkpoint's meta (``RunConfig.from_meta``) and a dataset
manifest's line (``roomsim.ManifestEntry``) alike; errors name the dotted
key, and ``load_config`` names the file. Flags override keys after the file is parsed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import typing
from dataclasses import dataclass, field

from .arraygeom import ArraySpec
from .dsp import StftConfig
from .model import CHECKPOINT_SCHEMA, MimoDccrnConfig
from .roomsim import DatasetConfig, MixtureRanges

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LocalizationSection:
    zones: int = field(default=12, metadata={"at least": 2, "at most": 360})  # one per degree
    mode: typing.Literal["splm", "nlm"] = "nlm"
    vad_threshold: float = field(default=0.5, metadata={"at least": 0, "at most": 1})


@dataclass(frozen=True)
class TrainingSection:
    lr: float = field(default=1e-3, metadata={"greater than": 0})
    beta1: float = field(default=0.9, metadata={"at least": 0, "less than": 1})
    beta2: float = field(default=0.999, metadata={"at least": 0, "less than": 1})
    eps: float = field(default=1e-8, metadata={"greater than": 0})
    steps: int = field(default=200, metadata={"at least": 0})
    gamma: float = field(default=1.0, metadata={"at least": 0})
    checkpoint_every: int = field(default=100, metadata={"at least": 1})
    log_every: int = field(default=1, metadata={"at least": 1})
    reference_mic: int = 0


@dataclass(frozen=True)
class RunConfig:
    schema_version: typing.Literal[CONFIG_SCHEMA_VERSION] = CONFIG_SCHEMA_VERSION
    seed: int = field(default=0, metadata={"at least": 0})
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
        sections, ``dataset.sample_rate`` and ``training.reference_mic``.
        A meta of another ``schema`` than ``CHECKPOINT_SCHEMA``, without one
        of these sections or with a key its section does not declare is a
        ``ConfigError`` naming the key."""
        if "schema" not in meta:
            raise ConfigError("checkpoint meta has no 'schema'")
        if meta["schema"] != CHECKPOINT_SCHEMA:
            raise ConfigError(f"checkpoint meta 'schema' is {meta['schema']!r}; "
                              f"only schema {CHECKPOINT_SCHEMA} is read")
        sections = {}
        for key in ("stft", "array", "model", "localization", "dataset", "training"):
            if key not in meta:
                raise ConfigError(f"checkpoint meta has no '{key}' section")
            sections[key] = meta[key]
        return load_section(cls, sections, "")

    # -- assembled objects ---------------------------------------------------
    def dataset_config(self):
        return DatasetConfig(
            master_seed=self.seed,
            **dataclasses.asdict(self.array),
            **dataclasses.asdict(self.dataset),
        )

    def to_dict(self):
        return _as_plain(self)


def _as_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_as_plain(v) for v in obj]
    return obj


_EXPECTED = {int: "an integer", float: "a number", str: "a string"}
# A field's ``metadata`` holds its bounds; ``Literal`` choices are the bound "one of".
_BOUNDS = {"at least": operator.ge, "greater than": operator.gt, "at most": operator.le,
           "less than": operator.lt, "one of": lambda value, choices: value in choices}


def _load_value(kind, bounds, value, dotted):
    """``value`` checked against the annotation ``kind`` and the field's
    ``bounds``: a dataclass is a section; ``X | None`` takes None or an X;
    ``tuple[X, ...]`` takes a list of X and ``tuple[X, Y]`` a list of
    exactly those items, each checked (``key[i]`` in errors); an int widens
    to a float, and nothing else converts (a bool is never a number). A
    float with a declared bound must be finite."""
    if dataclasses.is_dataclass(kind):
        return load_section(kind, value, dotted)
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        (kind,) = [k for k in options if k is not type(None)]
        options = typing.get_args(kind)
    if typing.get_origin(kind) is typing.Literal:
        kind, bounds = type(options[0]), {"one of": list(options)}
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"key '{dotted}' expects a list, got {value!r}")
        items = options[:1] * len(value) if options[-1] is Ellipsis else options
        if len(items) != len(value):
            raise ConfigError(f"{dotted} must list {len(items)} items, got {len(value)}")
        return tuple(_load_value(item, bounds, v, f"{dotted}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"key '{dotted}' expects {_EXPECTED[kind]}, got {value!r}")
    if bounds and kind is float and not math.isfinite(value):
        raise ConfigError(f"{dotted} must be finite, got {value!r}")
    for text, bound in bounds.items():
        if not _BOUNDS[text](value, bound):
            raise ConfigError(f"{dotted} must be {text} {bound}, got {value!r}")
    return value


def load_field(cls, name, value, label):
    """``value`` for the field ``name`` of ``cls``, checked as a config's; ``label`` names it."""
    bounds = {f.name: f.metadata for f in dataclasses.fields(cls)}[name]
    return _load_value(typing.get_type_hints(cls)[name], bounds, value, label)


def load_section(cls, data, path):
    """The dataclass ``cls`` built from the JSON object ``data`` (a config or
    meta section, or a manifest line), each value checked against its field's
    declaration; a field without a default is required. ``path`` names the section in errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path}' is not a JSON object" if path else "not a JSON object")
    kinds = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    prefix = f"{path}." if path else ""
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown key '{prefix}{key}'")
        kwargs[key] = _load_value(kinds[key], fields[key].metadata, value, prefix + key)
    for key, f in fields.items():
        if key not in kwargs and dataclasses.MISSING is f.default is f.default_factory:
            raise ConfigError(f"no key '{prefix}{key}'")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid config section '{path}': {exc}" if path else str(exc)) from exc


def config_from_dict(data):
    return load_section(RunConfig, data, "")


def load_config(path):
    """The run config in the JSON file at ``path``; every error names the file."""
    try:
        with open(path, "rb") as fh:
            return config_from_dict(json.load(fh))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def apply_overrides(cfg, overrides):
    """Apply dotted-path overrides (e.g. {'training.steps': 50}) on top of a
    parsed config; CLI flags take precedence over the file."""
    data = cfg.to_dict()
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = data
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown key '{dotted}'")
        node[leaf] = value
    return config_from_dict(data)
