"""The benchmark's tracer patches module attributes by name; a renamed or
deleted function would break only traced benchmark runs, so check here
that every name it hooks exists and that undoing restores the originals."""

import importlib.util
from pathlib import Path

import numpy as np

from neurobeam import autodiff as ad
from neurobeam import training
from neurobeam.config import config_from_dict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_exist_and_undo():
    tracing = _load_tracing()
    patches = tracing.Patches()
    try:
        # getattr inside install raises AttributeError on a missing name.
        tracing.install(tracing.Tracer(), patches)
        hooked = list(patches._undo)
        assert all(getattr(owner, attr) is not old for owner, attr, old in hooked)
    finally:
        patches.undo()
    assert hooked
    for owner, attr, old in hooked:
        assert callable(old)
        assert getattr(owner, attr) is old


def test_instrumented_model_spans_every_block():
    # The tracer instruments each model ``training.build_model`` returns,
    # reading its blocks and ``infer_weights`` by name: a renamed or deleted
    # one would break every traced train run.
    tracing = _load_tracing()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    cfg = config_from_dict({"model": {"scale": 16}, "localization": {"mode": "nlm"}})
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((cfg.array.mics, 3, cfg.stft.num_bins)) + 0j
    original = training.build_model
    try:
        tracing.install(tracer, patches)
        model = training.build_model(cfg)
        model.infer_weights(spec)
        with ad.no_grad():
            model.localize(model.forward_weights(spec))
    finally:
        patches.undo()
    assert training.build_model is original
    blocks = [f"model.enc{i}" for i in range(len(model.encoder))]
    blocks += [f"model.dec{i}" for i in range(len(model.decoder))]
    spanned = {name for name, *_ in tracer.spans}
    assert {"training.build_model", "model.infer_weights", "model.lstm", "model.restore",
            "model.nlm", *blocks} <= spanned
    assert set(blocks) <= set(tracing.SPAN_NAMES)
