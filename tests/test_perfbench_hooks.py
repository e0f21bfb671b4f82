"""The benchmark's tracer patches module attributes by name; a renamed or
deleted function would break only traced benchmark runs, so check here
that every name it hooks exists and that undoing restores the originals."""

import importlib.util
from pathlib import Path

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
