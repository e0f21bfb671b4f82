import os

# The tests run the CLI's arithmetic: BLAS keeps one thread per caller, set
# before numpy loads (OpenBLAS's thread count changes GEMM bits); a value
# already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json

import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.config import config_from_dict
from neurobeam.roomsim import generate_dataset


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def toy_config_dict(**training_overrides):
    """Desk-scale run config: 1-s mixtures, M=4, scale=4 model."""
    training = {"steps": 2, "checkpoint_every": 100, "log_every": 1}
    training.update(training_overrides)
    return {
        "seed": 42,
        "dataset": {
            "duration_s": 1.0,
            "speech_len_s": 0.6,
            "t60_ranges": [[0.15, 0.25]] * 3,
            "sir_values_db": [0.0],
        },
        "training": training,
    }


def write_config(path, cfg):
    """Write the run config ``cfg`` as the JSON file ``load_config`` reads."""
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def reduce_mean(a, axis=None, keepdims=False):
    """The mean of the tensor ``a`` over ``axis`` (all axes if None), as a
    graph of ``ad.reduce_sum`` and ``ad.mul``."""
    count = a.data.size if axis is None else np.prod(
        [a.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))])
    s = ad.reduce_sum(a, axis=axis, keepdims=keepdims)
    return ad.mul(s, ad.as_tensor(1.0 / float(count), like=a))


@pytest.fixture
def nan_loss_at_step_1(monkeypatch):
    """``training.training_step`` reports a non-finite loss, without applying
    the update, on its second call (step 1 of a fresh run)."""
    from neurobeam import training
    from neurobeam.losses import LossBreakdown

    real_step, calls = training.training_step, []

    def step(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            nan = float("nan")
            return LossBreakdown(nan, nan, nan, nan), "non-finite loss"
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "training_step", step)


@pytest.fixture(scope="session")
def toy_dataset(tmp_path_factory):
    """One 1-s seeded mixture plus its manifest, shared across tests."""
    out = tmp_path_factory.mktemp("toyset")
    cfg = config_from_dict(toy_config_dict())
    entries = generate_dataset(cfg.dataset_config(), 1, out)
    return {"dir": out, "manifest": out / "manifest.jsonl", "entries": entries, "config": cfg}
