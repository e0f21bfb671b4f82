"""Command-line surface: synth, train, enhance, eval, selfcheck.

Exit codes: 0 success, 1 user error (bad arguments, bad config, file or
shape mismatches), 2 internal error (divergence, unexpected exceptions).
CLI flags override config-file keys.
"""

from __future__ import annotations

import os

# The conv kernels run their own second thread (``layers``), so BLAS keeps
# one thread per caller: set before anything loads numpy; a user's value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .checkpoint import FORMAT_VERSION as CHECKPOINT_VERSION
from .config import (CONFIG_SCHEMA_VERSION, ConfigError, LocalizationSection, apply_overrides,
                     load_config, load_field)
from .model import CHECKPOINT_SCHEMA


def _version_string():
    return (
        f"neurobeam {__version__} "
        f"(config schema {CONFIG_SCHEMA_VERSION}, checkpoint format {CHECKPOINT_VERSION}, "
        f"checkpoint schema {CHECKPOINT_SCHEMA})"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neurobeam",
        description="Multi-channel neural beamformer: synthesis, training, "
        "enhancement, localization, and self-checks.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a reverberant mixture dataset")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--count", type=int, required=True, help="number of mixtures")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1, help="parallel workers")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("train", help="train the beamformer on a manifest")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--manifest", required=True, help="dataset manifest (jsonl)")
    p.add_argument("--out", required=True, help="output directory for checkpoint + log")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--steps", type=int, default=None, help="override training.steps")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key by dotted path (value parsed as JSON)",
    )

    p = sub.add_parser("enhance", help="enhance a WAV file with a trained model")
    p.add_argument("checkpoint")
    p.add_argument("input", help="multi-channel noisy WAV")
    p.add_argument("--mode", choices=["splm", "nlm"], default=None,
                   help="localization path (default: the checkpoint's mode)")
    p.add_argument("--zones", type=int, default=None,
                   help="zone count for splm (default: the checkpoint's zones)")
    p.add_argument("--out", required=True, help="enhanced WAV path")
    p.add_argument("--csv", default=None,
                   help="localization CSV path (default: <out>.loc.csv)")

    p = sub.add_parser("eval", help="evaluate a checkpoint over a manifest")
    p.add_argument("checkpoint")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--mode", choices=["splm", "nlm"], default=None)

    sub.add_parser("selfcheck", help="run the built-in verification suite")
    return parser


def _load_config_with_overrides(args):
    cfg = load_config(args.config)
    flags = {"seed": getattr(args, "seed", None), "training.steps": getattr(args, "steps", None)}
    overrides = {key: value for key, value in flags.items() if value is not None}
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return apply_overrides(cfg, overrides)


def cmd_synth(args):
    from .roomsim import generate_dataset

    cfg = _load_config_with_overrides(args)
    for flag, value in (("--count", args.count), ("--threads", args.threads)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    entries = generate_dataset(cfg.dataset_config(), args.count, args.out, args.threads)
    print(f"wrote {len(entries)} mixtures and manifest to {args.out}")
    return 0


def cmd_train(args):
    from .training import CHECKPOINT_NAME, train

    cfg = _load_config_with_overrides(args)
    history = train(cfg, args.manifest, args.out, resume=args.resume)
    if history:
        last = history[-1]
        print(
            f"finished step {last['step']}: total={last['total']:.4f} "
            f"bce={last['loss_bce']:.4f} sisnr={last['loss_sisnr']:.4f}"
        )
    print(f"checkpoint: {Path(args.out) / CHECKPOINT_NAME}")
    return 0


def cmd_enhance(args):
    import numpy as np

    from .beamloc import enhance_utterance, write_localization_csv
    from .dsp import read_wav, write_wav
    from .training import restore_checkpoint

    if args.zones is not None:
        load_field(LocalizationSection, "zones", args.zones, "--zones")
    model, run = restore_checkpoint(args.checkpoint)
    loc = run.localization
    mode = args.mode or loc.mode
    zones = loc.zones if args.zones is None else args.zones
    noisy = read_wav(args.input, run.dataset.sample_rate, run.array.mics)
    enhanced, result = enhance_utterance(
        noisy, model, mode, zones, run.array, run.stft,
        vad_threshold=loc.vad_threshold,
    )
    write_wav(args.out, enhanced)
    csv_path = args.csv or f"{args.out}.loc.csv"
    times = run.stft.frame_times(result.zmap.shape[0], noisy.sample_rate)
    write_localization_csv(csv_path, result, times)
    active = int(np.sum(result.vad_decisions))
    print(f"enhanced {args.input} -> {args.out} ({mode}, {zones} zones)")
    print(f"localization CSV: {csv_path} ({active}/{result.zmap.shape[0]} frames active)")
    return 0


def cmd_eval(args):
    from .training import evaluate

    summary = evaluate(args.manifest, args.checkpoint, out_csv=args.out, mode=args.mode)
    avg = summary["avg"]
    print(
        f"evaluated {avg['count']} mixtures: si_snri={avg['si_snri_db']:+.2f} dB, "
        f"acc={avg['acc']:.3f}, aer={avg['aer']:.3f}, oer={avg['oer']:.3f}"
    )
    print(f"report: {args.out}")
    return 0


def cmd_selfcheck(args):
    from .selfcheck import run_selfcheck

    results = run_selfcheck()
    failed = 0
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "eval": cmd_eval,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
