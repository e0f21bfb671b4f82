"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 6 is the scaled training experiment and dominates the runtime
(a few minutes); everything else completes in well under a minute each.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from neurobeam import autodiff as ad
from neurobeam import roomsim
from neurobeam.arraygeom import ArraySpec, steering_set, zone_of_angle
from neurobeam.beamloc import localize, splm_map, vad
from neurobeam.cli import main as cli_main
from neurobeam.config import config_from_dict
from neurobeam.dsp import StftConfig, Waveform, istft, stft
from neurobeam.gradcheck import _central_difference, check_gradients
from neurobeam.losses import (
    bce_loss,
    filter_and_sum_tensor,
    si_snr_loss,
    splm_map_tensor,
    synthesize_waveform,
    total_loss,
)
from neurobeam.metrics import loc_metrics
from neurobeam.model import MimoDccrn, MimoDccrnConfig
from neurobeam.roomsim import (
    ManifestEntry,
    RoomSpec,
    azimuth_track,
    image_source_rir,
    placement_from_azimuth,
    synthesize_mixture,
)
from neurobeam.selfcheck import gradient_cases

from conftest import toy_config_dict


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


# -------------------------------------------------------------------------
# 1. STFT round-trip
# -------------------------------------------------------------------------

def test_criterion_1_stft_roundtrip():
    t0 = time.perf_counter()
    cfg = StftConfig(400, 100, 512)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1])))
    errs = []
    for _ in range(100):
        x = rng.standard_normal(16000)
        y = istft(stft(Waveform(x[np.newaxis]), cfg), cfg, 16000).samples[0]
        lo, hi = cfg.window_length, y.shape[0] - cfg.window_length
        errs.append(np.abs(y[lo:hi] - x[lo:hi]).max() / np.sqrt(np.mean(x**2)))
    worst = np.max(errs)  # NaN propagates, unlike the builtin max
    elapsed = time.perf_counter() - t0
    _report(
        1, "STFT round-trip (100 signals, interior < 1e-6 rel RMS, < 10 s)",
        worst < 1e-6 and elapsed < 10.0,
        f"(worst {worst:.2e}, {elapsed:.1f}s)",
    )


# -------------------------------------------------------------------------
# 2. Distortionless identity
# -------------------------------------------------------------------------

def test_criterion_2_distortionless_identity():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2])))
    cfg = StftConfig()
    devs = []
    for _ in range(10):
        mics = int(rng.integers(3, 9))
        radius = float(rng.uniform(0.03, 0.2))
        zones = int(rng.choice([12, 36]))
        array = ArraySpec(mics=mics, radius_m=radius)
        steering = steering_set(array, zones, cfg.frequencies(16000))
        zone = int(rng.integers(1, zones + 1))
        a = steering[zone - 1]  # [F x M]
        frames = 3
        w = np.repeat(np.conj(a).T[:, :, np.newaxis], frames, axis=2) / mics  # [M x F x T]
        zmap = splm_map(np.stack([w.real, w.imag]), steering)
        devs.append(np.abs(zmap[:, zone - 1] - 1.0).max())
    worst = np.max(devs)  # NaN propagates, unlike the builtin max
    _report(
        2, "distortionless identity z_n = 1 with w = a_n/M (10 random setups, 1e-9)",
        worst < 1e-9, f"(worst dev {worst:.2e})",
    )


# -------------------------------------------------------------------------
# 3. Delay-and-sum localization oracle
# -------------------------------------------------------------------------

def test_criterion_3_delay_and_sum_oracle():
    t0 = time.perf_counter()
    fs = 16000
    cfg = StftConfig()
    zones = 36
    # Radius 0.15 m: with RIR delays rounded to the sample grid (the
    # simulator's contract, tolerant to +/-1 sample), a 5 cm aperture
    # would be dominated by quantization; the wider test aperture keeps
    # the oracle's geometric error well inside one 10-degree zone.
    array = ArraySpec(mics=6, radius_m=0.15)
    mics = array.mics
    steering = steering_set(array, zones, cfg.frequencies(fs))
    room = RoomSpec((24.0, 24.0, 3.0), t60=0.0)  # beta = 0: free field
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3])))
    burst = rng.standard_normal(int(0.35 * fs))
    speech = Waveform(burst[np.newaxis], fs)
    mix = ManifestEntry(id=0, seed=4, target_azimuth_deg=0.0, interference_azimuth_deg=0.0,
                        sir_db=0.0, snr_db=np.inf, t60_s=0.0, room_dims=room.dimensions,
                        duration_s=0.6, speech_offset_s=0.12, speech_len_s=0.35,
                        sample_rate=fs, noisy_path="n.wav", target_path="t.wav")
    n, off = int(round(mix.duration_s * fs)), int(round(mix.speech_offset_s * fs))
    active = ~np.isnan(azimuth_track(n, off, burst.size, 0.0, cfg))

    # 5-degree sweep of the full circle, offset into zone interiors
    # (points exactly on a zone edge are degenerate for any estimator).
    sweep = np.arange(2.5, 360.0, 5.0)
    correct = 0
    vad_ok = 0
    margin = int(np.ceil((8.0 / 343.0 + cfg.window_length / fs) / (cfg.hop / fs)))
    for theta in sweep:
        src = placement_from_azimuth(room, float(theta), 8.0)
        entry = replace(mix, target_azimuth_deg=float(theta))
        noisy, _ = synthesize_mixture(room, array, src, None, speech, None, entry)
        spec = stft(noisy, cfg)
        power = np.mean(np.abs(spec), axis=(0, 2))
        weights = np.conj(spec) / (mics * (power[np.newaxis, :, np.newaxis] + 1e-12))
        weights = weights.transpose(0, 2, 1)  # [M x F x T]
        zmap = splm_map(np.stack([weights.real, weights.imag]), steering)
        pred = int(np.argmax(zmap[active].mean(axis=0))) + 1
        correct += pred == zone_of_angle(float(theta), zones)

        scores, _ = vad(zmap)
        act_idx = np.flatnonzero(active)
        core_active = act_idx[margin:-margin]
        inactive = ~active
        for d in range(1, margin + 1):
            inactive &= np.roll(~active, d) & np.roll(~active, -d)
        if scores[core_active].min() > (scores[inactive].max() if inactive.any() else 0.0):
            vad_ok += 1
    elapsed = time.perf_counter() - t0
    acc = correct / sweep.size
    _report(
        3, "delay-and-sum oracle (zone recovery >= 95%, VAD active > inactive, < 60 s)",
        acc >= 0.95 and vad_ok == sweep.size and elapsed < 60.0,
        f"(acc {acc:.3f}, vad {vad_ok}/{sweep.size}, {elapsed:.1f}s)",
    )


# -------------------------------------------------------------------------
# 4. Image-source checks
# -------------------------------------------------------------------------

def test_criterion_4_image_source(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4])))
    delay_ok = True
    causal_ok = True
    for _ in range(50):
        dims = rng.uniform(3.0, 8.0, size=3)
        room = RoomSpec(tuple(dims), t60=0.25)
        src = rng.uniform(0.3, dims - 0.3)
        mic = rng.uniform(0.3, dims - 0.3)
        if np.linalg.norm(src - mic) < 1e-3:
            continue
        rir = image_source_rir(room, src, [mic], max_order=8)[0]
        first = np.flatnonzero(rir)[0]
        expected = np.linalg.norm(src - mic) / 343.0 * 16000
        delay_ok &= abs(first - expected) <= 1.0
        causal_ok &= bool(np.all(rir[:first] == 0))

    room = RoomSpec((5.0, 5.0, 3.0), t60=0.3)
    src, mic = np.array([2.0, 2.0, 1.5]), np.array([3.0, 3.2, 1.5])
    tail_at = int(round((np.linalg.norm(src - mic) / 343.0 + 0.050) * 16000))
    tails = []
    for b in (0.3, 0.6, 0.9):
        monkeypatch.setattr(roomsim, "reflection_coefficient", lambda room, b=b: b)
        tails.append(float(np.sum(image_source_rir(room, src, [mic], 30)[0][tail_at:] ** 2)))
    monotone = tails[0] < tails[1] < tails[2]
    _report(
        4, "image-source: direct delay +/- 1 sample, causal, tail monotone in beta",
        delay_ok and causal_ok and monotone,
        f"(tails {tails[0]:.2e} < {tails[1]:.2e} < {tails[2]:.2e})",
    )


# -------------------------------------------------------------------------
# 5. Gradient suite
# -------------------------------------------------------------------------

def _micro_model(zones=4):
    cfg = MimoDccrnConfig(encoder_channels=(16, 32, 64, 128, 256), lstm_hidden=256, scale=8)
    return MimoDccrn(cfg, mics=2, bins=32, zones=zones, seed=3, dtype=np.float64)


def check_model_gradients(params, loss_fn, rng, samples_per_tensor=3, step=1e-5):
    """Sampled finite-difference check of a parameterized scalar graph.

    ``params`` is a name -> Tensor mapping (float64); ``loss_fn()`` builds
    the scalar loss from the parameters' current values. A few entries of
    every tensor are perturbed in place. Returns
    ``max|analytic - numerical| / (max|numerical| + tiny)`` over all
    sampled entries, a gradient-scale relative error.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    ad.backward(loss)
    pairs = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        count = min(samples_per_tensor, flat.size)
        idx = rng.choice(flat.size, size=count, replace=False)
        for i in idx:
            pairs.append((gflat[i], _central_difference(lambda: loss_fn().item(), flat, i, step)))
    analytic = np.array([a for a, _ in pairs])
    numerical = np.array([n for _, n in pairs])
    return float(np.abs(analytic - numerical).max() / (np.abs(numerical).max() + 1e-12))


def test_criterion_5_gradient_suite():
    errs = [check_gradients(build, arrays) for _, build, arrays in gradient_cases()]
    worst_op = np.max(errs)  # a NaN gradient makes it NaN, unlike the builtin max
    ops_ok = worst_op < 1e-4

    model = _micro_model()
    rng = np.random.default_rng(5)
    frames = 4
    spec = 0.5 * (
        rng.standard_normal((2, frames, 33)) + 1j * rng.standard_normal((2, frames, 33))
    )
    tiny_cfg = StftConfig(window_length=32, hop=8, fft_size=64)
    ref = rng.standard_normal(32 + (frames - 1) * 8)
    truth = np.zeros((frames, 4))
    truth[:, 1] = 1.0
    steering = steering_set(ArraySpec(mics=2), 4, tiny_cfg.frequencies(16000))

    def loss_with_head(head):
        def build():
            w = model.forward_weights(spec, training=True)
            enh = filter_and_sum_tensor(w, spec)
            est = synthesize_waveform(enh, tiny_cfg)
            lsisnr = si_snr_loss(est, ref)
            if head == "nlm":
                zhat = model.localize(w, training=True)
            else:
                zhat = splm_map_tensor(w, steering)
            return total_loss(bce_loss(truth, zhat), lsisnr, 1.0)

        return build

    check_rng = np.random.default_rng(11)
    err_nlm = check_model_gradients(model.params(), loss_with_head("nlm"), check_rng, 4)
    err_splm = check_model_gradients(model.params(), loss_with_head("splm"), check_rng, 4)
    e2e_ok = err_nlm < 1e-3 and err_splm < 1e-3
    _report(
        5, "gradient suite: ops < 1e-4, micro model end-to-end < 1e-3",
        ops_ok and e2e_ok,
        f"(worst op {worst_op:.1e}, e2e nlm {err_nlm:.1e}, splm {err_splm:.1e})",
    )


# -------------------------------------------------------------------------
# 6. Toy training experiment
# -------------------------------------------------------------------------

def test_criterion_6_toy_training(tmp_path):
    from neurobeam.roomsim import generate_dataset
    from neurobeam.training import CHECKPOINT_NAME, evaluate, train

    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    base = toy_config_dict(steps=25, checkpoint_every=25, log_every=1)
    cfg = config_from_dict(base)
    generate_dataset(cfg.dataset_config(), 1, data_dir)
    manifest = data_dir / "manifest.jsonl"

    history = []
    improvement = -np.inf
    for segment in range(1, 21):  # up to 500 steps in 25-step segments
        seg_cfg = config_from_dict(
            {**base, "training": {**base["training"], "steps": 25 * segment}}
        )
        resume = run_dir / CHECKPOINT_NAME if segment > 1 else None
        history.extend(train(seg_cfg, manifest, run_dir, resume=resume))
        summary = evaluate(manifest, run_dir / CHECKPOINT_NAME)
        improvement = summary["avg"]["si_snri_db"]
        if improvement >= 5.0:
            break

    totals = np.array([h["total"] for h in history])
    window = 25
    smoothed_start = totals[:window].mean()
    smoothed_end = totals[-window:].mean()
    elapsed = time.perf_counter() - t0
    steps = len(history)
    _report(
        6,
        "toy training: SI-SNR improvement >= 5 dB within 500 steps, "
        "smoothed loss decreasing, < 15 min",
        improvement >= 5.0 and smoothed_end < smoothed_start
        and steps <= 500 and elapsed < 900.0,
        f"(+{improvement:.1f} dB after {steps} steps, smoothed "
        f"{smoothed_start:.1f} -> {smoothed_end:.1f}, {elapsed:.0f}s)",
    )


# -------------------------------------------------------------------------
# 7. Zone mapping
# -------------------------------------------------------------------------

def test_criterion_7_zone_mapping():
    ok = True
    for zones in (12, 36):
        thetas = np.arange(-180.0, 540.0, 0.01)
        z = zone_of_angle(thetas, zones)
        ok &= bool(np.all((z >= 1) & (z <= zones)))
        # Interval membership per the ground-truth definition: the
        # normalized angle must fall in the returned zone's half-open
        # interval, which partitions the circle (exactly one zone).
        half = 180.0 / zones
        u = np.mod(thetas + half, 360.0)
        u[u == 0.0] = 360.0
        width = 360.0 / zones
        ok &= bool(np.all(((z - 1) * width < u) & (u <= z * width)))
    boundary = zone_of_angle(0.0, 12) == 1 and zone_of_angle(180.0, 12) == 7
    _report(
        7, "zone mapping: dense sweep maps every angle to exactly one zone; "
        "theta=0 -> 1 and theta=180 -> 7 (N=12)",
        ok and boundary,
    )


# -------------------------------------------------------------------------
# 8. Metric identities
# -------------------------------------------------------------------------

def test_criterion_8_metric_identities():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([8])))
    identity_ok = True
    for _ in range(1000):
        zones = int(rng.choice([2, 3, 12, 36]))
        frames = int(rng.integers(1, 50))
        pred = rng.integers(1, zones + 1, size=frames)
        truth = rng.integers(1, zones + 1, size=frames)
        active = rng.uniform(size=frames) < 0.8
        if not active.any():
            active[0] = True
        m = loc_metrics(pred, truth, active, zones)
        identity_ok &= (m.acc + m.aer + m.oer) == 1.0

    from neurobeam.autodiff import constant

    bce_val = bce_loss(np.ones((1, 1)), constant(np.full((1, 1), 0.5))).item()
    bce_ok = abs(bce_val - np.log(2.0)) < 1e-12

    b, s, g = 0.731, -12.625, 1.0
    tot = total_loss(constant(np.array(b)), constant(np.array(s)), g).item()
    decomp_ok = tot == b + g * s
    _report(
        8, "metric identities: ACC+AER+OER == 1 (1000 tracks), BCE ln2 "
        "within 1e-12, total-loss decomposition exact",
        identity_ok and bce_ok and decomp_ok,
        f"(|bce-ln2| {abs(bce_val - np.log(2.0)):.1e})",
    )


# -------------------------------------------------------------------------
# 9. Determinism of synth and train commands
# -------------------------------------------------------------------------

def _strip_wall(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for r in rows:
        r.pop("wall_ms")
    return rows


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(toy_config_dict(steps=3, checkpoint_every=3), fh)

    for name in ("a", "b"):
        assert cli_main(["synth", str(cfg_path), "--count", "2",
                         "--out", str(tmp_path / f"data_{name}")]) == 0
    synth_same = (tmp_path / "data_a" / "manifest.jsonl").read_bytes() == (
        tmp_path / "data_b" / "manifest.jsonl"
    ).read_bytes()
    for wav in sorted((tmp_path / "data_a").glob("*.wav")):
        synth_same &= wav.read_bytes() == (tmp_path / "data_b" / wav.name).read_bytes()

    for name in ("a", "b"):
        assert cli_main(["train", str(cfg_path),
                         "--manifest", str(tmp_path / "data_a" / "manifest.jsonl"),
                         "--out", str(tmp_path / f"run_{name}")]) == 0
    train_same = (tmp_path / "run_a" / "checkpoint_last.nbcp").read_bytes() == (
        tmp_path / "run_b" / "checkpoint_last.nbcp"
    ).read_bytes()
    train_same &= _strip_wall(tmp_path / "run_a" / "train_log.jsonl") == _strip_wall(
        tmp_path / "run_b" / "train_log.jsonl"
    )
    _report(
        9, "determinism: synth and train artifacts byte-identical across runs "
        "(timestamps excluded)",
        synth_same and train_same,
    )


# -------------------------------------------------------------------------
# 10. Causality
# -------------------------------------------------------------------------

def test_criterion_10_causality():
    model = MimoDccrn(MimoDccrnConfig(scale=4), mics=4, bins=256, zones=12, seed=10)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([10])))
    frames = 24
    spec = rng.standard_normal((4, frames, 257)) + 1j * rng.standard_normal((4, frames, 257))
    base = model.infer_weights(spec)
    ok = True
    for t in rng.integers(0, frames - 1, size=10):
        t = int(t)
        pert_spec = spec.copy()
        pert_spec[:, t + 1, :] += 2.0 - 1.0j
        pert = model.infer_weights(pert_spec)
        ok &= bool(np.array_equal(base[:, : t + 1, :], pert[:, : t + 1, :]))
        ok &= not np.array_equal(base[:, t + 1, :], pert[:, t + 1, :])
    _report(
        10, "causality: perturbing frame t+1 leaves output frames <= t "
        "bit-identical (10 random t)",
        ok,
    )
