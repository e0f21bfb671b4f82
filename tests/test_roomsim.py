import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from neurobeam import roomsim
from neurobeam.arraygeom import ArraySpec, ground_truth_map
from neurobeam.dsp import StftConfig, Waveform, read_wav, write_wav
from neurobeam.roomsim import (
    DatasetConfig,
    MixtureSpec,
    RoomSpec,
    _build_record,
    azimuth_track,
    azimuth_track_from_entry,
    default_max_order,
    generate_dataset,
    image_source_rir,
    load_manifest,
    mix_at_db,
    placement_from_azimuth,
    reflection_coefficient,
    speech_surrogate,
    split_direct_early,
    synthesize_mixture,
)

# Sabine closed form for 5x5x3 m, T60=0.32 s, evaluated by hand and frozen:
# alpha = 0.161*75/(0.32*110), beta = sqrt(1 - alpha).
SABINE_BETA_5x5x3_T032 = 0.8105308305504038


def test_reflection_coefficient_frozen_regression():
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.32)
    assert reflection_coefficient(room) == pytest.approx(SABINE_BETA_5x5x3_T032, rel=1e-12)


def test_reflection_coefficient_alpha_one_boundary():
    room = RoomSpec((5.0, 5.0, 3.0), t60=1.0)
    t60_critical = 0.161 * room.volume / room.surface
    at_boundary = RoomSpec((5.0, 5.0, 3.0), t60=t60_critical)
    assert reflection_coefficient(at_boundary) == 0.0


def test_reflection_coefficient_clamps_and_warns():
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.01)
    with pytest.warns(UserWarning, match="clamping"):
        assert reflection_coefficient(room) == 0.0


def test_direct_path_only():
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.0)
    src, mic = np.array([2.0, 2.5, 1.5]), np.array([3.4, 2.5, 1.5])
    rir = image_source_rir(room, src, [mic], max_order=0)[0]
    d = 1.4
    idx = int(round(d / 343.0 * 16000))
    nz = np.flatnonzero(rir)
    assert list(nz) == [idx]
    assert rir[idx] == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-12)


def test_doubling_distance_halves_amplitude():
    room = RoomSpec((10.0, 10.0, 3.0), t60=0.0)
    src = np.array([5.0, 5.0, 1.5])
    a1 = image_source_rir(room, src, [np.array([6.0, 5.0, 1.5])], 0)[0].max()
    a2 = image_source_rir(room, src, [np.array([7.0, 5.0, 1.5])], 0)[0].max()
    assert a1 == pytest.approx(2 * a2, rel=1e-12)


def test_rir_causal_and_delay_within_one_sample(rng):
    room = RoomSpec((6.0, 5.0, 3.0), t60=0.3)
    for _ in range(5):
        src = rng.uniform([0.5] * 3, [5.5, 4.5, 2.5])
        mic = rng.uniform([0.5] * 3, [5.5, 4.5, 2.5])
        if np.allclose(src, mic):
            continue
        rir = image_source_rir(room, src, [mic], max_order=10)[0]
        d = np.linalg.norm(src - mic)
        first = np.flatnonzero(rir)[0]
        assert abs(first - d / 343.0 * 16000) <= 1.0
        assert np.all(rir[:first] == 0)


def test_tail_energy_monotone_in_beta(monkeypatch):
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.3)
    src, mic = np.array([2.0, 2.0, 1.5]), np.array([3.0, 3.2, 1.5])
    tail_at = int(round((np.linalg.norm(src - mic) / 343.0 + 0.050) * 16000))
    energies = []
    for beta in (0.3, 0.6, 0.9):
        monkeypatch.setattr(roomsim, "reflection_coefficient", lambda room, beta=beta: beta)
        rir = image_source_rir(room, src, [mic], max_order=30)[0]
        energies.append(float(np.sum(rir[tail_at:] ** 2)))
    assert energies[0] < energies[1] < energies[2]


def test_rir_rejects_coincident_and_outside():
    room = RoomSpec((4.0, 4.0, 3.0), t60=0.2)
    p = np.array([2.0, 2.0, 1.5])
    with pytest.raises(ValueError, match="coincide"):
        image_source_rir(room, p, [p], 0)
    with pytest.raises(ValueError, match="outside"):
        image_source_rir(room, np.array([5.0, 2.0, 1.5]), [p], 0)


def _reference_rir(room, src, mic, max_order, fs=16000):
    """One microphone's response, enumerating the images for that mic alone
    over the full order cube: the oracle for ``image_source_rir``."""
    beta = reflection_coefficient(room) if room.t60 > 0 else 0.0
    if beta == 0.0:
        max_order = 0

    dims = np.asarray(room.dimensions)
    c = room.speed_of_sound
    reach = (max_order + 1) // 2

    n = np.arange(-reach, reach + 1)
    hits = np.concatenate([2 * np.abs(n), np.abs(n - 1) + np.abs(n)])
    keep = hits <= max_order
    hits = hits[keep]
    coords = [np.concatenate([s + 2.0 * n * d, -s + 2.0 * n * d])[keep] for s, d in zip(src, dims)]

    order = hits[:, None, None] + hits[None, :, None] + hits[None, None, :]
    mask = order <= max_order
    d2 = (
        (coords[0] - mic[0])[:, None, None] ** 2
        + (coords[1] - mic[1])[None, :, None] ** 2
        + (coords[2] - mic[2])[None, None, :] ** 2
    )
    dist = np.sqrt(d2[mask])
    amp = beta ** order[mask].astype(np.float64) / (4.0 * np.pi * dist)
    samples = np.rint(dist / c * fs).astype(np.int64)

    rir = np.zeros(int(samples.max()) + 1)
    np.add.at(rir, samples, amp)
    return rir


_UNIT = st.floats(0.02, 0.98)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(*[st.floats(3.0, 8.0)] * 3),
    t60=st.sampled_from([0.0, 0.02]) | st.floats(0.1, 0.8),
    src=st.tuples(*[_UNIT] * 3),
    mics=st.lists(st.tuples(*[_UNIT] * 3), min_size=1, max_size=6),
    max_order=st.integers(0, 40),
)
def test_rir_matches_per_mic_reference(dims, t60, src, mics, max_order):
    # One enumeration for all microphones gives each the bits of its own
    # enumeration; t60 0 is anechoic and 0.02 s clamps beta to 0.
    room = RoomSpec(dims, t60=t60)
    src = np.multiply(src, dims)
    mics = np.multiply(mics, dims)
    assume(not any(np.allclose(src, mic) for mic in mics))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rirs = image_source_rir(room, src, mics, max_order)
        references = [_reference_rir(room, src, mic, max_order) for mic in mics]
    assert len(rirs) == len(mics)
    for rir, reference in zip(rirs, references):
        assert rir.dtype == reference.dtype and rir.tobytes() == reference.tobytes()


def test_fftconvolve_matches_scipy_bits(rng):
    # Three responses: two whose FFT sizes differ (two signal spectra), and
    # the first's early part with a zero tail; rows are cut at n samples,
    # shorter than every full convolution.
    signal = rng.standard_normal(16000)
    short = rng.standard_normal(300) * np.exp(-np.arange(300) / 60.0)
    long = rng.standard_normal(5000) * np.exp(-np.arange(5000) / 800.0)
    early = split_direct_early(long, 50.0)
    assert np.any(early) and not np.any(early[-1000:])
    responses = [short, long, early]
    sizes = {next_fast_len(signal.size + h.size - 1, True) for h in responses}
    assert len(sizes) == 2
    for n in (signal.size, 1000):
        out = roomsim.fftconvolve(signal, responses, n)
        assert out.shape == (3, n)
        for row, h in zip(out, responses):
            assert row.tobytes() == fftconvolve(signal, h)[:n].tobytes()


def test_next_fast_len_matches_scipy():
    targets = range(1, 2**17 + 1)
    assert [roomsim.next_fast_len(t) for t in targets] == [next_fast_len(t, True) for t in targets]


def test_split_direct_early_partition(rng):
    rir = np.zeros(2000)
    rir[100] = 1.0
    rir[100:1500] += 0.01 * rng.standard_normal(1400)
    early = split_direct_early(rir, 50.0)
    cut = 100 + 800  # 50 ms at 16 kHz
    assert np.array_equal(early[:cut], rir[:cut])
    assert np.all(early[cut:] == 0)


def test_split_direct_early_large_window():
    rir = np.zeros(100)
    rir[10] = 1.0
    assert np.array_equal(split_direct_early(rir, 500.0), rir)


def test_split_anechoic_late_is_zero():
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.0)
    rir = image_source_rir(room, np.array([2.0, 2.0, 1.5]), [np.array([3.0, 2.0, 1.5])], 0)[0]
    assert np.array_equal(split_direct_early(rir, 1.0), rir)


def test_mix_at_db_closed_forms(rng):
    a = rng.standard_normal((1, 4000))
    assert mix_at_db(a, a, 0.0) == pytest.approx(1.0)
    assert mix_at_db(a, a, 20.0) == pytest.approx(0.1)


def test_mix_at_db_achieves_target(rng):
    ref = rng.standard_normal((1, 4000))
    con = 3.7 * rng.standard_normal((1, 4000))
    target = 7.3
    s = mix_at_db(ref, con, target)
    p_ref = np.mean(ref**2)
    p_con = np.mean((s * con) ** 2)
    measured = 10 * np.log10(p_ref / p_con)
    assert measured == pytest.approx(target, abs=1e-9)


def test_mix_at_db_silent_reference_raises(rng):
    with pytest.raises(ValueError, match="silent"):
        mix_at_db(np.zeros((1, 100)), rng.standard_normal((1, 100)), 0.0)


def _toy_inputs(seed=5, azimuth=90.0, interference=True, snr=20.0):
    """``synthesize_mixture``'s arguments for 0.5 s of speech at 0.2 s of a 1 s mixture."""
    room = RoomSpec((5.0, 5.0, 3.0), t60=0.2)
    array = ArraySpec(mics=4, radius_m=0.05)
    rng = np.random.default_rng(7)
    speech = speech_surrogate(rng, 0.5)
    target = placement_from_azimuth(room, azimuth, 1.5)
    intf = placement_from_azimuth(room, 250.0, 2.0) if interference else None
    intf_sig = Waveform(np.random.default_rng(8).standard_normal((1, 8000)) * 0.1) if interference else None
    spec = MixtureSpec(
        duration=1.0, speech_len=0.5, speech_offset=0.2, sir_db=5.0,
        sensor_snr_db=snr, seed=seed,
    )
    return room, array, target, intf, speech, intf_sig, spec


def _toy_mixture(**kwargs):
    return synthesize_mixture(*_toy_inputs(**kwargs))


def _toy_components(**kwargs):
    """The toy mixture's reverberant speech, scaled interference and scaled
    noise, rebuilt here from the simulator's parts as a reference."""
    room, array, target, intf, speech, intf_sig, spec = _toy_inputs(**kwargs)
    mics = room.center() + array.mic_positions
    order = default_max_order(room)
    buffer = np.zeros(16000)
    buffer[3200:11200] = speech.samples[0]
    active = np.zeros(16000, dtype=bool)
    active[3200:11200] = True

    def reverberant(source, signal):
        return np.stack(
            [fftconvolve(signal, rir)[:16000] for rir in image_source_rir(room, source, mics, order)]
        )

    speech_part = reverberant(target, buffer)
    intf_part = np.zeros_like(speech_part)
    if intf is not None:
        rev_intf = reverberant(intf, np.tile(intf_sig.samples[0], 2)[:16000])
        intf_part = mix_at_db(speech_part[0], rev_intf[0], spec.sir_db, active) * rev_intf
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed])))
    noise = rng.standard_normal((4, 16000))
    noise_part = mix_at_db(speech_part[0], noise[0], spec.sensor_snr_db, active) * noise
    return speech_part, intf_part, noise_part


def test_mixture_deterministic_under_seed():
    a, _ = _toy_mixture(seed=5)
    b, _ = _toy_mixture(seed=5)
    assert a.samples.tobytes() == b.samples.tobytes()
    c, _ = _toy_mixture(seed=6)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_mixture_decomposition_identity():
    noisy, _ = _toy_mixture()
    speech_part, intf_part, noise_part = _toy_components()
    assert np.any(intf_part) and np.any(noise_part)
    assert np.array_equal(noisy.samples, speech_part + intf_part + noise_part)


def test_mixture_no_interference_infinite_snr_is_pure_reverb():
    noisy, _ = _toy_mixture(interference=False, snr=np.inf)
    speech_part, _, _ = _toy_components(interference=False, snr=np.inf)
    assert np.array_equal(noisy.samples, speech_part)


def _toy_track(noisy, azimuth):
    """The azimuth track of ``_toy_mixture``'s 0.5 s of speech at 0.2 s."""
    return azimuth_track(noisy.num_samples, 3200, 8000, azimuth, StftConfig())


def test_mixture_azimuth_track_maps_to_zone_4():
    noisy, _ = _toy_mixture(azimuth=90.0)
    track = _toy_track(noisy, 90.0)
    active = ~np.isnan(track)
    assert np.any(active) and not np.all(active)
    z = ground_truth_map(track, 12)
    assert np.all(z[active, 3] == 1.0)
    assert np.all(z[~active] == 0.0)


def test_mixture_track_length_matches_frames():
    noisy, _ = _toy_mixture()
    cfg = StftConfig()
    from neurobeam.dsp import num_frames

    assert _toy_track(noisy, 90.0).shape[0] == num_frames(16000, cfg.window_length, cfg.hop)


def test_generate_dataset_count_zero(tmp_path):
    entries = generate_dataset(DatasetConfig(), 0, tmp_path)
    assert entries == []
    assert (tmp_path / "manifest.jsonl").read_text() == ""


def _small_dataset_config():
    return DatasetConfig(
        master_seed=11, duration_s=0.8, speech_len_s=0.4,
        t60_ranges=((0.15, 0.2),) * 3,
    )


def test_generate_dataset_deterministic(tmp_path):
    cfg = _small_dataset_config()
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(cfg, 2, a)
    generate_dataset(cfg, 2, b)
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    for name in ("mix_00000_noisy.wav", "mix_00001_target.wav"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_dataset_parallel_matches_serial(tmp_path):
    cfg = _small_dataset_config()
    a, b = tmp_path / "serial", tmp_path / "parallel"
    generate_dataset(cfg, 2, a, threads=1)
    generate_dataset(cfg, 2, b, threads=2)
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    assert (a / "mix_00001_noisy.wav").read_bytes() == (b / "mix_00001_noisy.wav").read_bytes()


def test_speed_of_sound_reaches_the_simulator(tmp_path, monkeypatch):
    # The array's speed of sound sets the image-source delays as well as the
    # steering vectors: each record's direct path arrives at distance / c.
    from neurobeam.config import config_from_dict

    real_rir, calls = roomsim.image_source_rir, []

    def rir_spy(room, src, mics, max_order, fs):
        rirs = real_rir(room, src, mics, max_order, fs)
        calls.extend((room, src, mic, fs, rir) for mic, rir in zip(mics, rirs))
        return rirs

    monkeypatch.setattr(roomsim, "image_source_rir", rir_spy)
    dataset = {"duration_s": 0.8, "speech_len_s": 0.4, "t60_ranges": [[0.15, 0.2]] * 3}
    noisy = {}
    for c in (343, 300):
        cfg = config_from_dict({"array": {"speed_of_sound": c}, "dataset": dataset})
        calls.clear()
        generate_dataset(cfg.dataset_config(), 1, tmp_path / str(c))
        noisy[c] = (tmp_path / str(c) / "mix_00000_noisy.wav").read_bytes()
        assert calls
        for room, src, mic, fs, rir in calls:
            assert room.speed_of_sound == c
            assert np.flatnonzero(rir)[0] == np.rint(np.linalg.norm(src - mic) / c * fs)
    assert noisy[300] != noisy[343]


def test_generate_dataset_azimuths_on_grid(tmp_path):
    cfg = _small_dataset_config()
    entries = generate_dataset(cfg, 6, tmp_path)
    for e in entries:
        assert 0.0 <= e["target_azimuth_deg"] <= 180.0
        assert e["target_azimuth_deg"] == round(e["target_azimuth_deg"])
        assert 180.0 <= e["interference_azimuth_deg"] <= 360.0
        assert e["interference_azimuth_deg"] == round(e["interference_azimuth_deg"])
        assert -5.0 <= e["sir_db"] <= 15.0
        assert 10.0 <= e["snr_db"] <= 30.0


def test_manifest_roundtrip_and_track(tmp_path):
    cfg = _small_dataset_config()
    entries = generate_dataset(cfg, 1, tmp_path)
    loaded = load_manifest(tmp_path / "manifest.jsonl")
    assert loaded == json.loads(json.dumps(entries))
    wave = read_wav(tmp_path / loaded[0]["noisy_path"])
    assert wave.channels == cfg.mics
    track = azimuth_track_from_entry(loaded[0], StftConfig())
    active = ~np.isnan(track)
    assert np.any(active)
    assert np.all(track[active] == loaded[0]["target_azimuth_deg"])


@pytest.mark.parametrize("key, value, ok", [
    ("sir_db", float("inf"), True), ("sir_db", 5, True), ("id", 1.0, False),
    ("sample_rate", True, False), ("duration_s", False, False), ("noisy_path", 3, False),
    ("target_azimuth_deg", None, False),
])
def test_load_manifest_checks_value_types(tmp_path, key, value, ok):
    # Each key holds the JSON type generate_dataset writes: an integer id and
    # sample rate, string paths, numbers elsewhere (sir_db may be Infinity);
    # a bool is neither an integer nor a number.
    entry = {"id": 0, "noisy_path": "n.wav", "target_path": "t.wav", "sir_db": 0.0,
             "target_azimuth_deg": 90, "duration_s": 1.0, "speech_offset_s": 0.1,
             "speech_len_s": 0.5, "sample_rate": 16000, key: value}
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(entry) + "\n")
    if ok:
        assert load_manifest(path) == [json.loads(json.dumps(entry))]
    else:
        with pytest.raises(ValueError, match=f"{path}:1: '{key}' must be "):
            load_manifest(path)


def _speech_dir(tmp_path, seconds, rate):
    speech_dir = tmp_path / "speech"
    speech_dir.mkdir()
    n = int(round(seconds * rate))
    tone = 0.1 * np.sin(2.0 * np.pi * 200.0 * np.arange(n) / rate)
    write_wav(speech_dir / "utt.wav", Waveform(tone[np.newaxis], rate))
    return str(speech_dir)


@pytest.mark.parametrize("seconds, rate, reason", [
    (0.2, 16000, "shorter than speech_len_s"),
    (0.6, 8000, "not at 16000 Hz"),
])
def test_speech_dir_file_rejected(tmp_path, seconds, rate, reason):
    # A short file would leave the record's track and the one rebuilt from
    # the manifest disagreeing; another rate would be written under the
    # configured one.
    cfg = replace(_small_dataset_config(), speech_dir=_speech_dir(tmp_path, seconds, rate))
    with pytest.raises(ValueError, match=reason) as info:
        generate_dataset(cfg, 1, tmp_path / "out")
    assert "utt.wav" in str(info.value)


def test_speech_dir_record_track_matches_manifest_track(tmp_path):
    # The manifest's speech window, from which the track is rebuilt, is
    # where the record's target sounds: silent before it (the direct path
    # takes at least one sample), and sounding through its last sample.
    cfg = replace(_small_dataset_config(), speech_dir=_speech_dir(tmp_path, 0.5, 16000))
    _, target, entry = _build_record(cfg, 0)
    track = azimuth_track_from_entry(entry, StftConfig())
    assert np.any(~np.isnan(track))
    off, length = (int(round(entry[k] * entry["sample_rate"]))
                   for k in ("speech_offset_s", "speech_len_s"))
    level = np.abs(target.samples).max(axis=0)
    sounding = np.flatnonzero(level > 1e-3 * level.max())
    assert off < sounding[0] < off + StftConfig().hop
    assert sounding[-1] >= off + length - 1


def test_record_and_manifest_agree_on_target_zone(monkeypatch):
    # The manifest carries the drawn grid azimuth itself: recomputing it
    # from the placed position differs by roundoff, which at 105 degrees
    # crosses a zone edge. Only the manifest entry is read, so the mixture
    # is not synthesized.
    placeholder = Waveform(np.zeros((4, 1)))
    monkeypatch.setattr(roomsim, "synthesize_mixture", lambda *a, **k: (placeholder, placeholder))
    for azimuth in range(181):
        cfg = DatasetConfig(
            master_seed=3, rooms=((5.0, 5.0, 3.0),), t60_ranges=((0.0, 0.0),),
            target_distance_ranges=((1.7, 1.7),), duration_s=0.3, speech_len_s=0.2,
            target_azimuth_grid=(float(azimuth), float(azimuth), 1.0),
        )
        _, _, entry = _build_record(cfg, 0)
        assert entry["target_azimuth_deg"] == azimuth


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(duration=1.0, speech_len=0.9, speech_offset=0.2)
    with pytest.raises(ValueError):
        MixtureSpec(sir_db=float("nan"))


def test_dataset_config_checks_both_of_its_sections():
    # A DatasetConfig is a MixtureRanges and an ArraySpec: both checks run.
    with pytest.raises(ValueError, match=r"paired by index, but list 3, 1, 3 items"):
        DatasetConfig(t60_ranges=((0.15, 0.2),))
    with pytest.raises(ValueError, match="array.positions lists 1 microphones"):
        DatasetConfig(mics=3, positions=((0.0, 0.0, 0.0),))
