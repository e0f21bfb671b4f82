import numpy as np
import pytest

from neurobeam.arraygeom import ArraySpec, steering_set
from neurobeam.beamloc import (
    LocalizationResult,
    enhance_utterance,
    filter_and_sum,
    localization_from_map,
    localize,
    splm_map,
    vad,
    write_localization_csv,
)
from neurobeam.dsp import StftConfig, Waveform, num_frames
from neurobeam.layers import to_complex
from neurobeam.model import MimoDccrn, MimoDccrnConfig


def _spec(rng, mics=3, frames=4, cfg=None):
    cfg = cfg or StftConfig()
    return rng.standard_normal((mics, frames, cfg.num_bins)) + 1j * rng.standard_normal(
        (mics, frames, cfg.num_bins)
    )


def _tensor(z):
    """Complex filters [M x F x T] -> the filter tensor [2 x M x F x T]."""
    return np.stack([z.real, z.imag])


def _filters_for(spec):
    """A zero filter tensor [2 x M x F x T] for a spectrogram [M x T x F]."""
    mics, frames, bins = spec.shape
    return np.zeros((2, mics, bins, frames))


def test_filter_and_sum_mic_selector(rng):
    spec = _spec(rng)
    w = _filters_for(spec)
    w[0, 0] = 1.0
    out = filter_and_sum(w, spec)
    assert out.shape == (1, *spec.shape[1:])
    assert np.array_equal(out[0], spec[0])


def test_filter_and_sum_zero_weights_silence(rng):
    spec = _spec(rng)
    out = filter_and_sum(_filters_for(spec), spec)
    assert np.all(out == 0)


def test_filter_and_sum_average_of_identical_channels(rng):
    cfg = StftConfig()
    common = rng.standard_normal((1, 4, cfg.num_bins)) + 1j * rng.standard_normal(
        (1, 4, cfg.num_bins)
    )
    spec = np.repeat(common, 3, axis=0)
    w = _filters_for(spec)
    w[0] = 1.0 / 3.0
    out = filter_and_sum(w, spec)
    assert np.allclose(out[0], common[0])


def test_filter_and_sum_bilinear(rng):
    spec = _spec(rng)
    shape = _filters_for(spec).shape[1:]
    w1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a, b = 1.7 - 0.3j, -0.6 + 2.0j
    lhs = filter_and_sum(_tensor(a * w1 + b * w2), spec)
    rhs = a * filter_and_sum(_tensor(w1), spec) + b * filter_and_sum(_tensor(w2), spec)
    assert np.allclose(lhs, rhs)


def test_filter_and_sum_shape_mismatch(rng):
    spec = _spec(rng)
    with pytest.raises(ValueError, match="incompatible"):
        filter_and_sum(_filters_for(spec[:2]), spec)
    with pytest.raises(ValueError, match="incompatible"):
        filter_and_sum(_filters_for(spec).transpose(0, 1, 3, 2), spec)


def _steering(zones=12, mics=6):
    return steering_set(ArraySpec(mics=mics, radius_m=0.05), zones, StftConfig().frequencies(16000))


def test_splm_matched_filter_identity():
    steering = _steering()
    mics = steering.shape[2]
    for zone in (1, 4, 12):
        a = steering[zone - 1]  # [F x M]
        w = np.conj(a).T[:, :, np.newaxis] / mics  # stored form [M x F x T=1]
        zmap = splm_map(_tensor(w), steering)
        assert zmap[0, zone - 1] == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(zmap[0]) == zone - 1


def test_splm_zero_weights():
    steering = _steering()
    w = np.zeros((2, steering.shape[2], steering.shape[1], 3))
    assert np.all(splm_map(w, steering) == 0)


def test_splm_positive_homogeneity(rng):
    steering = _steering()
    mics, f = steering.shape[2], steering.shape[1]
    w = rng.standard_normal((2, mics, f, 2))
    z1 = splm_map(w, steering)
    z3 = splm_map(3.0 * w, steering)
    assert np.allclose(z3, 3.0 * z1)
    assert np.array_equal(np.argmax(z1, axis=1), np.argmax(z3, axis=1))


@pytest.mark.parametrize("chunk", [1, 7, 16, 1000])
def test_splm_chunks_match_the_whole_response(rng, monkeypatch, chunk):
    from neurobeam import beamloc
    from neurobeam.beamloc import steered_response

    steering = _steering()
    mics, f = steering.shape[2], steering.shape[1]
    w = rng.standard_normal((2, mics, f, 5))
    whole = np.abs(steered_response(w, steering)).mean(axis=0)
    monkeypatch.setattr(beamloc, "_SPLM_CHUNK_BINS", chunk)
    zmap = splm_map(w, steering)
    assert zmap.shape == whole.shape
    assert np.abs(zmap - whole).max() <= 1e-12 * np.abs(whole).max()
    with pytest.raises(ValueError, match="incompatible"):
        splm_map(w[:, :, : f - 1], steering)


def test_localize_rules():
    assert localize(np.array([[0.0, 1.0, 0.0]]))[0] == 2
    assert localize(np.array([[0.1, 0.7, 0.2]]))[0] == 2
    # Constant rows tie-break to the lowest index.
    assert localize(np.array([[0.5, 0.5, 0.5]]))[0] == 1


def test_vad_rules():
    scores, decisions = vad(np.zeros((2, 3)))
    assert np.all(scores == 0) and not decisions.any()
    scores, decisions = vad(np.array([[0.2, 1.0, 0.3]]))
    assert scores[0] == 1.0 and decisions[0]
    # Boundary: score exactly at the threshold is inactive.
    scores, decisions = vad(np.array([[0.5, 0.5, 0.5]]), threshold=0.5)
    assert not decisions[0]
    # SPLM scores above 1 clamp to 1.
    scores, _ = vad(np.array([[2.5, 0.1, 0.1]]))
    assert scores[0] == 1.0


def test_localization_result_invariant():
    zmap = np.array([[0.1, 0.9], [0.8, 0.2]])
    res = localization_from_map(zmap)
    assert np.array_equal(res.zone_track, [2, 1])
    with pytest.raises(ValueError):
        LocalizationResult(np.array([1, 1]), res.vad_track, res.vad_decisions, zmap)


def _toy_model(zones=12):
    return MimoDccrn(MimoDccrnConfig(scale=4), mics=4, bins=256, zones=zones, seed=0)


def test_enhance_silence(tmp_path):
    model = _toy_model()
    array = ArraySpec()
    cfg = StftConfig()
    silence = Waveform(np.zeros((4, 4000)))
    for mode in ("splm", "nlm"):
        enhanced, result = enhance_utterance(silence, model, mode, 12, array, cfg)
        assert enhanced.channels == 1
        assert np.abs(enhanced.samples).max() < 1e-12
        assert not result.vad_decisions.any()


def test_enhance_output_shape(rng):
    model = _toy_model()
    array = ArraySpec()
    cfg = StftConfig()
    noisy = Waveform(0.1 * rng.standard_normal((4, 4000)))
    enhanced, result = enhance_utterance(noisy, model, "splm", 12, array, cfg)
    frames = num_frames(4000, cfg.window_length, cfg.hop)
    assert enhanced.channels == 1
    assert enhanced.num_samples == cfg.window_length + (frames - 1) * cfg.hop
    assert result.zmap.shape == (frames, 12)


def test_enhance_channel_mismatch(rng):
    model = _toy_model()
    array = ArraySpec()
    noisy = Waveform(rng.standard_normal((3, 2000)))
    with pytest.raises(ValueError, match="3 channels.*expects.*4"):
        enhance_utterance(noisy, model, "splm", 12, array, StftConfig())


def test_enhance_unknown_mode(rng):
    model = _toy_model()
    array = ArraySpec()
    noisy = Waveform(rng.standard_normal((4, 2000)))
    with pytest.raises(ValueError, match="unknown localization mode"):
        enhance_utterance(noisy, model, "mvdr", 12, array, StftConfig())


def test_nlm_head_runs_after_the_spectrogram_is_dropped(rng, monkeypatch):
    # Filter-and-sum reads the model's float32 filter tensor as it is, and
    # the complex128 spectrogram; in nlm mode the head runs after the ISTFT,
    # on that same filter tensor, when the spectrogram is dead.
    import weakref

    from neurobeam import beamloc

    refs, filters, dead = [], [], []
    real_filter_and_sum = beamloc.filter_and_sum

    def filter_and_sum_spy(weights, spec):
        refs.append(weakref.ref(spec))
        filters.append(weights)
        return real_filter_and_sum(weights, spec)

    model = _toy_model()
    real_localize = model.localize

    def localize_spy(w, training=False):
        dead.append([ref() is None for ref in refs])
        assert w.data is filters[0]
        return real_localize(w, training)

    monkeypatch.setattr(beamloc, "filter_and_sum", filter_and_sum_spy)
    monkeypatch.setattr(model, "localize", localize_spy)
    noisy = Waveform(0.1 * rng.standard_normal((4, 4000)))
    enhance_utterance(noisy, model, "nlm", 12, ArraySpec(), StftConfig())
    assert dead == [[True]]


def test_nlm_zone_map_matches_complex_round_trip(toy_dataset):
    # ``enhance_utterance`` runs without a graph; in both modes its
    # waveform, zone map and VAD must be bit-identical to those of a
    # forward that records one. Every stage reads the float32 filter
    # tensor; a complex128 round trip of it is exact, since float32 ->
    # float64 -> float32 is exact.
    from neurobeam.autodiff import Tensor
    from neurobeam.dsp import istft, read_wav, stft

    cfg = toy_dataset["config"]
    stft_cfg = cfg.stft
    noisy = read_wav(toy_dataset["dir"] / toy_dataset["entries"][0]["noisy_path"])
    model = _toy_model()
    spec = stft(noisy, stft_cfg)
    w = model.forward_weights(spec, training=False)
    assert w.needs_grad and w.parents
    w_parts = _tensor(to_complex(w.data)).astype(model.dtype)
    zmaps = {
        "nlm": model.localize(Tensor(w_parts), training=False).data.astype(np.float64),
        "splm": splm_map(
            w.data,
            steering_set(cfg.array, 12, stft_cfg.frequencies(noisy.sample_rate)),
        ),
    }
    expect_enhanced = istft(filter_and_sum(w.data, spec), stft_cfg, noisy.sample_rate).samples
    for mode, zmap in zmaps.items():
        enhanced, result = enhance_utterance(noisy, model, mode, 12, cfg.array, stft_cfg)
        expect = localization_from_map(zmap)
        assert np.array_equal(enhanced.samples, expect_enhanced)
        assert np.array_equal(result.zmap, zmap)
        assert np.array_equal(result.vad_track, expect.vad_track)
        assert np.array_equal(result.vad_decisions, expect.vad_decisions)
        assert np.array_equal(result.zone_track, expect.zone_track)


def test_enhance_memory_stays_below_a_recorded_graph(toy_dataset):
    # A forward that records its graph keeps every activation alive until
    # it returns: the traced peak of ``enhance_utterance`` on this 1 s
    # record was 54 MB (nlm) and 59 MB (splm) that way, and is about 15 MB
    # (nlm) and 13 MB (splm) without a graph.
    import tracemalloc

    from neurobeam.dsp import read_wav

    cfg = toy_dataset["config"]
    noisy = read_wav(toy_dataset["dir"] / toy_dataset["entries"][0]["noisy_path"])
    model = _toy_model()
    for mode in ("nlm", "splm"):
        enhance_utterance(noisy, model, mode, 12, cfg.array, cfg.stft)
        tracemalloc.start()
        try:
            enhance_utterance(noisy, model, mode, 12, cfg.array, cfg.stft)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, (mode, peak)


def test_localization_csv_row_count(tmp_path, rng):
    zmap = rng.uniform(size=(9, 5))
    res = localization_from_map(zmap)
    path = tmp_path / "loc.csv"
    write_localization_csv(path, res, np.arange(9) * 0.00625)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 10  # header + one row per frame
    assert lines[0].split(",")[:4] == ["frame_index", "time_s", "zone", "vad"]
    assert len(lines[1].split(",")) == 4 + 5
