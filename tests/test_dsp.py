import re
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from neurobeam.dsp import (
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
    istft,
    num_frames,
    overlap_add,
    read_wav,
    stft,
    write_wav,
)


def test_hann_closed_form_length_4():
    assert np.allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5])


def test_hann_closed_form_length_2():
    assert np.allclose(hann_window(2), [0.0, 1.0])


def test_hann_rejects_short_lengths():
    with pytest.raises(ValueError):
        hann_window(1)


def test_hann_cola_by_direct_summation():
    # Tile the plain window at hop=100 and sum; interior must be constant.
    w = hann_window(400)
    frames, hop = 40, 100
    total = 400 + (frames - 1) * hop
    acc = np.zeros(total)
    for t in range(frames):
        acc[t * hop : t * hop + 400] += w
    interior = acc[400 : total - 400]
    assert interior.max() - interior.min() < 1e-12 * interior.mean()


def test_config_rejects_non_cola_hop():
    with pytest.raises(ValueError, match="overlap-add"):
        StftConfig(window_length=400, hop=170, fft_size=512)


def test_config_rejects_bad_ordering():
    with pytest.raises(ValueError):
        StftConfig(window_length=400, hop=500, fft_size=512)
    with pytest.raises(ValueError):
        StftConfig(window_length=600, hop=100, fft_size=512)


def test_frame_count_formula():
    assert num_frames(400, 400, 100) == 1
    assert num_frames(399, 400, 100) == 1  # shorter than one window
    assert num_frames(500, 400, 100) == 2
    assert num_frames(16000, 400, 100) == 157


def test_stft_shape_matches_frame_count(rng):
    cfg = StftConfig()
    for n in (400, 777, 16000):
        wave = Waveform(rng.standard_normal((2, n)))
        spec = stft(wave, cfg)
        assert spec.shape == (2, num_frames(n, 400, 100), 257)
        assert spec.dtype == np.complex128


def test_stft_of_zeros_is_zero():
    cfg = StftConfig()
    spec = stft(Waveform(np.zeros((1, 2000))), cfg)
    assert np.all(spec == 0)


def test_stft_short_input_zero_padded_single_frame():
    cfg = StftConfig()
    spec = stft(Waveform(np.ones((1, 50))), cfg)
    assert spec.shape[1] == 1


def _loop_frames(x, cfg):
    """Reference framing: one windowed, zero-padded frame per iteration."""
    t_frames = num_frames(x.shape[-1], cfg.window_length, cfg.hop)
    frames = np.zeros((*x.shape[:-1], t_frames, cfg.window_length))
    for t in range(t_frames):
        chunk = x[..., t * cfg.hop : t * cfg.hop + cfg.window_length]
        frames[..., t, : chunk.shape[-1]] = chunk
    return frames * cfg.window


def _loop_overlap_add(frames, cfg):
    """Reference overlap-add: one windowed frame added per iteration."""
    t_frames = frames.shape[-2]
    out = np.zeros((*frames.shape[:-2], cfg.window_length + (t_frames - 1) * cfg.hop))
    for t in range(t_frames):
        out[..., t * cfg.hop : t * cfg.hop + cfg.window_length] += frames[..., t, :] * cfg.window
    return out


@pytest.mark.parametrize("length, hop", [(400, 100), (7, 3), (5, 5)])
@pytest.mark.parametrize("n", [3, 400, 777])
def test_framing_and_overlap_add_match_loops_and_are_adjoint(rng, length, hop, n):
    # Any window and hop: these two primitives need no COLA property.
    cfg = SimpleNamespace(window_length=length, hop=hop, window=rng.uniform(size=length))
    x = rng.standard_normal((2, n))
    frames = frame_signal(x, cfg)
    assert np.array_equal(frames, _loop_frames(x, cfg))
    g = rng.standard_normal(frames.shape)
    summed = overlap_add(g, cfg)
    assert np.array_equal(summed, _loop_overlap_add(g, cfg))
    # Samples past the last frame, or padding past the input, pair with zeros.
    m = min(n, summed.shape[-1])
    lhs = np.sum(frames * g)
    assert abs(lhs - np.sum(x[..., :m] * summed[..., :m])) <= 1e-12 * max(1.0, abs(lhs))


def test_bin_center_cosine_concentrates_and_matches_direct_dft():
    cfg = StftConfig()
    fs, k = 16000, 40  # bin-center frequency k*fs/fft_size = 1250 Hz
    n = fs
    x = np.cos(2 * np.pi * (k * fs / cfg.fft_size) * np.arange(n) / fs)
    spec = stft(Waveform(x[np.newaxis, :]), cfg)
    mags = np.abs(spec[0])
    for t in range(2, spec.shape[1] - 2):
        assert np.argmax(mags[t]) == k

    # Independent oracle: direct DFT of one windowed frame.
    t = 5
    frame = np.zeros(cfg.fft_size)
    frame[:400] = x[t * 100 : t * 100 + 400] * cfg.window
    grid = np.arange(cfg.fft_size)
    dft = np.exp(-2j * np.pi * np.outer(grid[:257], grid) / cfg.fft_size) @ frame
    assert np.allclose(spec[0, t], dft, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**31 - 1))
def test_stft_linearity(a, b, seed):
    cfg = StftConfig(window_length=64, hop=16, fft_size=64)
    g = np.random.default_rng(seed)
    x, y = g.standard_normal(400), g.standard_normal(400)
    sx = stft(Waveform(x[np.newaxis]), cfg)
    sy = stft(Waveform(y[np.newaxis]), cfg)
    sxy = stft(Waveform((a * x + b * y)[np.newaxis]), cfg)
    assert np.allclose(sxy, a * sx + b * sy, atol=1e-9)


def _roundtrip_interior_error(x, cfg):
    y = istft(stft(Waveform(x[np.newaxis]), cfg), cfg, 16000).samples[0]
    lo, hi = cfg.window_length, y.shape[0] - cfg.window_length
    rms = np.sqrt(np.mean(x**2))
    return np.abs(y[lo:hi] - x[lo:hi]).max() / rms


def test_roundtrip_white_noise(rng):
    cfg = StftConfig()
    assert _roundtrip_interior_error(rng.standard_normal(8000), cfg) < 1e-6


def test_roundtrip_tone():
    cfg = StftConfig()
    x = np.sin(2 * np.pi * 1000 * np.arange(8000) / 16000)
    assert _roundtrip_interior_error(x, cfg) < 1e-6


@settings(max_examples=30, deadline=None, derandomize=True)
@given(quarter=st.integers(2, 128), extra=st.integers(0, 512), seed=st.integers(0, 2**31 - 1))
def test_roundtrip_property_over_cola_configs(quarter, extra, seed):
    # Hann windows of length L = 4q at hop L/4 tile to a constant; any FFT
    # size in [L, 2L] zero-pads the frame and must not change the round trip.
    length = 4 * quarter
    cfg = StftConfig(window_length=length, hop=quarter, fft_size=length + extra % (length + 1))
    x = np.random.default_rng(seed).standard_normal(3 * length + 7 * quarter)
    assert _roundtrip_interior_error(x, cfg) < 1e-10


def test_roundtrip_silence():
    cfg = StftConfig()
    out = istft(stft(Waveform(np.zeros((1, 4000))), cfg), cfg, 16000)
    assert np.all(out.samples == 0)


def test_istft_output_length_contract(rng):
    cfg = StftConfig()
    wave = Waveform(rng.standard_normal((1, 4321)))
    spec = stft(wave, cfg)
    out = istft(spec, cfg, 8000)
    assert out.num_samples == cfg.window_length + (spec.shape[1] - 1) * cfg.hop
    assert out.sample_rate == 8000


def test_istft_linearity(rng):
    cfg = StftConfig()
    a = stft(Waveform(rng.standard_normal((1, 3000))), cfg)
    b = stft(Waveform(rng.standard_normal((1, 3000))), cfg)
    lhs = istft(a + 2.0 * b, cfg, 16000).samples
    rhs = istft(a, cfg, 16000).samples + 2.0 * istft(b, cfg, 16000).samples
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_parseval_single_frame(rng):
    cfg = StftConfig()
    x = rng.standard_normal(300)  # shorter than one window: single padded frame
    spec = stft(Waveform(x[np.newaxis]), cfg)[0, 0]
    # Rebuild the two-sided spectrum from the one-sided half.
    two_sided = np.concatenate([spec, np.conj(spec[-2:0:-1])])
    windowed = np.zeros(cfg.fft_size)
    windowed[:300] = x * cfg.window[:300]
    lhs = np.sum(np.abs(two_sided) ** 2)
    rhs = cfg.fft_size * np.sum(windowed**2)
    assert abs(lhs - rhs) < 1e-9 * rhs


def test_wav_roundtrip_float32(tmp_path, rng):
    wave = Waveform(0.3 * rng.standard_normal((3, 1600)))
    path = tmp_path / "x.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.samples.shape == (3, 1600)
    assert np.allclose(back.samples, wave.samples, atol=1e-7)


def test_wav_roundtrip_pcm16(tmp_path, rng):
    # The program writes only float32; 16-bit PCM is outside input it reads.
    pcm = rng.integers(-32768, 32768, size=800).astype(np.int16)
    path = tmp_path / "x.wav"
    wavfile.write(path, 16000, pcm)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.array_equal(back.samples, pcm[np.newaxis] / 32768.0)


def _chunk(tag, payload):
    return tag + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def test_read_wav_skips_unknown_chunks(tmp_path, rng):
    # Chunks it does not know, before and after the samples, odd-sized ones
    # with their pad byte, leave the samples' bits as they are, and are
    # skipped without a warning.
    path = tmp_path / "x.wav"
    write_wav(path, Waveform(0.3 * rng.standard_normal((4, 500))))
    plain = path.read_bytes()
    at = plain.index(b"data")
    body = plain[12:at] + _chunk(b"abcd", b"hello") + plain[at:] + _chunk(b"wxyz", b"abc")
    path.with_name("y.wav").write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_wav(path.with_name("y.wav"))
    assert np.array_equal(back.samples, read_wav(path).samples)


@pytest.mark.parametrize("shape", [(1, 301), (4, 301), (4, 0)])
def test_write_wav_writes_scipy_bytes(tmp_path, rng, shape):
    samples = rng.uniform(-1, 1, shape).astype(np.float32)
    write_wav(tmp_path / "x.wav", Waveform(samples, 22050))
    wavfile.write(tmp_path / "ref.wav", 22050, samples[0] if shape[0] == 1 else samples.T)
    assert (tmp_path / "x.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


# The last 12 bytes of WAVE_FORMAT_EXTENSIBLE's subformat GUID (RFC 2361).
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# The scaling of scipy's sample types that read_wav applied to wavfile.read.
_FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0,
               np.dtype(np.float32): 1.0, np.dtype(np.float64): 1.0}


def _wav(tag, width, bits, channels, payload, *, extensible=False, rate=16000, riff=b"RIFF"):
    """A WAV file's bytes: an unknown odd-sized chunk between ``fmt `` and
    ``data``, and a LIST chunk after it."""
    align = channels * width
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align,
                      align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 0, tag) + _GUID_TAIL
    body = (b"WAVE" + _chunk(b"fmt ", fmt) + _chunk(b"odd!", b"abc") + _chunk(b"data", payload)
            + _chunk(b"LIST", b"hello"))
    return riff + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("tag,width,bits", [(1, 2, 16), (1, 3, 24), (1, 3, 20), (1, 4, 32),
                                            (3, 4, 32), (3, 8, 64)])
@pytest.mark.parametrize("channels", [1, 4])
def test_read_wav_matches_scipy_bits(tmp_path, rng, tag, width, bits, channels, extensible):
    # 301 frames: a mono 24-bit data chunk is odd-sized, with its pad byte.
    if tag == 1:
        payload = rng.integers(0, 256, 301 * channels * width, dtype=np.uint8).tobytes()
    else:
        payload = rng.uniform(-1, 1, 301 * channels).astype(f"<f{width}").tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(_wav(tag, width, bits, channels, payload, extensible=extensible))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, ref = wavfile.read(path)
    expected = np.atleast_2d(ref.T.astype(np.float64) / _FULL_SCALE[ref.dtype])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wave = read_wav(path)
    assert wave.sample_rate == rate == 16000
    assert wave.samples.shape == (channels, 301)
    assert wave.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tag,width,bits,riff,message", [
    (1, 2, 16, b"RIFX", "not a little-endian RIFF WAVE header"),
    (1, 2, 16, b"RF64", "not a little-endian RIFF WAVE header"),
    (1, 1, 8, b"RIFF", "unsupported WAV sample format: format tag 0x0001, 8-bit"),
    (1, 2, 8, b"RIFF", "unsupported WAV sample format: format tag 0x0001, 8-bit samples in 2"),
    (1, 2, 24, b"RIFF", "unsupported WAV sample format: format tag 0x0001, 24-bit samples in 2"),
    (3, 2, 16, b"RIFF", "unsupported WAV sample format: format tag 0x0003, 16-bit"),
    (2, 2, 16, b"RIFF", "unsupported WAV sample format: format tag 0x0002"),
])
def test_read_wav_rejects_other_formats_naming_the_file(tmp_path, tag, width, bits, riff, message):
    path = tmp_path / "other.wav"
    path.write_bytes(_wav(tag, width, bits, 2, bytes(40 * width), riff=riff))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} .*{re.escape(message)}"):
        read_wav(path)


@pytest.mark.parametrize("damage", ["cut at the header", "cut in the samples", "shorter data"])
def test_read_wav_rejects_a_cut_or_shortened_data_chunk_naming_the_file(tmp_path, rng, damage):
    # scipy reads each of these with only a warning: as 0 samples, as the
    # samples left, and as the samples the data chunk declares, the rest
    # skipped as a chunk it does not know.
    path = tmp_path / "x.wav"
    write_wav(path, Waveform(0.3 * rng.standard_normal((4, 500))))
    data = bytearray(path.read_bytes())
    header = data.index(b"data") + 8
    if damage == "cut at the header":
        data = data[:header]
    elif damage == "cut in the samples":
        data = data[: header + 16 * 100]
    else:
        data[header - 4 : header] = struct.pack("<I", 16 * 100)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is cut or damaged"):
        read_wav(path)


def test_read_wav_rejects_a_file_without_samples_naming_it(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, Waveform(np.zeros((4, 0))))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} holds no samples"):
        read_wav(path)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        Waveform(np.zeros((1, 10)), sample_rate=0)
