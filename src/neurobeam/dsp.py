"""Windowed short-time Fourier analysis/synthesis and WAV file I/O.

Framing is causal: frame t covers samples [t*hop, t*hop + window_length),
no centering or pre-padding. Frame count for a signal of n samples is
T = 1 + floor((n - window_length) / hop) when n >= window_length, else a
single zero-padded frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SAMPLE_RATE = 16000

# Relative floor below which overlap-add normalization treats a sample as
# uncovered (window edges) and emits zero instead of amplifying noise.
_WOLA_FLOOR = 1e-8


def hann_window(length):
    """Periodic (DFT-even) Hann window w[i] = 0.5 - 0.5*cos(2*pi*i/length).

    The periodic form tiles to a constant at hop = length/4, which the
    overlap-add synthesis relies on; length < 2 is rejected.
    """
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    i = np.arange(length, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * i / length)


def num_frames(num_samples, window_length, hop):
    """Frame count of the causal framing: 1 + floor((n - L) / hop), min 1."""
    if num_samples < window_length:
        return 1
    return 1 + (num_samples - window_length) // hop


@dataclass(frozen=True)
class Waveform:
    """Time-domain sample matrix [channels x num_samples] at a sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 2:
            raise ValueError(f"samples must be [channels x num_samples], got ndim={samples.ndim}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def channels(self):
        return self.samples.shape[0]

    @property
    def num_samples(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis settings; validated for constant overlap-add.

    The synthesis path divides by the tiled squared window, so the squared
    window must tile to a constant at the given hop (checked to 1e-10
    relative on interior samples).
    """

    window_length: int = field(default=400, metadata={"at least": 2})
    hop: int = field(default=100, metadata={"at least": 1})
    fft_size: int = field(default=512, metadata={"at least": 2})

    def __post_init__(self):
        if not 0 < self.hop <= self.window_length <= self.fft_size:
            raise ValueError(f"need 0 < stft.hop <= stft.window_length <= stft.fft_size: {self}")
        dev = self._cola_deviation()
        if dev > 1e-10:
            raise ValueError(f"stft.window_length and stft.hop are not constant-overlap-add after "
                             f"synthesis normalization (relative deviation {dev:.3e})")

    @cached_property
    def window(self):
        """The analysis and synthesis window, ``hann_window(window_length)``."""
        return hann_window(self.window_length)

    def _cola_deviation(self):
        """Relative ripple of the tiled squared window on interior samples."""
        frames = 4 * max(2, -(-self.window_length // self.hop))
        acc = wola_normalizer(self, frames)
        interior = acc[self.window_length : acc.shape[0] - self.window_length]
        return (interior.max() - interior.min()) / interior.mean()

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1

    def frequencies(self, sample_rate):
        return np.arange(self.num_bins) * sample_rate / self.fft_size

    def frame_times(self, n_frames, sample_rate):
        """Center time of each analysis frame, in seconds."""
        starts = np.arange(n_frames) * self.hop
        return (starts + 0.5 * self.window_length) / sample_rate


def frame_signal(x, cfg):
    """Windowed frames [... x T x window_length] of signals [... x n], read
    through one strided view; input shorter than a window is zero-padded."""
    n = x.shape[-1]
    if n < cfg.window_length:
        pad = [(0, 0)] * (x.ndim - 1) + [(0, cfg.window_length - n)]
        x = np.pad(x, pad)
    frames = sliding_window_view(x, cfg.window_length, axis=-1)[..., :: cfg.hop, :]
    return frames * cfg.window


def overlap_add(frames, cfg):
    """Window frames [... x T x window_length] and sum them hop apart into
    [... x window_length + (T-1)*hop]: the adjoint of ``frame_signal``.

    One add per hop-long block of the window (the last zero-padded), last
    block first, so each output sample sums its frames in time order.
    """
    *lead, t_frames, length = frames.shape
    k = -(-length // cfg.hop)
    blocks = np.zeros((*lead, t_frames, k * cfg.hop))
    np.multiply(frames, cfg.window, out=blocks[..., :length])
    blocks = blocks.reshape(*lead, t_frames, k, cfg.hop)
    out = np.zeros((*lead, t_frames + k - 1, cfg.hop))
    for j in reversed(range(k)):
        out[..., j : j + t_frames, :] += blocks[..., j, :]
    return out.reshape(*lead, -1)[..., : length + (t_frames - 1) * cfg.hop]


def wola_normalizer(cfg, n_frames):
    """Per-sample sum of squared synthesis windows for a frame count."""
    return overlap_add(np.broadcast_to(cfg.window, (n_frames, cfg.window_length)), cfg)


def wola_inverse(cfg, n_frames):
    """Reciprocal synthesis normalizer; uncovered edge samples map to 0."""
    norm = wola_normalizer(cfg, n_frames)
    covered = norm > _WOLA_FLOOR * norm.max()
    inv = np.zeros_like(norm)
    inv[covered] = 1.0 / norm[covered]
    return inv


def stft(wave, cfg):
    """One-sided complex128 STFT [channels x frames x bins] of every channel
    of a waveform; frames zero-padded to fft_size."""
    if wave.num_samples == 0:
        raise ValueError("cannot analyze an empty waveform")
    return np.fft.rfft(frame_signal(wave.samples, cfg), n=cfg.fft_size, axis=-1)


def synthesize(spectra, cfg):
    """Weighted overlap-add of one-sided spectra [... x T x F], normalized
    by the squared windows covering each sample (``wola_inverse``)."""
    frames = np.fft.irfft(spectra, n=cfg.fft_size, axis=-1)[..., : cfg.window_length]
    return overlap_add(frames, cfg) * wola_inverse(cfg, frames.shape[-2])


def istft(spec, cfg, sample_rate):
    """Weighted overlap-add synthesis of spectra [channels x T x F] into a
    waveform; inverse of ``stft`` on the interior.

    Output length is window_length + (T-1)*hop, i.e. trailing samples the
    analysis dropped are not resynthesized. Samples within one window of
    either edge are only partially covered and are not guaranteed exact.
    """
    return Waveform(synthesize(spec, cfg), sample_rate)


# ---------------------------------------------------------------------------
# WAV file I/O: little-endian RIFF WAVE, read as PCM 16/24/32-bit or IEEE
# float 32/64-bit (plain or WAVE_FORMAT_EXTENSIBLE), written as float-32
# ---------------------------------------------------------------------------

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# The last 12 bytes of an extensible subformat GUID whose first 4 bytes are
# a format tag (RFC 2361).
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> (stored dtype, full scale). 24-bit PCM
# is read left-justified into int32, as scipy.io.wavfile reads it.
_SAMPLE_FORMATS = {(_PCM, 2): ("<i2", 2.0**15), (_PCM, 3): ("<i4", 2.0**31),
                   (_PCM, 4): ("<i4", 2.0**31), (_FLOAT, 4): ("<f4", 1.0), (_FLOAT, 8): ("<f8", 1.0)}


def _parse_fmt(path, body):
    """(dtype, full scale, channels, rate, bytes per sample) of a ``fmt ``
    chunk's body, or a ValueError naming the file."""
    if len(body) < 16:
        raise ValueError(f"{path} is not a readable WAV file: its fmt chunk has {len(body)} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if (tag == _EXTENSIBLE and len(body) >= 40 and struct.unpack_from("<H", body, 16)[0] >= 22
            and body[28:40] == _GUID_TAIL):
        tag = struct.unpack_from("<I", body, 24)[0]
    if channels == 0 or (tag == _PCM and byte_rate != rate * block_align):
        raise ValueError(f"{path} is not a readable WAV file: its fmt chunk declares {channels} "
                         f"channel(s), {rate} Hz, {block_align}-byte frames and {byte_rate} bytes/s")
    width = block_align // channels
    if (tag, width) not in _SAMPLE_FORMATS or not (8 < bits <= 8 * width if tag == _PCM
                                                   else bits in (32, 64)):
        raise ValueError(f"{path} holds an unsupported WAV sample format: format tag {tag:#06x}, "
                         f"{bits}-bit samples in {width} byte(s)")
    return (*_SAMPLE_FORMATS[tag, width], channels, rate, width)


def _decode(path, raw):
    """The sample rate, the stored samples [frames x channels] and their full
    scale of the WAV file ``path`` whose bytes are ``raw``.

    One walk over the chunks, up to the length the RIFF header declares,
    checks each size against the file's end and parses the chunk: a file
    cut short, or whose data size was damaged smaller (its samples then
    run on as a chunk of their own), is rejected naming the file. The last
    ``data`` chunk is read, as described by the ``fmt `` chunk before it;
    other chunks are skipped.
    """
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path} is not a readable WAV file: it starts with {bytes(raw[:12])!r}, "
                         "not a little-endian RIFF WAVE header")
    stop = min(len(raw), 8 + struct.unpack_from("<I", raw, 4)[0])
    pos, fmt, data = 12, None, None
    while pos + 8 <= stop:
        tag, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + size % 2
        if pos > len(raw) + 1:  # a last odd-sized chunk may lack its pad byte
            raise ValueError(f"{path} is cut or damaged: a chunk runs past the end of the file")
        if tag == b"fmt ":
            fmt = _parse_fmt(path, body)
        elif tag == b"data":
            if fmt is None:
                raise ValueError(f"{path} is not a readable WAV file: its data chunk comes "
                                 "before any fmt chunk")
            data = fmt, body
    if data is None:
        raise ValueError(f"{path} is not a readable WAV file: it has no data chunk")
    (dtype, scale, channels, rate, width), body = data
    count = len(body) // width
    if count % channels:
        raise ValueError(f"{path} is not a readable WAV file: its data chunk ends inside a "
                         f"frame of {channels} channels")
    if width == 3:
        wide = np.zeros((count, 4), np.uint8)
        wide[:, 1:] = np.frombuffer(body, np.uint8, 3 * count).reshape(count, 3)
        samples = wide.view(dtype)
    else:
        samples = np.frombuffer(body, dtype, count)
    return rate, samples.reshape(-1, channels), scale


def read_wav(path, sample_rate=None, channels=None):
    """Read a mono or multi-channel WAV as floats in [-1, 1).

    A file at another rate than ``sample_rate``, or of another channel count
    than ``channels``, each where given, is rejected, naming the file, and
    so is a file that holds no samples, that is not a RIFF WAVE file of a
    sample format read here, or whose chunks run past its end.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())  # chunk bodies are views, not copies
    rate, data, scale = _decode(path, raw)
    if sample_rate is not None and rate != sample_rate:
        raise ValueError(f"{path} is at {rate} Hz, not at {sample_rate} Hz")
    if data.size == 0:
        raise ValueError(f"{path} holds no samples")
    samples = data.T.astype(np.float64)
    samples /= scale
    try:
        wave = Waveform(samples, int(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if channels is not None and wave.channels != channels:
        raise ValueError(f"{path} has {wave.channels} channel(s), not the array's {channels}")
    return wave


def write_wav(path, wave):
    """Write a waveform as IEEE float-32: RIFF, an 18-byte ``fmt `` chunk,
    ``fact`` and ``data``, the bytes ``scipy.io.wavfile.write`` writes."""
    data = np.ascontiguousarray(wave.samples.T, dtype="<f4")
    frames, channels = data.shape
    rate = wave.sample_rate
    header = (b"WAVE" + b"fmt " + struct.pack("<IHHIIHHH", 18, _FLOAT, channels, rate,
                                              4 * channels * rate, 4 * channels, 32, 0)
              + b"fact" + struct.pack("<II", 4, frames) + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header)
        fh.write(data.data)
