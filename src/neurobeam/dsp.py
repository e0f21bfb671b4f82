"""Windowed short-time Fourier analysis/synthesis and WAV file I/O.

Framing is causal: frame t covers samples [t*hop, t*hop + window_length),
no centering or pre-padding. Frame count for a signal of n samples is
T = 1 + floor((n - window_length) / hop) when n >= window_length, else a
single zero-padded frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

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


@dataclass(frozen=True)
class Spectrogram:
    """One-sided complex STFT, data shaped [channels x frames x bins]."""

    data: np.ndarray
    config: StftConfig
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise ValueError(f"spectrogram data must be 3-d, got ndim={data.ndim}")
        if data.shape[2] != self.config.num_bins:
            raise ValueError(
                f"bin count {data.shape[2]} != fft_size/2+1 = {self.config.num_bins}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram contains non-finite values")


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
    """One-sided STFT of every channel; frames zero-padded to fft_size."""
    if wave.num_samples == 0:
        raise ValueError("cannot analyze an empty waveform")
    frames = frame_signal(wave.samples, cfg)
    return Spectrogram(np.fft.rfft(frames, n=cfg.fft_size, axis=-1), cfg, wave.sample_rate)


def synthesize(spectra, cfg):
    """Weighted overlap-add of one-sided spectra [... x T x F], normalized
    by the squared windows covering each sample (``wola_inverse``)."""
    frames = np.fft.irfft(spectra, n=cfg.fft_size, axis=-1)[..., : cfg.window_length]
    return overlap_add(frames, cfg) * wola_inverse(cfg, frames.shape[-2])


def istft(spec):
    """Weighted overlap-add synthesis; inverse of ``stft`` on the interior.

    Output length is window_length + (T-1)*hop, i.e. trailing samples the
    analysis dropped are not resynthesized. Samples within one window of
    either edge are only partially covered and are not guaranteed exact.
    """
    return Waveform(synthesize(spec.data, spec.config), spec.sample_rate)


# ---------------------------------------------------------------------------
# WAV file I/O (reads PCM 16/32-bit and float, writes IEEE float-32)
# ---------------------------------------------------------------------------

def read_wav(path, sample_rate=None, channels=None):
    """Read a mono or multi-channel WAV as floats in [-1, 1).

    A file at another rate than ``sample_rate``, or of another channel count
    than ``channels``, each where given, is rejected, naming the file.
    """
    rate, data = wavfile.read(path)
    if sample_rate is not None and rate != sample_rate:
        raise ValueError(f"{path} is at {rate} Hz, not at {sample_rate} Hz")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format: {data.dtype}")
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    else:
        samples = samples.T
    if channels is not None and len(samples) != channels:
        raise ValueError(f"{path} has {len(samples)} channel(s), not the array's {channels}")
    try:
        return Waveform(samples, int(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_wav(path, wave):
    """Write a waveform as IEEE float-32."""
    data = wave.samples.T
    if data.shape[1] == 1:
        data = data[:, 0]
    wavfile.write(path, wave.sample_rate, data.astype(np.float32))
