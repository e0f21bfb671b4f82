"""Windowed short-time Fourier analysis/synthesis and WAV file I/O.

Framing is causal: frame t covers samples [t*hop, t*hop + window_length),
no centering or pre-padding. Frame count for a signal of n samples is
T = 1 + floor((n - window_length) / hop) when n >= window_length, else a
single zero-padded frame.
"""

from __future__ import annotations

import os
import struct
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
# WAV file I/O (reads PCM 16/32-bit and float, writes IEEE float-32)
# ---------------------------------------------------------------------------

_FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0,
               np.dtype(np.float32): 1.0, np.dtype(np.float64): 1.0}


# What ``wavfile.read`` raises on a damaged header besides its ValueErrors:
# struct.error (a cut), ZeroDivisionError (0 channels), TypeError (a bit
# depth with no dtype), UnboundLocalError (no data chunk read).
_PARSE_ERRORS = (ValueError, TypeError, ArithmeticError, LookupError, NameError, struct.error)


def _chunk_overruns_file(path):
    """Whether a chunk of the RIFF file at ``path``, up to the length its
    header declares, runs past the file's end. scipy reads such a file with
    only a warning: a cut data chunk as the samples left, and one whose
    size field was damaged smaller as fewer samples, the rest skipped as an
    unknown chunk. RIFX and RF64 files are not walked."""
    with open(path, "rb") as fh:
        riff, size = struct.unpack("<4sI", fh.read(8).ljust(8, b"\0"))
        if riff != b"RIFF":
            return False
        end = fh.seek(0, os.SEEK_END)
        pos, stop = 12, min(end, 8 + size)
        while pos + 8 <= stop:
            fh.seek(pos + 4)
            chunk = struct.unpack("<I", fh.read(4))[0]
            pos += 8 + chunk + chunk % 2
    return pos > end + 1  # a last odd-sized chunk may lack its pad byte


def read_wav(path, sample_rate=None, channels=None):
    """Read a mono or multi-channel WAV as floats in [-1, 1).

    A file at another rate than ``sample_rate``, or of another channel count
    than ``channels``, each where given, is rejected, naming the file, and
    so is a file that holds no samples, that scipy cannot parse, or whose
    chunks run past its end.
    """
    if _chunk_overruns_file(path):
        raise ValueError(f"{path} is cut or damaged: a chunk runs past the end of the file")
    try:
        rate, data = wavfile.read(path)
    except _PARSE_ERRORS as exc:
        raise ValueError(f"{path} is not a readable WAV file ({type(exc).__name__}: {exc})") from exc
    if sample_rate is not None and rate != sample_rate:
        raise ValueError(f"{path} is at {rate} Hz, not at {sample_rate} Hz")
    if data.size == 0:
        raise ValueError(f"{path} holds no samples")
    if data.dtype not in _FULL_SCALE:
        raise ValueError(f"{path} holds an unsupported WAV sample format: {data.dtype}")
    samples = data.T.astype(np.float64)
    samples /= _FULL_SCALE[data.dtype]
    try:
        wave = Waveform(samples, int(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if channels is not None and wave.channels != channels:
        raise ValueError(f"{path} has {wave.channels} channel(s), not the array's {channels}")
    return wave


def write_wav(path, wave):
    """Write a waveform as IEEE float-32."""
    data = wave.samples.T
    if data.shape[1] == 1:
        data = data[:, 0]
    wavfile.write(path, wave.sample_rate, data.astype(np.float32))
