"""Image-source room impulse responses and reverberant mixture synthesis.

Mixtures follow the recipe: clean speech inserted into a longer buffer,
convolved per microphone with a full room impulse response; a directional
interference convolved likewise and scaled to a target SIR; white sensor
noise scaled to a target SNR. The training target is the speech convolved
with only the direct + early part of each impulse response.

Each source's images (Allen & Berkley, 1979) are enumerated for all
microphones at once in slabs of the order cube, with each response's
partial sums carried from slab to slab, so a call's working set is bounded
by the slab size rather than growing as T60 cubed; each source buffer's
spectrum is computed once per FFT size for all the responses it is
convolved with. The waveforms are bit-identical to a per-microphone
enumeration of the whole cube and ``scipy.signal.fftconvolve``, whose FFT
sizes and pocketfft transforms ``fftconvolve`` reproduces with
``numpy.fft``.

All randomness flows through numpy's PCG64 generator seeded from 64-bit
integers; record i of a dataset uses SeedSequence([master_seed, i]), so
parallel and serial generation produce identical outputs.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .arraygeom import SPEED_OF_SOUND, ArraySpec, doa_unit_vector
from .dsp import DEFAULT_SAMPLE_RATE, Waveform, num_frames, read_wav, write_wav
from .layers import _buffers, _run_halves

SABINE_CONSTANT = 0.161
DEFAULT_EARLY_MS = 50.0
ARRAY_HEIGHT_M = 1.5  # height of the array center, above the middle of the floor
WALL_MARGIN_M = 0.1  # a placed source stays this far inside every wall


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with a uniform-wall reverberation time."""

    dimensions: tuple
    t60: float
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dimensions)
        object.__setattr__(self, "dimensions", dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"room dimensions must be 3 positive lengths, got {dims}")
        if self.t60 < 0:
            raise ValueError(f"t60 must be non-negative, got {self.t60}")

    @property
    def volume(self):
        lx, ly, lz = self.dimensions
        return lx * ly * lz

    @property
    def surface(self):
        lx, ly, lz = self.dimensions
        return 2.0 * (lx * ly + lx * lz + ly * lz)

    def center(self):
        lx, ly, _ = self.dimensions
        return np.array([lx / 2.0, ly / 2.0, ARRAY_HEIGHT_M])


def reflection_coefficient(room):
    """Uniform wall reflection coefficient from Sabine's relation.

    T60 = 0.161 V / (alpha S) with alpha = 1 - beta^2; a T60 short enough
    to demand alpha > 1 is clamped to beta = 0 with a warning.
    """
    if room.t60 <= 0:
        raise ValueError("reflection coefficient needs t60 > 0; an anechoic room has none")
    alpha = SABINE_CONSTANT * room.volume / (room.t60 * room.surface)
    if alpha > 1.0:
        warnings.warn(
            f"t60={room.t60}s is unreachable for this room (absorption {alpha:.3f} > 1); "
            "clamping reflection coefficient to 0",
            stacklevel=2,
        )
    return float(np.sqrt(max(0.0, 1.0 - alpha)))


def _check_inside(room, point, name):
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError(f"{name} position must be a 3-vector, got shape {p.shape}")
    if not all(0.0 < p[i] < room.dimensions[i] for i in range(3)):
        raise ValueError(f"{name} position {tuple(p)} is outside room {room.dimensions}")
    return p


def default_max_order(room):
    """Reflection order whose images cover the t60 decay tail."""
    if room.t60 <= 0:
        return 0
    return int(np.ceil(room.speed_of_sound * room.t60 / min(room.dimensions))) + 1


# Order-cube cells (rounded down to whole y-z planes, at least one) whose
# images exist at once in image_source_rir. At 131072 a call at 6 x 6 x 3 m,
# T60 0.64 s (order 75, five planes a slab) traces about 5 MB; on a 2-vCPU
# x86-64 machine it timed as fast as 65536 or 262144 at orders 47-116, and
# faster than the whole cube.
_SLAB_CELLS = 1 << 17


def image_source_rir(room, src, mics, max_order, fs=DEFAULT_SAMPLE_RATE):
    """Image-source impulse responses from ``src`` to each row of ``mics``
    ``[M x 3]``, with nearest-sample delays; returns the M responses.

    Images up to total reflection order ``max_order`` contribute an
    impulse of amplitude beta^order / (4 pi d) at the sample nearest to
    d / c, with beta the room's ``reflection_coefficient`` (0 when anechoic).
    The images and their gains are enumerated once for all microphones,
    in slabs of about ``_SLAB_CELLS`` order-cube cells, so the working set
    is bounded however long the reverberation.
    """
    src = _check_inside(room, src, "source")
    mics = [_check_inside(room, mic, f"microphone {m}") for m, mic in enumerate(mics)]
    if any(np.allclose(src, mic) for mic in mics):
        raise ValueError("source and microphone positions coincide")
    beta = reflection_coefficient(room) if room.t60 > 0 else 0.0
    if beta == 0.0:
        max_order = 0

    dims = np.asarray(room.dimensions)
    c = room.speed_of_sound
    reach = (max_order + 1) // 2

    # Per-axis image coordinates and reflection counts: for integer shift n
    # and parity p, coordinate (1-2p)*src + 2nL with |n - p| + |n| wall hits,
    # the same counts on every axis.
    n = np.arange(-reach, reach + 1)
    hits = np.concatenate([2 * np.abs(n), np.abs(n - 1) + np.abs(n)])
    keep = hits <= max_order
    hits = hits[keep].astype(np.min_scalar_type(3 * max_order))
    coords = [np.concatenate([s + 2.0 * n * d, -s + 2.0 * n * d])[keep] for s, d in zip(src, dims)]
    pows = beta ** np.arange(max_order + 1.0)
    sq = [[(coord - p) ** 2 for coord, p in zip(coords, mic)] for mic in mics]

    # The (x, y, z) order cube is walked in C order, a slab of whole y-z
    # planes at a time; within a slab a kept image is an x-y index and a z
    # index. With the squares added as (x + y) + z, and each slab's images
    # added into the carried responses in that order (``np.add.at`` adds
    # repeated indices one after another), each response has the bits of a
    # per-microphone enumeration of the whole cube.
    yz = (hits[:, None] + hits[None, :]).ravel()
    planes = max(1, _SLAB_CELLS // yz.size)
    responses = [np.zeros(0) for _ in mics]
    for x0 in range(0, hits.size, planes):
        slab = slice(x0, x0 + planes)
        order = (hits[slab, None] + yz[None, :]).ravel()
        kept = np.flatnonzero(order <= max_order)  # never empty: hits holds a 0
        gains = pows[order[kept]]
        xy, z = np.divmod(kept, hits.size)
        for m, (dx2, dy2, dz2) in enumerate(sq):
            dist = np.sqrt((dx2[slab, None] + dy2[None, :]).ravel()[xy] + dz2[z])
            amp = gains / (4.0 * np.pi * dist)
            samples = np.rint(dist / c * fs).astype(np.int64)
            grow = samples.max() + 1 - responses[m].size
            if grow > 0:
                responses[m] = np.concatenate([responses[m], np.zeros(grow)])
            np.add.at(responses[m], samples, amp)
    return responses


def next_fast_len(target):
    """The least 5-smooth integer (2^a 3^b 5^c) at least ``target``: the
    real-input FFT size ``scipy.fft.next_fast_len(target, True)`` picks."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two that reaches target
            size = p35 << ((target - 1) // p35).bit_length()
            if size < best:
                best = size
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(signal, responses, n):
    """The first ``n`` samples of ``signal`` convolved with each response,
    as ``[len(responses) x n]``; ``n`` is at most each full length
    ``len(signal) + len(h) - 1``.

    Each row of a response of two or more samples is bit-identical to
    ``scipy.signal.fftconvolve(signal, h)[:n]``: the same FFT sizes,
    transforms (numpy's pocketfft) and products, with the signal's spectrum
    computed once per FFT size. scipy multiplies by a 1-sample response
    directly, so that row differs by roundoff; ``image_source_rir`` returns
    one only in an anechoic room with a microphone within half a sample of
    the source. The rows run as two halves (``layers._run_halves``), each
    in its own spectrum and waveform buffers; a row's bits do not depend on
    its half.
    """
    sizes = [next_fast_len(len(signal) + len(h) - 1) for h in responses]
    spectra = {size: np.fft.rfft(signal, size) for size in dict.fromkeys(sizes)}
    out = np.empty((len(responses), n))
    cut = (len(responses) + 1) // 2
    halves = [range(cut), range(cut, len(responses))] if len(responses) > 1 else [range(cut)]
    largest = [max((sizes[r] for r in rows), default=0) for rows in halves]
    spec_bufs = _buffers([size // 2 + 1 for size in largest], np.complex128)
    wave_bufs = _buffers(largest, np.float64)

    def run(rows, spec_buf, wave_buf):
        for r in rows:
            size = sizes[r]
            # Both operands named, in scipy's order: numpy's complex multiply
            # is not bit-commutative.
            signal_spec = spectra[size]
            response_spec = np.fft.rfft(responses[r], size, out=spec_buf[: size // 2 + 1])
            np.multiply(signal_spec, response_spec, out=response_spec)
            out[r] = np.fft.irfft(response_spec, size, out=wave_buf[:size])[:n]

    _run_halves([partial(run, *half) for half in zip(halves, spec_bufs, wave_bufs)])
    return out


def split_direct_early(rir, early_ms, fs=DEFAULT_SAMPLE_RATE):
    """The direct + early part of an impulse response: a copy of ``rir``
    zeroed from direct arrival + early_ms on. Direct arrival is the first
    non-zero sample (the response is causal by construction).
    """
    if early_ms <= 0:
        raise ValueError(f"early_ms must be positive, got {early_ms}")
    early = np.array(rir, dtype=np.float64)
    nonzero = np.flatnonzero(early)
    if nonzero.size:
        early[nonzero[0] + int(round(early_ms * fs / 1000.0)) :] = 0.0
    return early


def mix_at_db(reference, contaminant, target_db, active=None):
    """Scale factor for ``contaminant`` giving the requested power ratio.

    ``reference`` and ``contaminant`` are [channels x time] (or 1-D)
    arrays. Powers are measured over the reference's active samples
    (boolean mask over time; default all samples). target_db = +inf
    returns scale 0.
    """
    ref = np.atleast_2d(reference)
    con = np.atleast_2d(contaminant)
    if active is None:
        active = np.ones(ref.shape[1], dtype=bool)
    p_ref = float(np.mean(ref[:, active] ** 2))
    if p_ref == 0.0:
        raise ValueError("reference is silent over the active region")
    if np.isposinf(target_db):
        return 0.0
    p_con = float(np.mean(con[:, active] ** 2))
    if p_con == 0.0:
        raise ValueError("contaminant is silent over the active region")
    return float(np.sqrt(p_ref / (p_con * 10.0 ** (target_db / 10.0))))


def placement_from_azimuth(room, azimuth_deg, distance):
    """Position of a source ``distance`` meters from the array center at
    the given azimuth, shrinking the distance if needed so the source
    stays ``WALL_MARGIN_M`` inside the room (a fixed interference
    distance does not fit every sampled room)."""
    u = doa_unit_vector(azimuth_deg)
    center = room.center()
    reach = np.inf
    for axis in range(3):
        if abs(u[axis]) < 1e-12:
            continue
        if u[axis] > 0:
            reach = min(reach, (room.dimensions[axis] - WALL_MARGIN_M - center[axis]) / u[axis])
        else:
            reach = min(reach, (WALL_MARGIN_M - center[axis]) / u[axis])
    if reach <= 0:
        raise ValueError(f"array center leaves no room for a source at azimuth {azimuth_deg}")
    return center + min(distance, reach) * u


_ONE_TURN = {"at least": -360, "at most": 360}  # an azimuth, one turn either way of +x
# A level in dB. Up to +3082 dB its power ratio 10^(dB/10) is a normal float
# (mix_at_db's product of powers can vanish with a subnormal one). Down at
# -400 dB a toy record's training step overflows float32 (-300 dB still
# trains), so -200 dB leaves 100 dB of margin for full-scale speech.
_LEVEL_DB = {"at least": -200, "at most": 3082}


@dataclass(frozen=True)
class ManifestEntry:
    """One dataset record, a line of its manifest: ``_build_record`` draws it,
    ``synthesize_mixture`` renders it, ``generate_dataset`` writes it and
    ``load_manifest`` checks it. A ``sir_db`` (``snr_db``) of +Infinity: no interference (noise)."""

    id: int = field(metadata={"at least": 0})
    seed: int = field(metadata={"at least": 0})
    target_azimuth_deg: float = field(metadata=_ONE_TURN)
    interference_azimuth_deg: float = field(metadata=_ONE_TURN)
    sir_db: float
    snr_db: float
    t60_s: float = field(metadata={"at least": 0})
    room_dims: tuple[float, float, float] = field(metadata={"greater than": 0})
    duration_s: float = field(metadata={"greater than": 0})
    speech_offset_s: float = field(metadata={"at least": 0})
    speech_len_s: float = field(metadata={"greater than": 0})
    sample_rate: int = field(metadata={"at least": 1})
    noisy_path: str
    target_path: str

    def __post_init__(self):
        if not self.speech_offset_s + self.speech_len_s <= self.duration_s:
            raise ValueError(f"speech_offset_s + speech_len_s exceeds duration_s {self.duration_s}")
        for key in ("sir_db", "snr_db"):
            if not getattr(self, key) > -np.inf:
                raise ValueError(f"{key} must be finite or Infinity, got {getattr(self, key)}")
        for key in ("noisy_path", "target_path"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")


def synthesize_mixture(room, array, target_src, interference_src, clean_speech,
                       interference_signal, entry, early_ms=DEFAULT_EARLY_MS):
    """Render the ``ManifestEntry`` ``entry`` as one reverberant
    multi-microphone mixture; returns the ``(noisy, target)`` waveforms.

    The ``array`` (an ``ArraySpec``) sits at ``room.center()``;
    ``target_src`` and ``interference_src`` are source positions, and
    ``interference_src`` and ``interference_signal`` may be None for
    interference-free mixtures. Deterministic given ``entry.seed``.
    """
    fs = clean_speech.sample_rate
    mics = room.center() + array.mic_positions

    n = int(round(entry.duration_s * fs))
    off = int(round(entry.speech_offset_s * fs))
    speech_smp = int(round(entry.speech_len_s * fs))
    sig = clean_speech.samples[0][:speech_smp]
    buffer = np.zeros(n)
    buffer[off : off + sig.shape[0]] = sig
    active = np.zeros(n, dtype=bool)
    active[off : off + sig.shape[0]] = True

    max_order = default_max_order(room)
    rirs = image_source_rir(room, target_src, mics, max_order, fs)
    early = [split_direct_early(rir, early_ms, fs) for rir in rirs]
    speech = fftconvolve(buffer, rirs + early, n)
    rev_speech, target = speech[: array.mics], speech[array.mics :]

    rev_intf = None
    if interference_src is not None and interference_signal is not None:
        intf_sig = interference_signal.samples[0]
        reps = -(-n // intf_sig.shape[0])
        intf_buffer = np.tile(intf_sig, reps)[:n]
        intf_rirs = image_source_rir(room, interference_src, mics, max_order, fs)
        rev_intf = fftconvolve(intf_buffer, intf_rirs, n)
        rev_intf *= mix_at_db(rev_speech[0:1], rev_intf[0:1], entry.sir_db, active)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([entry.seed])))
    noise = rng.standard_normal((array.mics, n))
    noise *= mix_at_db(rev_speech[0:1], noise[0:1], entry.snr_db, active)

    # speech + interference + noise, summed in place in that order; without
    # interference the speech gets + 0.0, which turns its -0.0s into +0.0s.
    noisy = rev_speech.copy()
    noisy += 0.0 if rev_intf is None else rev_intf
    noisy += noise
    return Waveform(noisy, fs), Waveform(target, fs)


# ---------------------------------------------------------------------------
# Built-in surrogate signals (no external corpora required)
# ---------------------------------------------------------------------------

def speech_surrogate(rng, duration, fs=DEFAULT_SAMPLE_RATE):
    """Amplitude-modulated harmonic complex with a speech-like envelope."""
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    # Smooth random pitch contour around 100-220 Hz.
    knots = 8
    f0_pts = rng.uniform(100.0, 220.0, size=knots)
    f0 = np.interp(np.linspace(0, knots - 1, n), np.arange(knots), f0_pts)
    phase = 2.0 * np.pi * np.cumsum(f0) / fs
    max_harm = max(2, int(4000.0 / f0.max()))
    offsets = [rng.uniform(0, 2 * np.pi) for _ in range(max_harm)]
    # sig = sum over h = 1..H, in order, of (1/h) sin(h phase + offset_h):
    # elementwise, so the two halves of the time axis (``layers._run_halves``)
    # hold the bits of one loop over the whole buffer.
    sig = np.zeros(n)
    parts = [slice(0, n // 2), slice(n // 2, n)]
    scratch = _buffers([part.stop - part.start for part in parts], np.float64)

    def run(part, buf):
        acc, term = sig[part], buf[: part.stop - part.start]
        for h, offset in enumerate(offsets, 1):
            np.multiply(h, phase[part], out=term)
            term += offset
            np.sin(term, out=term)
            term *= 1.0 / h
            acc += term

    _run_halves([partial(run, *half) for half in zip(parts, scratch)])
    # Syllabic amplitude bursts at 2-5 Hz plus an edge fade.
    rate = rng.uniform(2.0, 5.0)
    env = np.clip(np.sin(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)), 0.0, None)
    fade = min(n // 20, int(0.05 * fs))
    ramp = np.ones(n)
    ramp[:fade] = np.linspace(0, 1, fade)
    ramp[n - fade :] = np.linspace(1, 0, fade)
    sig *= (0.1 + 0.9 * env) * ramp
    sig *= 0.1 / np.sqrt(np.mean(sig**2))
    return Waveform(sig[np.newaxis, :], fs)


def interference_surrogate(rng, duration, fs=DEFAULT_SAMPLE_RATE):
    """Pink-ish modulated noise standing in for music/engine interference."""
    n = int(round(duration * fs))
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    shaping = 1.0 / np.sqrt(np.maximum(freqs, 30.0))
    sig = np.fft.irfft(spectrum * shaping, n=n)
    t = np.arange(n) / fs
    am = 1.0 + 0.5 * np.sin(2.0 * np.pi * rng.uniform(0.5, 3.0) * t + rng.uniform(0, 2 * np.pi))
    sig *= am
    sig *= 0.1 / np.sqrt(np.mean(sig**2))
    return Waveform(sig[np.newaxis, :], fs)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureRanges:
    """Sampling ranges for mixture generation (the config's ``dataset``).

    ``rooms``, ``t60_ranges`` and ``target_distance_ranges`` are paired by
    index: one scenario index is drawn per record and selects all three.
    """

    rooms: tuple[tuple[float, float, float], ...] = field(
        default=((4.0, 4.0, 3.0), (5.0, 5.0, 3.0), (6.0, 6.0, 3.0)), metadata={"greater than": 0})
    t60_ranges: tuple[tuple[float, float], ...] = field(
        default=((0.16, 0.32), (0.32, 0.48), (0.48, 0.64)), metadata={"at least": 0})
    target_distance_ranges: tuple[tuple[float, float], ...] = field(
        default=((1.0, 1.5), (1.0, 2.0), (1.0, 2.5)), metadata={"greater than": 0})
    interference_distance_m: float = field(default=2.0, metadata={"greater than": 0})
    target_azimuth_grid: tuple[float, float, float] = field(  # start, stop, step
        default=(0.0, 180.0, 1.0), metadata=_ONE_TURN)
    interference_azimuth_grid: tuple[float, float, float] = field(
        default=(180.0, 360.0, 1.0), metadata=_ONE_TURN)
    sir_range_db: tuple[float, float] = field(default=(-5.0, 15.0), metadata=_LEVEL_DB)
    sir_values_db: tuple[float, ...] | None = None  # each item a level or Infinity, no interference
    snr_range_db: tuple[float, float] = field(default=(10.0, 30.0), metadata=_LEVEL_DB)
    duration_s: float = field(default=6.0, metadata={"greater than": 0})
    speech_len_s: float = field(default=4.0, metadata={"greater than": 0})
    sample_rate: int = field(default=DEFAULT_SAMPLE_RATE, metadata={"at least": 1})
    early_ms: float = field(default=DEFAULT_EARLY_MS, metadata={"greater than": 0})
    speech_dir: str | None = None

    def __post_init__(self):
        paired = (self.rooms, self.t60_ranges, self.target_distance_ranges)
        keys = "dataset.rooms, dataset.t60_ranges and dataset.target_distance_ranges"
        if len({len(items) for items in paired}) > 1:
            counts = ", ".join(str(len(items)) for items in paired)
            raise ValueError(f"{keys} are paired by index, but list {counts} items")
        if not self.rooms:
            raise ValueError(f"{keys} must list at least one scenario")
        for i, db in enumerate(self.sir_values_db or ()):
            if not (_LEVEL_DB["at least"] <= db <= _LEVEL_DB["at most"] or db == np.inf):
                raise ValueError(f"dataset.sir_values_db[{i}] must be Infinity or in "
                                 f"[{_LEVEL_DB['at least']}, {_LEVEL_DB['at most']}] dB, got {db}")
        pairs = [("sir_range_db", self.sir_range_db), ("snr_range_db", self.snr_range_db)]
        pairs += [(f"{key}[{i}]", pair) for key in ("t60_ranges", "target_distance_ranges")
                  for i, pair in enumerate(getattr(self, key))]
        for key, (lo, hi) in pairs:
            if not lo <= hi:
                raise ValueError(f"dataset.{key} must be ordered low to high, got {[lo, hi]}")
        for key in ("target_azimuth_grid", "interference_azimuth_grid"):
            start, stop, step = grid = getattr(self, key)
            if not (step > 0 and start <= stop):
                raise ValueError(f"dataset.{key} needs step > 0, start <= stop, got {list(grid)}")
        if not self.speech_len_s <= self.duration_s:
            raise ValueError(f"dataset.speech_len_s {self.speech_len_s} exceeds dataset.duration_s")
        if self.sir_values_db == ():
            raise ValueError("dataset.sir_values_db must list at least one value or be null")


@dataclass(frozen=True)
class DatasetConfig(MixtureRanges, ArraySpec):
    """Mixture ranges plus the seed and the microphone array they are drawn for."""

    master_seed: int = 0

    def __post_init__(self):
        MixtureRanges.__post_init__(self)
        ArraySpec.__post_init__(self)


def _azimuth_choices(grid):
    lo, hi, step = grid
    return np.arange(lo, hi + step / 2, step)


def _build_record(cfg, index):
    """One dataset record from its derived PRNG stream; draw order is fixed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.master_seed, index])))
    scenario = int(rng.integers(len(cfg.rooms)))
    t60 = float(rng.uniform(*cfg.t60_ranges[scenario]))
    target_az = float(rng.choice(_azimuth_choices(cfg.target_azimuth_grid)))
    intf_az = float(rng.choice(_azimuth_choices(cfg.interference_azimuth_grid)))
    target_dist = float(rng.uniform(*cfg.target_distance_ranges[scenario]))
    if cfg.sir_values_db is not None:
        sir = float(rng.choice(np.asarray(cfg.sir_values_db, dtype=np.float64)))
    else:
        sir = float(rng.uniform(*cfg.sir_range_db))
    snr = float(rng.uniform(*cfg.snr_range_db))
    offset = float(rng.uniform(0.0, cfg.duration_s - cfg.speech_len_s))
    seed = int(rng.integers(2**63))

    room = RoomSpec(cfg.rooms[scenario], t60, cfg.speed_of_sound)
    target_src = placement_from_azimuth(room, target_az, target_dist)
    intf_src = placement_from_azimuth(room, intf_az, cfg.interference_distance_m)

    if cfg.speech_dir is not None:
        files = sorted(Path(cfg.speech_dir).glob("*.wav"))
        if not files:
            raise ValueError(f"no WAV files in speech_dir {cfg.speech_dir}")
        path = files[int(rng.integers(len(files)))]
        speech = read_wav(path, cfg.sample_rate)
        if speech.num_samples < int(round(cfg.speech_len_s * cfg.sample_rate)):
            raise ValueError(f"speech file {path} is shorter than speech_len_s={cfg.speech_len_s}")
    else:
        speech = speech_surrogate(rng, cfg.speech_len_s, cfg.sample_rate)
    interference = interference_surrogate(rng, cfg.duration_s, cfg.sample_rate)

    entry = ManifestEntry(
        id=index, seed=seed, target_azimuth_deg=target_az, interference_azimuth_deg=intf_az,
        sir_db=sir, snr_db=snr, t60_s=t60, room_dims=cfg.rooms[scenario],
        duration_s=cfg.duration_s, speech_offset_s=offset, speech_len_s=cfg.speech_len_s,
        sample_rate=cfg.sample_rate, noisy_path=f"mix_{index:05d}_noisy.wav",
        target_path=f"mix_{index:05d}_target.wav")
    noisy, target = synthesize_mixture(room, cfg, target_src, intf_src, speech, interference,
                                       entry, early_ms=cfg.early_ms)
    return noisy, target, entry


def generate_dataset(cfg, count, out_dir, threads=1):
    """Write ``count`` mixtures plus a line-delimited JSON manifest.

    Returns the records' ``ManifestEntry``s as dicts. Re-running with the same
    master seed produces byte-identical WAVs and manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    workers = min(threads, count)  # a fork pool starts all its workers at once
    parallel = workers > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        build = pool.map if parallel else map
        for noisy, target, entry in build(_build_record, [cfg] * count, range(count)):
            write_wav(out / entry.noisy_path, noisy)
            write_wav(out / entry.target_path, target)
            entries.append(asdict(entry))
    with open(out / "manifest.jsonl", "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def load_manifest(path):
    """The parsed JSON objects of the manifest at ``path``, one per non-blank
    line. A line that is not a ``ManifestEntry`` as ``config.load_section``
    reads one is an error naming ``file:line`` and the key; so is no line."""
    from .config import ConfigError, load_section  # config imports this module

    entries = []
    with open(path, "rb") as fh:  # json decodes each line, so bad UTF-8 names its line too
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
                load_section(ManifestEntry, entries[-1], "")
            except ConfigError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not a JSON object ({exc})") from exc
    if not entries:
        raise ValueError(f"dataset manifest {path} is empty")
    return entries


def azimuth_track(num_samples, offset, length, azimuth_deg, stft_cfg):
    """Per-frame azimuth of a source active on samples [offset, offset + length)
    of a recording: NaN for the frames that do not overlap them."""
    starts = stft_cfg.hop * np.arange(num_frames(num_samples, stft_cfg.window_length, stft_cfg.hop))
    active = (starts < offset + length) & (starts + stft_cfg.window_length > offset)
    return np.where(active, azimuth_deg, np.nan)


def azimuth_track_from_entry(entry, stft_cfg):
    """Rebuild the per-frame azimuth/inactive track from manifest fields."""
    n, off, length = (
        int(round(entry[key] * entry["sample_rate"]))
        for key in ("duration_s", "speech_offset_s", "speech_len_s")
    )
    return azimuth_track(n, off, length, entry["target_azimuth_deg"], stft_cfg)
