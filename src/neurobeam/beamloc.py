"""Filter-and-sum enhancement and localization/VAD from the filter tensor.

Both stages read the filters [2 x M x F x T] as ``MimoDccrn.forward_weights``
returns them and convert one chunk of bins at a time to complex128. Filter
weights are stored in conjugated form, so both the beamformer output and
the steered response are plain (non-conjugated) products:
enhanced(t,f) = sum_m w[m,t,f] * y[m,t,f], and the distortionless index
of zone n is the frequency-averaged |sum_m w[m,t,f] * a[n,f,m]|.
These are the only forward implementations: the training ops in
``losses`` call them and add only the adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .arraygeom import steering_set
from .dsp import istft, stft
from .layers import to_complex

DEFAULT_VAD_THRESHOLD = 0.5


# Both stages convert the filters one chunk of this many bins at a time, so
# neither holds a record's complex filters (15.7 MB for 6 s) or, in the zone
# map, its [F x T x N] steered response (47 MB).
_SPLM_CHUNK_BINS = 16


def splm_bands(f_bins):
    """The slices of ``_SPLM_CHUNK_BINS`` bins that cover ``f_bins`` bins, in order."""
    step = _SPLM_CHUNK_BINS
    return [slice(f0, f0 + step) for f0 in range(0, f_bins, step)]


def filter_and_sum(weights, spec):
    """sum_m w[m,t,f] * y[m,t,f]: filters [2 x M x F x T] and spectra [M x T x F]
    -> the 1-channel spectrum [1 x T x F], one chunk of ``splm_bands`` at a
    time; each bin sums only over the mics, so the chunk size sets no bits."""
    mics, t_frames, f_bins = spec.shape
    if weights.shape != (2, mics, f_bins, t_frames):
        raise ValueError(f"weights [2 x M x F x T] = {weights.shape} incompatible with "
                         f"spectrogram [M x T x F] = {spec.shape}")
    out = np.empty((1, t_frames, f_bins), dtype=np.complex128)
    for bins in splm_bands(f_bins):
        band = to_complex(weights[:, :, bins].transpose(0, 1, 3, 2))  # [M x T x F'], as spec
        np.einsum("mtf,mtf->tf", band, spec[:, :, bins], out=out[0, :, bins])
    return out


def steered_response(weights, steering, bins=slice(None)):
    """[F' x T x N] response sum_m w[m,t,f] * a[n,f,m] of filters [2 x M x F x T] to
    [N x F x M] steering vectors at the ``bins``: one batched matmul over frequency."""
    n_zones, f_bins, mics = steering.shape
    if weights.shape[1:3] != (mics, f_bins):
        raise ValueError(f"weights [2 x M x F x T] = {weights.shape} incompatible with "
                         f"steering [N x F x M] = {steering.shape}")
    band = to_complex(weights[:, :, bins])  # [M x F' x T]: each bin's [T x M] is BLAS-shaped
    return np.matmul(band.transpose(1, 2, 0), steering[:, bins].transpose(1, 2, 0))


def splm_map(weights, steering):
    """Distortionless index per zone: [T x N] frequency-averaged |w^H a|,
    summed over the chunks of bins of ``splm_bands``."""
    f_bins = steering.shape[1]
    return sum(np.abs(steered_response(weights, steering, b)).sum(axis=0)
               for b in splm_bands(f_bins)) / f_bins


def localize(zmap):
    """Per-frame 1-based zone via argmax; ties break to the lowest index."""
    return np.argmax(zmap, axis=1) + 1


def vad(zmap, threshold=DEFAULT_VAD_THRESHOLD):
    """Voice activity from the peak zone score.

    Scores are clamped to [0, 1] for the decision (the signal-processing
    map is a magnitude average and can exceed 1); a frame is active only
    when its score strictly exceeds the threshold.
    """
    raw = zmap.max(axis=1)
    scores = np.clip(raw, 0.0, 1.0)
    return scores, scores > threshold


@dataclass(frozen=True)
class LocalizationResult:
    """Per-frame zone decisions, VAD scores/decisions, and the zone map."""

    zone_track: np.ndarray
    vad_track: np.ndarray
    vad_decisions: np.ndarray
    zmap: np.ndarray

    def __post_init__(self):
        if not np.array_equal(self.zone_track, localize(self.zmap)):
            raise ValueError("zone_track must be the argmax of the zone map")


def localization_from_map(zmap, threshold=DEFAULT_VAD_THRESHOLD):
    scores, decisions = vad(zmap, threshold)
    return LocalizationResult(localize(zmap), scores, decisions, zmap)


def enhance_utterance(noisy, model, mode, zones, array, stft_cfg,
                      vad_threshold=DEFAULT_VAD_THRESHOLD):
    """Full enhancement + localization pass over one utterance.

    Returns (enhanced 1-channel waveform, LocalizationResult). The output
    waveform is window_length + (T-1)*hop samples long (framing edge
    loss; see dsp.istft). In ``nlm`` mode the model's NLM head must have
    ``zones`` zones, which is checked before any work.

    The whole pass runs under ``autodiff.no_grad()``: no graph is
    recorded, so each activation is freed once the next layer has read
    it. One ``forward_weights`` call makes the filter tensor; filter-and-sum
    and, in ``splm`` mode, the zone map read it as it is, one chunk of bins
    at a time. The spectrogram is dropped before the ISTFT, so in ``nlm``
    mode the NLM head, which runs last on the same filter tensor, does not
    hold it.
    """
    if mode not in ("splm", "nlm"):
        raise ValueError(f"unknown localization mode '{mode}' (expected splm or nlm)")
    if mode == "nlm" and (model.nlm is None or model.nlm.zones != zones):
        raise ValueError(f"mode nlm needs an NLM head of {zones} zones, not the model's "
                         f"({'none' if model.nlm is None else model.nlm.zones}); use --mode splm")
    with ad.no_grad():
        spec = stft(noisy, stft_cfg)
        w = model.forward_weights(spec, training=False)
        if mode == "splm":
            steering = steering_set(array, zones, stft_cfg.frequencies(noisy.sample_rate))
            zmap = splm_map(w.data, steering)
        enhanced = filter_and_sum(w.data, spec)
        del spec
        enhanced = istft(enhanced, stft_cfg, noisy.sample_rate)
        if mode == "nlm":
            zmap = model.localize(w, training=False).data.astype(np.float64)
    return enhanced, localization_from_map(zmap, vad_threshold)


def write_localization_csv(path, result, frame_times):
    """Per-frame CSV: frame_index, time_s, zone, vad, then one zone score each."""
    zmap = result.zmap
    t_frames, zones = zmap.shape
    table = np.column_stack([
        np.arange(t_frames), np.asarray(frame_times)[:t_frames],
        result.zone_track, result.vad_track, zmap,
    ])
    header = ["frame_index", "time_s", "zone", "vad"] + [f"z_{n + 1}" for n in range(zones)]
    np.savetxt(
        path, table, fmt=["%d", "%.6f", "%d"] + ["%.6f"] * (zones + 1), delimiter=",",
        newline="\r\n", header=",".join(header), comments="",
    )
