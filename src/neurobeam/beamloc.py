"""Filter-and-sum enhancement and localization/VAD from the filter tensor.

Filter weights are stored in conjugated form, so both the beamformer
output and the steered response are plain (non-conjugated) products:
enhanced(t,f) = sum_m w[m,t,f] * y[m,t,f], and the distortionless index
of zone n is the frequency-averaged |sum_m w[m,t,f] * a[n,f,m]|.
These are the only forward implementations: the training ops in
``losses`` call them and add only the adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .arraygeom import ZoneGrid, steering_set
from .dsp import Spectrogram, istft, stft
from .layers import to_complex

DEFAULT_VAD_THRESHOLD = 0.5


def beamform(weights, data):
    """sum_m w[m,t,f] * y[m,t,f]: filters and spectra [M x T x F] -> [T x F].
    The filters are summed as a C-ordered copy: on [4 x 957 x 257] filters
    einsum took 17 ms on the transposed view callers hold and 9 ms on the
    copy, copying included (2-vCPU x86 machine), with the same bits."""
    if weights.shape != data.shape:
        raise ValueError(f"weights shape {weights.shape} != spectrogram shape {data.shape}")
    return np.einsum("mtf,mtf->tf", np.ascontiguousarray(weights), data)


def filter_and_sum(weights, spec):
    """Apply per-channel filters and sum across microphones -> 1-channel."""
    return Spectrogram(beamform(weights, spec.data)[np.newaxis], spec.config, spec.sample_rate)


# splm_map sums |steered response| over chunks of this many frequency bins,
# so it never holds a whole record's [F x T x N] response (47 MB for 6 s).
_SPLM_CHUNK_BINS = 16


def steered_response(weights, steering, bins=slice(None)):
    """[F x T x N] response sum_m w[m,t,f] * a[n,f,m] of [M x T x F] filters
    to [N x F x M] steering vectors at the frequency ``bins``: one batched
    matmul over frequency."""
    n_zones, f_bins, mics = steering.shape
    if weights.shape[0] != mics or weights.shape[2] != f_bins:
        raise ValueError(
            f"weights [M x T x F] = {weights.shape} incompatible with steering "
            f"[N x F x M] = {steering.shape}"
        )
    return np.matmul(weights[..., bins].transpose(2, 1, 0), steering[:, bins].transpose(1, 2, 0))


def splm_bands(f_bins):
    """The slices of ``_SPLM_CHUNK_BINS`` bins that cover ``f_bins`` bins, in order."""
    step = _SPLM_CHUNK_BINS
    return [slice(f0, f0 + step) for f0 in range(0, f_bins, step)]


def splm_map(weights, steering):
    """Distortionless index per zone: [T x N] frequency-averaged |w^H a|,
    summed over the chunks of bins of ``splm_bands``."""
    f_bins = steering.shape[1]
    bands = splm_bands(f_bins)
    return sum(np.abs(steered_response(weights, steering, b)).sum(axis=0) for b in bands) / f_bins


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


def enhance_utterance(
    noisy,
    model,
    mode,
    zones,
    geometry,
    stft_cfg,
    vad_threshold=DEFAULT_VAD_THRESHOLD,
):
    """Full enhancement + localization pass over one utterance.

    Returns (enhanced 1-channel waveform, LocalizationResult). The output
    waveform is window_length + (T-1)*hop samples long (framing edge
    loss; see dsp.istft).

    The whole pass runs under ``autodiff.no_grad()``: no graph is
    recorded, so each activation is freed once the next layer has read
    it. One ``forward_weights`` call makes the filters; in ``nlm`` mode
    its float32 tensor is the NLM head's input image, and its complex128
    form [M x T x F] feeds filter-and-sum and, in ``splm`` mode, the zone
    map.
    """
    if mode not in ("splm", "nlm"):
        raise ValueError(f"unknown localization mode '{mode}' (expected splm or nlm)")
    with ad.no_grad():
        spec = stft(noisy, stft_cfg)
        w = model.forward_weights(spec.data, training=False)
        weights = to_complex(w.data).transpose(0, 2, 1)
        if mode == "splm":
            steering = steering_set(
                geometry, ZoneGrid(zones), stft_cfg.frequencies(noisy.sample_rate)
            )
            zmap = splm_map(weights, steering)
        else:
            zmap = model.localize(w, training=False).data.astype(np.float64)
        enhanced = istft(filter_and_sum(weights, spec))
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
