"""Training objectives: scale-invariant SNR on waveforms and binary
cross-entropy on zone maps, each one autodiff op, plus the overlap-add
inverse STFT that connects the beamformed spectrum to SI-SNR (the filter
ops that make that spectrum and the zone map live in ``beamloc``). Each
op's forward is the inference code itself (``si_snr``, ``dsp.synthesize``)
or, for BCE, the loss's own arithmetic; the op adds only the analytic
adjoint. The beamformed spectrum follows the part-axis layout of
``layers``: [2 x T x F] (re, im).

SI-SNR is 10*log10 of a power ratio, as in DCCRN and the SI-SDR
definition, for the loss and for reported dB alike. The source material
prints 20*log10 of that ratio; within +/-30 dB that is exactly this loss
under ``training.gamma`` 2 (the factor 2 is exact in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .dsp import frame_signal, synthesize, wola_inverse
from .layers import to_complex

SI_SNR_CLAMP_DB = 60.0
BCE_EPS = 1e-7
# Relative denominator floor: keeps the ratio finite (and the loss
# differentiable) at perfect reconstruction while preserving scale
# invariance; it only binds beyond the +/-60 dB clamp.
_RATIO_FLOOR = 1e-12


def _si_snr(est, ref):
    """``si_snr`` of 1-d arrays, and a function returning its gradient in
    ``est``: c (2t/T - 2(err_perp + floor t)/E), c = 10 / ln 10,
    t the target, T and E the target and floored error energies, err_perp the
    error less its part along the reference; 0 where the raw dB lies beyond +/-60 or T = 0."""
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: estimate {est.shape} vs reference {ref.shape}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("reference signal is silent")
    target = (np.dot(est, ref) / ref_energy) * ref
    target_energy = np.dot(target, target)
    err = est - target
    err_energy = np.dot(err, err) + _RATIO_FLOOR * target_energy
    db = -np.inf
    if target_energy:
        db = 10.0 * np.log10(target_energy / err_energy)

    def gradient():
        if not -SI_SNR_CLAMP_DB <= db <= SI_SNR_CLAMP_DB:
            return np.zeros(est.shape)
        err_perp = err - ref * (np.dot(ref, err) / ref_energy)
        scale = 20.0 / np.log(10.0)
        return scale * (target / target_energy - (err_perp + _RATIO_FLOOR * target) / err_energy)

    return float(np.clip(db, -SI_SNR_CLAMP_DB, SI_SNR_CLAMP_DB)), gradient


def si_snr(estimate, reference):
    """Scale-invariant SNR in dB, clamped to +/-60.

    Project the estimate onto the reference, compare target and error
    energies. Inputs are 1-d arrays of equal length; the reference must not
    be silent.
    """
    return _si_snr(np.asarray(estimate), np.asarray(reference))[0]


def si_snr_loss(estimate, reference):
    """-``si_snr`` of an estimate tensor against a fixed reference array, as one op."""
    value, gradient = _si_snr(estimate.data, np.asarray(reference))

    def backward_fn(g):
        estimate.accumulate(-g * gradient(), owned=True)

    return Tensor(np.asarray(-value), (estimate,), backward_fn)


def bce_loss(truth, predicted):
    """Binary cross-entropy, natural log, averaged over all n = T*N entries,
    as one op. ``predicted`` is clamped into [eps, 1-eps] before the logs;
    its gradient, -g/n (z/p - (1-z)/(1-p)), is zero where it lies outside.
    Both the mean's 1/n and the gradient take the prediction's dtype; the
    loss is float64."""
    z = np.asarray(truth, dtype=predicted.dtype)
    if z.shape != predicted.shape:
        raise ValueError(f"shape mismatch: truth {z.shape} vs predicted {predicted.shape}")
    x = predicted.data
    p = np.clip(x, BCE_EPS, 1.0 - BCE_EPS)
    inside = (x >= BCE_EPS) & (x <= 1.0 - BCE_EPS)
    not_z, not_p = 1.0 - z, 1.0 - p
    terms = z * np.log(p) + not_z * np.log(not_p)
    scale = np.asarray(1.0 / terms.size, dtype=x.dtype)

    def backward_fn(g):
        gt = (-g * scale).astype(x.dtype)
        predicted.accumulate((gt * z / p - gt * not_z / not_p) * inside, owned=True)

    return Tensor(-(np.float64(terms.sum()) * scale), (predicted,), backward_fn)


@dataclass(frozen=True)
class LossBreakdown:
    si_snr_db: float
    loss_sisnr: float
    loss_bce: float
    total: float


def total_loss(bce, sisnr_loss, gamma=1.0):
    """Multi-task objective: loss_bce + gamma * loss_sisnr (exact sum)."""
    return bce + gamma * sisnr_loss


# ---------------------------------------------------------------------------
# Differentiable synthesis: spectrogram tensor -> waveform tensor
# ---------------------------------------------------------------------------

def synthesize_waveform(spec, cfg):
    """``dsp.synthesize`` of a [2 x T x F] one-sided spectrum (re, im) as one
    autodiff op; the backward is its adjoint: normalize, ``dsp.frame_signal``,
    rfft."""
    t_frames, f_bins = spec.shape[1:]
    if f_bins != cfg.num_bins:
        raise ValueError(f"expected {cfg.num_bins} bins, got {f_bins}")
    nfft = cfg.fft_size

    def backward_fn(g):
        gframes = frame_signal(g * wola_inverse(cfg, t_frames), cfg)
        spec_grad = np.fft.rfft(gframes, n=nfft, axis=1) * (2.0 / nfft)
        # DC and Nyquist are purely real and appear once in the full
        # spectrum, so they take half weight and no imaginary gradient.
        spec_grad[:, 0] *= 0.5
        spec_grad[:, -1] *= 0.5
        grad = np.empty((2,) + spec_grad.shape, dtype=spec.dtype)
        grad[0], grad[1] = spec_grad.real, spec_grad.imag
        grad[1, :, 0] = 0.0
        grad[1, :, -1] = 0.0
        spec.accumulate(grad, owned=True)

    out = synthesize(to_complex(spec.data), cfg).astype(spec.dtype)
    return Tensor(out, (spec,), backward_fn)
