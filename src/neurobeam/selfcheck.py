"""Built-in verification suite: gradient checks against central finite
differences, STFT round-trip, steering-vector identities, and metric
identities. The CLI exposes this as ``neurobeam selfcheck``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .arraygeom import ArrayGeometry, ZoneGrid, steering_set, uca_positions, zone_of_angle
from .dsp import StftConfig, Waveform, istft, stft
from .gradcheck import check_gradients
from .layers import (
    _BAND_BYTES,
    block_kernel,
    conv2d,
    conv_bn_prelu,
    conv2d_input_adjoint,
    conv2d_kernel_adjoint,
    conv2d_raw,
    lstm,
)
from .losses import (
    bce_loss, filter_and_sum_tensor, si_snr_loss, splm_map_tensor, synthesize_waveform,
)
from .metrics import loc_metrics
from .model import zone_scores

GRAD_TOLERANCE = 1e-4


def _complex_conv_build(*conv):
    """Squares of a biased complex ``conv2d`` with the geometry ``conv``
    (stride, pad_f, pad_t and, for a deconv, out_ft)."""

    def build(x, w, bias):
        y = conv2d(x, block_kernel(w), *conv, bias=bias)
        return ad.reduce_sum(y * y)

    return build


def _conv_block_build(weight, training, running, stride, pad_f, pad_t, out_ft=None):
    """Weighted squares of a ``conv_bn_prelu`` block (a deconv with
    ``out_ft``) of its inputs, each run from the ``running`` stats."""

    def build(x, w, gamma, beta, slope):
        y = conv_bn_prelu(x, block_kernel(w), stride, pad_f, pad_t, out_ft,
                          gamma, beta, slope, [a.copy() for a in running], training)
        return ad.reduce_sum(y * y * ad.constant(weight))

    return build


def _lstm_build(x, wx, wh, b):
    """Squares of an ``lstm`` output; the sequence and the stacked weight
    sets are the inputs."""
    y = lstm(x, wx, wh, b)
    return ad.reduce_sum(y * y)


def gradient_cases(seed=0):
    """Named (build, arrays) pairs covering every differentiable operation."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    def r(*shape):
        return rng.standard_normal(shape)

    cases = []

    cases.append((
        "complex_conv2d",
        _complex_conv_build((2, 1), (2, 2), (1, 0)),
        [r(2, 2, 8, 4), 0.3 * r(2, 3, 2, 5, 2), 0.1 * r(2, 3)],
    ))
    cases.append((
        "complex_deconv2d",
        _complex_conv_build((2, 1), (2, 2), (0, 1), (8, 4)),
        [r(2, 3, 4, 4), 0.3 * r(2, 3, 2, 5, 2), 0.1 * r(2, 2)],
    ))
    for kind, geometry, x_shape, out_shape in (
        ("conv", ((2, 1), (2, 2), (1, 0)), (2, 2, 8, 4), (2, 3, 4, 4)),
        ("deconv", ((2, 1), (2, 2), (0, 1), (8, 4)), (2, 3, 4, 4), (2, 2, 8, 4)),
    ):
        c_out = out_shape[1]
        # [2 x C] (r, i) parameters: gamma, beta and PReLU slope
        block_params = [base + 0.1 * r(2, c_out) for base in (1.0, 0.0, 0.25)]
        running = [0.3 * r(2 * c_out), 0.5 + rng.uniform(size=2 * c_out)]
        for training, suffix in ((True, ""), (False, "_eval")):
            cases.append((
                f"complex_{kind}_block{suffix}",
                _conv_block_build(r(*out_shape), training, running, *geometry),
                [r(*x_shape), 0.3 * r(2, 3, 2, 5, 2), *block_params],
            ))
    cases.append((
        "prelu",
        lambda x, s: ad.reduce_sum(ad.prelu(x, s, 1) * ad.prelu(x, s, 1)),
        [r(2, 3, 4), 0.25 + 0.1 * r(3)],
    ))
    cases.append((
        "prelu_map",
        lambda x, s: ad.reduce_sum(ad.prelu(x, s, 1) * ad.prelu(x, s, 1)),
        [r(2, 4, 3, 5), 0.25 + 0.1 * r(4)],
    ))
    x_seq = r(2, 3, 4)
    # The r weight set (wx, wh, b) is drawn, then the i set; each is stacked.
    sets = [[0.4 * r(12, 4), 0.4 * r(12, 3), 0.1 * r(12)] for _ in "ri"]
    cases.append(("lstm", _lstm_build, [x_seq, *map(np.stack, zip(*sets))]))
    cases.append((
        "linear",
        lambda x, w, b: ad.reduce_sum(
            (ad.matmul(x, ad.transpose(w, (1, 0))) + b)
            * (ad.matmul(x, ad.transpose(w, (1, 0))) + b)
        ),
        [r(5, 3), 0.5 * r(4, 3), 0.1 * r(4)],
    ))
    cases.append((
        "sigmoid",
        lambda x: ad.reduce_sum(ad.sigmoid(x) * ad.sigmoid(x)),
        [r(4, 5)],
    ))

    tiny_cfg = StftConfig(window_length=8, hop=2, fft_size=8)
    ref = rng.standard_normal(8 + 3 * 2)

    def sisnr_build(spec):
        return si_snr_loss(synthesize_waveform(spec, tiny_cfg), ref)

    cases.append((
        "si_snr_loss",
        sisnr_build,
        [r(2, 4, 5)],
    ))

    z = (rng.uniform(size=(4, 3)) > 0.6).astype(np.float64)

    def bce_build(logits):
        return bce_loss(z, ad.sigmoid(logits))

    cases.append(("bce_loss", bce_build, [r(4, 3)]))

    def total_build(spec, logits):
        wave = synthesize_waveform(spec, tiny_cfg)
        return bce_loss(z, ad.sigmoid(logits)) + 1.0 * si_snr_loss(wave, ref)

    cases.append(("total_loss", total_build, [r(2, 4, 5), r(4, 3)]))

    spec = r(3, 4, 5) + 1j * r(3, 4, 5)  # [M x T x F]
    steering = np.exp(2j * np.pi * rng.uniform(size=(6, 5, 3)))  # [N x F x M]
    weight = ad.constant(r(4, 6))

    def fas_build(w):
        out = filter_and_sum_tensor(w, spec)
        return ad.reduce_sum(ad.narrow(out, 0, 0, 1) * ad.narrow(out, 0, 1, 1))

    cases.append(("filter_and_sum", fas_build, [r(2, 3, 5, 4)]))
    cases.append((
        "splm_map",
        lambda w: ad.reduce_sum(splm_map_tensor(w, steering) * weight),
        [r(2, 3, 5, 4)],
    ))
    # A low-SNR estimate: its SI-SNR reads about -12 dB.
    cases.append(("si_snr_loss_low_snr", lambda e: si_snr_loss(e, ref), [0.05 * ref + r(ref.size)]))
    scores_weight = ad.constant(r(3, 4))
    cases.append((
        "zone_scores",
        lambda h: ad.reduce_sum(zone_scores(h, 3) * scores_weight),
        [r(2, 6, 5, 4)],
    ))
    # The decoder's skip merge: the (h, skip) pair a deconv block reads in place.
    deconv_block = _conv_block_build(r(2, 2, 8, 4), True, [0.3 * r(4), 0.5 + rng.uniform(size=4)],
                                     (2, 1), (2, 2), (0, 1), (8, 4))
    cases.append((
        "decoder_merge",
        lambda h, skip, *block: deconv_block((h, skip), *block),
        [r(2, 1, 4, 4), r(2, 2, 4, 4), 0.3 * r(2, 3, 2, 5, 2),
         *(base + 0.1 * r(2, 2) for base in (1.0, 0.0, 0.25))],
    ))
    # A block with a zero slope cannot rebuild its standardized map from its
    # output, so it keeps both maps for backward; the blocks above keep one.
    gamma, beta, slope = (base + 0.1 * r(2, 3) for base in (1.0, 0.0, 0.25))
    slope[1, 0] = 0.0
    cases.append((
        "complex_conv_block_two_maps",
        _conv_block_build(r(2, 3, 4, 4), True, [0.3 * r(6), 0.5 + rng.uniform(size=6)],
                          (2, 1), (2, 2), (1, 0)),
        [r(2, 2, 8, 4), 0.3 * r(2, 3, 2, 5, 2), gamma, beta, slope],
    ))
    return cases


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_gradients():
    results = []
    for name, build, arrays in gradient_cases():
        err = check_gradients(build, arrays)
        ok = err < GRAD_TOLERANCE
        results.append((f"gradient_{name}", ok, f"rel err {err:.2e}"))
    return results


def _check_stft_roundtrip():
    cfg = StftConfig()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7])))
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(16000)
        y = istft(stft(Waveform(x[np.newaxis, :]), cfg)).samples[0]
        lo, hi = cfg.window_length, y.shape[0] - cfg.window_length
        err = np.abs(y[lo:hi] - x[lo:hi]).max() / np.sqrt(np.mean(x**2))
        worst = max(worst, err)
    return [("stft_roundtrip", worst < 1e-6, f"interior err {worst:.2e}")]


def _check_steering():
    geom = ArrayGeometry(uca_positions(6, 0.05))
    grid = ZoneGrid(12)
    cfg = StftConfig()
    steering = steering_set(geom, grid, cfg.frequencies(16000))
    unit = np.abs(np.abs(steering) - 1.0).max()
    results = [("steering_unit_modulus", unit < 1e-12, f"|a| dev {unit:.2e}")]

    from .beamloc import splm_map

    zone = 4
    a = steering[zone - 1]  # [F x M]
    w = np.conj(a).T[:, np.newaxis, :] / geom.num_mics  # stored form, [M x 1 x F]
    zmap = splm_map(w, steering)
    dev = abs(zmap[0, zone - 1] - 1.0)
    results.append(("distortionless_identity", dev < 1e-9, f"dev {dev:.2e}"))
    return results


def _check_metrics():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11])))
    ok = True
    for _ in range(50):
        n = 12
        pred = rng.integers(1, n + 1, size=40)
        truth = rng.integers(1, n + 1, size=40)
        m = loc_metrics(pred, truth, np.ones(40, dtype=bool), n)
        if m.acc + m.aer + m.oer != 1.0:
            ok = False
    results = [("metric_identity", ok, "acc+aer+oer == 1")]

    val = bce_loss(np.ones((1, 1)), ad.constant(np.full((1, 1), 0.5))).item()
    results.append(
        ("bce_closed_form", abs(val - np.log(2.0)) < 1e-12, f"|bce-ln2| {abs(val - np.log(2.0)):.2e}")
    )
    # e = s reads 120 dB before the clamp, so the loss has no gradient there.
    est = ad.Tensor(rng.standard_normal(16))
    ad.backward(si_snr_loss(est, est.data.copy()))
    peak = np.abs(est.grad).max()
    results.append(("si_snr_clamp_zero_gradient", peak == 0.0, f"max |grad| {peak:.2e}"))
    zones = zone_of_angle(np.array([0.0, 180.0]), 12)
    results.append(("zone_boundaries", zones[0] == 1 and zones[1] == 7, f"{zones}"))
    return results


def _adjoint_identities(x, w, stride, pad_f, pad_t, rng, suffix):
    fwd = conv2d_raw(x, w, stride, pad_f, pad_t)
    y = rng.standard_normal(fwd.shape)
    lhs = float(np.sum(fwd * y))
    scale = max(abs(lhs), 1e-12)
    adj_x = conv2d_input_adjoint(y, w, stride, pad_f, pad_t, x.shape[2:])
    adj_w = conv2d_kernel_adjoint(x, y, stride, pad_f, pad_t, w.shape)
    dev_x = abs(lhs - float(np.sum(x * adj_x))) / scale
    dev_w = abs(lhs - float(np.sum(w * adj_w))) / scale
    return [
        (f"conv_adjoint_identity{suffix}", dev_x < 1e-10, f"dev {dev_x:.2e}"),
        (f"conv_kernel_adjoint_identity{suffix}", dev_w < 1e-10, f"dev {dev_w:.2e}"),
    ]


def _check_adjoint():
    """<conv(x, w), y> == <x, input_adjoint(y, w)> == <w, kernel_adjoint(x, y)>,
    at strides (2,1) and (1,1), and across the seams of im2col bands."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([13])))
    x = rng.standard_normal((1, 2, 8, 4))
    w = rng.standard_normal((3, 2, 5, 2))
    pad_f, pad_t = (2, 2), (1, 0)
    results = []
    for stride, suffix in (((2, 1), ""), ((1, 1), "_stride1")):
        results += _adjoint_identities(x, w, stride, pad_f, pad_t, rng, suffix)
    # One output row's patches take between a third and a half of the band
    # budget, so the 7 output rows of a 14-bin input at stride 2 form
    # bands of 2, 2, 2 and 1 rows.
    band_t = _BAND_BYTES // (2 * w[0].size * w.itemsize)
    x = rng.standard_normal((1, 2, 14, band_t))
    results += _adjoint_identities(x, w, (2, 1), pad_f, pad_t, rng, "_bands")
    return results


def run_selfcheck():
    """Run all checks; returns a list of (name, passed, detail)."""
    results = []
    results.extend(_check_stft_roundtrip())
    results.extend(_check_steering())
    results.extend(_check_adjoint())
    results.extend(_check_gradients())
    results.extend(_check_metrics())
    return results
