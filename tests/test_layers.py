import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor, backward
from neurobeam.checkpoint import load_checkpoint, require_shapes, save_checkpoint
from neurobeam.gradcheck import check_gradients
from neurobeam.layers import (
    ComplexBatchNorm,
    ComplexConvTranspose2d,
    ComplexConv2d,
    ComplexLSTM,
    ComplexLinear,
    ComplexTensor,
    complex_magnitude,
    complex_split,
    complex_stack,
    conv2d,
    conv2d_transpose,
    lstm,
)
from neurobeam.optim import Adam


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def _complex_from(rng, shape):
    return ComplexTensor(
        Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape))
    )


# ---------------------------------------------------------------------------
# complex convolution
# ---------------------------------------------------------------------------

def test_conv_one_by_one_identity():
    rng = _rng(1)
    layer = ComplexConv2d(3, 3, (1, 1), (1, 1), rng, np.float64)
    layer.w_r.data = np.eye(3).reshape(3, 3, 1, 1)
    layer.w_i.data = np.zeros((3, 3, 1, 1))
    x = _complex_from(rng, (1, 3, 5, 4))
    out = layer(x)
    assert np.allclose(out.re.data, x.re.data)
    assert np.allclose(out.im.data, x.im.data)


def test_conv_zero_imag_kernel_reduces_to_real_convs():
    rng = _rng(2)
    layer = ComplexConv2d(2, 4, (5, 2), (2, 1), rng, np.float64)
    layer.w_i.data[...] = 0.0
    x = _complex_from(rng, (1, 2, 8, 6))
    out = layer(x)
    re_only = conv2d(x.re, layer.w_r, (2, 1), layer.pad_f, layer.pad_t)
    im_only = conv2d(x.im, layer.w_r, (2, 1), layer.pad_f, layer.pad_t)
    assert np.allclose(out.re.data, re_only.data)
    assert np.allclose(out.im.data, im_only.data)


def test_conv_single_element_complex_product():
    rng = _rng(3)
    layer = ComplexConv2d(1, 1, (1, 1), (1, 1), rng, np.float64)
    layer.w_r.data[...] = 0.0
    layer.w_i.data[...] = 1.0  # kernel = j
    x = ComplexTensor(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros((1, 1, 1, 1))))
    out = layer(x)  # (0 + j) * (1 + 0j) = j
    assert out.re.data[0, 0, 0, 0] == pytest.approx(0.0)
    assert out.im.data[0, 0, 0, 0] == pytest.approx(1.0)


def test_conv_freq_halving_and_causal_time():
    rng = _rng(4)
    layer = ComplexConv2d(2, 3, (5, 2), (2, 1), rng, np.float64)
    x = _complex_from(rng, (1, 2, 64, 9))
    out = layer(x)
    assert out.shape == (1, 3, 32, 9)


def test_deconv_is_adjoint_of_conv():
    # <conv(x), y>_R == <x, deconv(y)>_R with shared kernels, zero bias.
    # The deconv's time padding mirrors an anti-causally padded conv, so
    # the adjoint partner is built with causal=False.
    rng = _rng(5)
    conv = ComplexConv2d(2, 3, (5, 2), (2, 1), rng, np.float64, causal=False)
    deconv = ComplexConvTranspose2d(3, 2, (5, 2), (2, 1), rng, np.float64)
    deconv.w_r = conv.w_r
    deconv.w_i = conv.w_i
    x = _complex_from(rng, (1, 2, 8, 4))
    y = _complex_from(rng, (1, 3, 4, 4))
    cx = conv(x)
    dy = deconv(y)
    lhs = np.sum(cx.re.data * y.re.data) + np.sum(cx.im.data * y.im.data)
    rhs = np.sum(x.re.data * dy.re.data) + np.sum(x.im.data * dy.im.data)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_deconv_identity_kernel():
    rng = _rng(6)
    layer = ComplexConvTranspose2d(2, 2, (1, 1), (1, 1), rng, np.float64)
    layer.w_r.data = np.eye(2).reshape(2, 2, 1, 1)
    layer.w_i.data = np.zeros((2, 2, 1, 1))
    x = _complex_from(rng, (1, 2, 6, 3))
    out = layer(x)
    assert np.allclose(out.re.data, x.re.data)
    assert np.allclose(out.im.data, x.im.data)


def test_deconv_zero_input_zero_output():
    rng = _rng(7)
    layer = ComplexConvTranspose2d(3, 2, (5, 2), (2, 1), rng, np.float64)
    x = ComplexTensor(Tensor(np.zeros((1, 3, 4, 5))), Tensor(np.zeros((1, 3, 4, 5))))
    out = layer(x)
    assert np.all(out.re.data == 0) and np.all(out.im.data == 0)
    assert out.shape == (1, 2, 8, 5)


def test_conv_transpose_rejects_inconsistent_shape():
    rng = _rng(8)
    x = Tensor(rng.standard_normal((1, 2, 4, 3)))
    w = Tensor(rng.standard_normal((2, 2, 5, 2)))
    with pytest.raises(ValueError, match="declared output"):
        conv2d_transpose(x, w, (2, 1), (2, 2), (0, 1), (64, 3))


def test_complex_linearity_of_linear_layers():
    # f(alpha * x) == alpha * f(x) for complex alpha, bias-free layers.
    rng = _rng(9)
    alpha = 0.7 - 1.3j
    conv = ComplexConv2d(2, 3, (5, 2), (2, 1), rng, np.float64)
    deconv = ComplexConvTranspose2d(2, 3, (5, 2), (2, 1), rng, np.float64)
    lin = ComplexLinear(4, 3, rng, np.float64)
    cases = [
        (conv, (1, 2, 8, 4)),
        (deconv, (1, 2, 8, 4)),
        (lin, (5, 4)),
    ]
    for layer, shape in cases:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fx = layer(ComplexTensor.from_numpy(x)).to_numpy()
        fax = layer(ComplexTensor.from_numpy(alpha * x)).to_numpy()
        assert np.allclose(fax, alpha * fx, atol=1e-12)


def test_complex_conv_output_halves_are_views_of_one_map():
    rng = _rng(16)
    layer = ComplexConv2d(2, 3, (5, 2), (2, 1), rng, np.float64)
    out = layer(_complex_from(rng, (1, 2, 8, 4)))
    assert not np.shares_memory(out.re.data, out.im.data)
    assert out.re.data.base is not None and out.re.data.base is out.im.data.base


# ---------------------------------------------------------------------------
# real conv kernels against a direct nested-loop reference
# ---------------------------------------------------------------------------

def _windows(fo, to, stride, kernel):
    """(u, v, frequency slice, time slice) of every output position."""
    (sf, st), (kf, kt) = stride, kernel
    for u in range(fo):
        for v in range(to):
            yield u, v, slice(u * sf, u * sf + kf), slice(v * st, v * st + kt)


def _ref_conv(x, w, stride, pad_f, pad_t):
    xp = np.pad(x, ((0, 0), (0, 0), pad_f, pad_t))
    o, _, kf, kt = w.shape
    fo = (xp.shape[2] - kf) // stride[0] + 1
    to = (xp.shape[3] - kt) // stride[1] + 1
    out = np.zeros((x.shape[0], o, fo, to))
    for b in range(x.shape[0]):
        for oc in range(o):
            for u, v, fs, ts in _windows(fo, to, stride, (kf, kt)):
                out[b, oc, u, v] = np.sum(w[oc] * xp[b, :, fs, ts])
    return out


def _ref_input_adjoint(g, w, stride, pad_f, pad_t, in_ft):
    b_n, o, fo, to = g.shape
    kf, kt = w.shape[2:]
    xp = np.zeros((b_n, w.shape[1], in_ft[0] + sum(pad_f), in_ft[1] + sum(pad_t)))
    for b in range(b_n):
        for oc in range(o):
            for u, v, fs, ts in _windows(fo, to, stride, (kf, kt)):
                xp[b, :, fs, ts] += w[oc] * g[b, oc, u, v]
    return xp[:, :, pad_f[0] : pad_f[0] + in_ft[0], pad_t[0] : pad_t[0] + in_ft[1]]


def _ref_kernel_adjoint(x, g, stride, pad_f, pad_t, kshape):
    xp = np.pad(x, ((0, 0), (0, 0), pad_f, pad_t))
    b_n, o, fo, to = g.shape
    gw = np.zeros(kshape)
    for b in range(b_n):
        for oc in range(o):
            for u, v, fs, ts in _windows(fo, to, stride, kshape[2:]):
                gw[oc] += g[b, oc, u, v] * xp[b, :, fs, ts]
    return gw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 2)])
@pytest.mark.parametrize("stride", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("batch", [1, 2])
def test_conv_kernels_match_nested_loop_reference(batch, stride, kernel, causal, dtype):
    from neurobeam.layers import conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw

    rng = _rng(100 + 7 * batch + 3 * stride[0] + 5 * stride[1] + kernel[0] + 11 * kernel[1])
    kf, kt = kernel
    c, o = rng.integers(1, 4, size=2)
    f_in, t_in = rng.integers(max(kf, 2), 10), rng.integers(max(kt, 2), 8)
    pad_f = ((kf - 1) // 2, kf // 2)
    pad_t = (kt - 1, 0) if causal else (0, kt - 1)
    x = rng.standard_normal((batch, c, f_in, t_in))
    w = rng.standard_normal((o, c, kf, kt))
    ref = _ref_conv(x, w, stride, pad_f, pad_t)
    g = rng.standard_normal(ref.shape)
    ref_x = _ref_input_adjoint(g, w, stride, pad_f, pad_t, (f_in, t_in))
    ref_w = _ref_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape)

    xd, wd, gd = x.astype(dtype), w.astype(dtype), g.astype(dtype)
    got = conv2d_raw(xd, wd, stride, pad_f, pad_t)
    got_x = conv2d_input_adjoint(gd, wd, stride, pad_f, pad_t, (f_in, t_in))
    got_w = conv2d_kernel_adjoint(xd, gd, stride, pad_f, pad_t, w.shape)
    tol = 100 * np.finfo(dtype).eps
    for have, want in ((got, ref), (got_x, ref_x), (got_w, ref_w)):
        assert have.dtype == dtype
        assert have.shape == want.shape
        assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_kernels_match_nested_loop_reference_across_bands(dtype):
    from neurobeam.layers import (
        _BAND_BYTES, _row_bands, conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw,
    )

    rng = _rng(50)
    batch, c, o, (kf, kt), stride = 2, 16, 2, (5, 2), (2, 1)
    pad_f, pad_t = (2, 2), (1, 0)
    # One output row's patches take between a quarter and a third of the
    # band budget, so the 8 output rows of a 16-bin input at stride 2 form
    # bands of 3, 3 and 2 rows.
    row_unit = c * kf * kt * np.dtype(dtype).itemsize
    f_in, t_in = 16, _BAND_BYTES // (3 * row_unit)
    assert [u1 - u0 for u0, u1 in _row_bands(8, row_unit * t_in)] == [3, 3, 2]
    x = rng.standard_normal((batch, c, f_in, t_in))
    w = rng.standard_normal((o, c, kf, kt))
    ref = _ref_conv(x, w, stride, pad_f, pad_t)
    assert ref.shape[2:] == (8, t_in)
    g = rng.standard_normal(ref.shape)
    ref_x = _ref_input_adjoint(g, w, stride, pad_f, pad_t, (f_in, t_in))
    ref_w = _ref_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape)

    xd, wd, gd = x.astype(dtype), w.astype(dtype), g.astype(dtype)
    got = conv2d_raw(xd, wd, stride, pad_f, pad_t)
    got_x = conv2d_input_adjoint(gd, wd, stride, pad_f, pad_t, (f_in, t_in))
    got_w = conv2d_kernel_adjoint(xd, gd, stride, pad_f, pad_t, w.shape)
    tol = 100 * np.finfo(dtype).eps
    for have, want in ((got, ref), (got_x, ref_x), (got_w, ref_w)):
        assert have.dtype == dtype
        assert have.shape == want.shape
        assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)


def test_conv_kernels_never_allocate_the_full_patch_matrix():
    # The NLM head's second conv on 6 s of input: its whole im2col matrix
    # [480 x 65*957] would take 119 MB in float32.
    import tracemalloc

    from neurobeam import layers
    from neurobeam.layers import (
        _BAND_BYTES, conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw,
    )

    rng = _rng(60)
    stride, pad_f, pad_t = (2, 1), (2, 2), (1, 0)
    x = rng.standard_normal((1, 48, 129, 957), dtype=np.float32)
    w = (0.1 * rng.standard_normal((48, 48, 5, 2))).astype(np.float32)
    g = rng.standard_normal((1, 48, 65, 957), dtype=np.float32)
    padded_bytes = x.nbytes // (129 * 957) * (129 + 4) * (957 + 1)
    calls = {
        "conv2d_raw": (lambda: conv2d_raw(x, w, stride, pad_f, pad_t), g.nbytes),
        "conv2d_input_adjoint": (
            lambda: conv2d_input_adjoint(g, w, stride, pad_f, pad_t, (129, 957)), x.nbytes,
        ),
        "conv2d_kernel_adjoint": (
            lambda: conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape), w.nbytes,
        ),
    }
    for name, (call, out_bytes) in calls.items():
        layers._band_store.__dict__.clear()  # count the band buffer in the peak
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out_bytes + padded_bytes + _BAND_BYTES, (name, peak)


# ---------------------------------------------------------------------------
# batch norm / prelu / magnitude
# ---------------------------------------------------------------------------

def test_batchnorm_output_is_standardized(rng):
    bn = ComplexBatchNorm(3, np.float64)
    x = _complex_from(_rng(10), (2, 3, 6, 5))
    out = bn(x, training=True)
    for part in (out.re.data, out.im.data):
        assert np.abs(part.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(part.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3


def test_batchnorm_standardized_input_unchanged():
    bn = ComplexBatchNorm(2, np.float64)
    g = _rng(11)
    raw = g.standard_normal((1, 2, 8, 7))
    raw -= raw.mean(axis=(0, 2, 3), keepdims=True)
    raw /= raw.std(axis=(0, 2, 3), keepdims=True)
    x = ComplexTensor(Tensor(raw.copy()), Tensor(raw.copy()))
    out = bn(x, training=True)
    assert np.allclose(out.re.data, raw, atol=1e-4)


def test_batchnorm_constant_input_zero_before_affine():
    bn = ComplexBatchNorm(2, np.float64)
    x = ComplexTensor(Tensor(np.full((1, 2, 4, 4), 3.0)), Tensor(np.full((1, 2, 4, 4), -1.0)))
    out = bn(x, training=True)
    assert np.abs(out.re.data).max() < 1e-10
    assert np.abs(out.im.data).max() < 1e-10


def test_batchnorm_eval_uses_running_stats():
    bn = ComplexBatchNorm(2, np.float64)
    g = _rng(12)
    x = _complex_from(g, (1, 2, 6, 5))
    for _ in range(200):  # converge the running averages
        bn(x, training=True)
    train_out = bn(x, training=True)
    eval_out = bn(x, training=False)
    assert np.allclose(eval_out.re.data, train_out.re.data, atol=1e-3)
    # Eval mode must not depend on the batch itself.
    y = _complex_from(g, (1, 2, 6, 5))
    before = bn.running_mean_r.copy()
    bn(y, training=False)
    assert np.array_equal(bn.running_mean_r, before)


def _composite_batchnorm(t, gamma, beta, rmean, rvar, training, eps=1e-5, momentum=0.1):
    """Reference: batch norm of one part composed from autodiff primitives."""
    channels = gamma.shape[0]
    cshape = (1, channels, 1, 1)
    if training:
        mu = ad.reduce_mean(t, axis=(0, 2, 3), keepdims=True)
        centered = t - mu
        var = ad.reduce_mean(centered * centered, axis=(0, 2, 3), keepdims=True)
        rmean *= 1.0 - momentum
        rmean += momentum * mu.data.reshape(channels)
        rvar *= 1.0 - momentum
        rvar += momentum * var.data.reshape(channels)
    else:
        mu = ad.constant(rmean.reshape(cshape))
        centered = t - mu
        var = ad.constant(rvar.reshape(cshape))
    xh = centered / ad.sqrt(var + eps)
    return xh * ad.reshape(gamma, cshape) + ad.reshape(beta, cshape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2])
def test_fused_batchnorm_matches_composite_formula(batch, dtype):
    g = _rng(30 + batch)
    c, shape = 3, (batch, 3, 6, 5)
    bn = ComplexBatchNorm(c, dtype)
    for p in bn.params().values():
        p.data = (p.data + 0.2 * g.standard_normal(c)).astype(dtype)
    ref_params = {k: Tensor(p.data.copy()) for k, p in bn.params().items()}
    ref_buffers = {k: b.copy() for k, b in bn.buffers().items()}

    def close(have, want):
        assert have.dtype == dtype
        tol = 200 * np.finfo(dtype).eps
        assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)

    for training in (True, True, False):
        arrays = [(2.0 + 3.0 * g.standard_normal(shape)).astype(dtype) for _ in range(2)]
        weight = g.standard_normal((2,) + shape).astype(dtype)
        x = ComplexTensor(Tensor(arrays[0].copy()), Tensor(arrays[1].copy()))
        out = bn(x, training)
        backward(ad.reduce_sum(out.re * ad.constant(weight[0]))
                 + ad.reduce_sum(out.im * ad.constant(weight[1])))
        parts = []
        for part, arr, w in (("r", arrays[0], weight[0]), ("i", arrays[1], weight[1])):
            t = Tensor(arr.copy())
            y = _composite_batchnorm(
                t, ref_params[f"gamma_{part}"], ref_params[f"beta_{part}"],
                ref_buffers[f"running_mean_{part}"], ref_buffers[f"running_var_{part}"],
                training,
            )
            backward(ad.reduce_sum(y * ad.constant(w)))
            parts.append((y, t))
        close(out.re.data, parts[0][0].data)
        close(out.im.data, parts[1][0].data)
        close(x.re.grad, parts[0][1].grad)
        close(x.im.grad, parts[1][1].grad)
        for name, b in bn.buffers().items():
            close(b, ref_buffers[name])
    for name, p in bn.params().items():  # summed over the three calls
        close(p.grad, ref_params[name].grad)


def test_complex_stack_of_split_is_the_same_tensor():
    t = Tensor(_rng(33).standard_normal((1, 4, 3, 2)))
    halves = complex_split(t)
    assert complex_stack(halves) is t
    assert np.array_equal(halves.re.data, t.data[:, :2]) and np.array_equal(halves.im.data, t.data[:, 2:])


def test_complex_magnitude(rng):
    x = ComplexTensor(Tensor(np.array([3.0])), Tensor(np.array([4.0])))
    assert complex_magnitude(x).data[0] == pytest.approx(5.0, rel=1e-9)


def test_prelu_closed_forms():
    x = Tensor(np.array([[-2.0, 2.0]]))
    one = Tensor(np.array([1.0]))
    zero = Tensor(np.array([0.0]))
    quarter = Tensor(np.array([0.25]))
    assert np.array_equal(ad.prelu(x, one, 1).data, [[-2.0, 2.0]])
    assert np.array_equal(ad.prelu(x, zero, 1).data, [[0.0, 2.0]])
    assert ad.prelu(x, quarter, 1).data[0, 0] == pytest.approx(-0.5)


def test_sigmoid_closed_forms(rng):
    assert ad.sigmoid(Tensor(np.zeros(1))).data[0] == pytest.approx(0.5)
    # Strictly inside (0, 1) across the float64-representable range
    # (beyond |x| ~ 37 the result rounds to exactly 0 or 1).
    x = ad.sigmoid(Tensor(rng.uniform(-30, 30, size=200)))
    assert np.all(x.data > 0) and np.all(x.data < 1)


def test_linear_identity_weights():
    from neurobeam.layers import Linear

    lin = Linear(3, 3, _rng(20), np.float64)
    lin.w.data = np.eye(3)
    lin.b.data[...] = 0.0
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(lin(x).data, x.data)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def _lstm_params(rng, d, h):
    return (
        Tensor(0.4 * rng.standard_normal((4 * h, d))),
        Tensor(0.4 * rng.standard_normal((4 * h, h))),
        Tensor(0.1 * rng.standard_normal(4 * h)),
    )


def test_lstm_causality_bit_exact():
    rng = _rng(13)
    wx, wh, b = _lstm_params(rng, 3, 4)
    x = rng.standard_normal((6, 3))
    base = lstm(Tensor(x.copy()), wx, wh, b).data
    x2 = x.copy()
    x2[4] += 5.0
    pert = lstm(Tensor(x2), wx, wh, b).data
    assert np.array_equal(base[:4], pert[:4])
    assert not np.array_equal(base[4:], pert[4:])


def test_lstm_zero_parameters_zero_output():
    h = 4
    wx = Tensor(np.zeros((4 * h, 3)))
    wh = Tensor(np.zeros((4 * h, h)))
    b = Tensor(np.zeros(4 * h))
    out = lstm(Tensor(np.random.default_rng(0).standard_normal((5, 3))), wx, wh, b)
    assert np.all(out.data == 0)


def test_lstm_gradient_matches_finite_differences(rng):
    def build(x, wx, wh, b):
        out = lstm(x, wx, wh, b)
        return ad.reduce_sum(out * out)

    arrays = [
        rng.standard_normal((3, 2)),
        0.4 * rng.standard_normal((12, 2)),
        0.4 * rng.standard_normal((12, 3)),
        0.1 * rng.standard_normal(12),
    ]
    assert check_gradients(build, arrays) < 1e-4


def _ref_lstm(x, wx, wh, b):
    """Float64 per-frame LSTM over a [T x D] sequence, textbook sigmoid."""
    x, wx, wh, b = (np.asarray(a, dtype=np.float64) for a in (x, wx, wh, b))
    hidden = wh.shape[1]
    h, c, out = np.zeros(hidden), np.zeros(hidden), []
    for xt in x:
        a = wx @ xt + wh @ h + b
        gi, gf, gg, go = (a[n * hidden : (n + 1) * hidden] for n in range(4))
        gi, gf, go = (1.0 / (1.0 + np.exp(-v)) for v in (gi, gf, go))
        c = gf * c + gi * np.tanh(gg)
        h = go * np.tanh(c)
        out.append(h)
    return np.array(out)


def _close(have, want, dtype):
    tol = 100 * np.finfo(dtype).eps
    assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_lstm_matches_per_frame_reference(dtype):
    rng = _rng(40)
    k_n, s_n, t_len, d, h = 2, 2, 7, 3, 4
    x = rng.standard_normal((s_n, t_len, d)).astype(dtype)
    wx = (0.4 * rng.standard_normal((k_n, 4 * h, d))).astype(dtype)
    wh = (0.4 * rng.standard_normal((k_n, 4 * h, h))).astype(dtype)
    b = (0.1 * rng.standard_normal((k_n, 4 * h))).astype(dtype)
    out = lstm(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b)).data
    assert out.shape == (k_n, s_n, t_len, h) and out.dtype == dtype
    for k in range(k_n):
        for s in range(s_n):
            _close(out[k, s], _ref_lstm(x[s], wx[k], wh[k], b[k]), dtype)
    # The 2-D call is one weight set over one sequence.
    single = lstm(Tensor(x[1]), Tensor(wx[0]), Tensor(wh[0]), Tensor(b[0])).data
    assert single.shape == (t_len, h)
    _close(single, out[0, 1], dtype)


def test_fused_lstm_gradient_matches_finite_differences(rng):
    weight = ad.constant(rng.standard_normal((2, 2, 3, 3)))

    def build(x, wx, wh, b):
        return ad.reduce_sum(lstm(x, wx, wh, b) * weight)

    arrays = [
        rng.standard_normal((2, 3, 2)),
        0.4 * rng.standard_normal((2, 12, 2)),
        0.4 * rng.standard_normal((2, 12, 3)),
        0.1 * rng.standard_normal((2, 12)),
    ]
    assert check_gradients(build, arrays) < 1e-4


def test_complex_lstm_causality_bit_exact():
    cl = ComplexLSTM(3, 4, _rng(41), np.float64)
    x = _rng(42).standard_normal((2, 6, 3))
    base = cl(ComplexTensor(Tensor(x[0]), Tensor(x[1])))
    x[1, 4] += 5.0  # the imaginary part at frame 4
    pert = cl(ComplexTensor(Tensor(x[0]), Tensor(x[1])))
    for have, want in ((pert.re, base.re), (pert.im, base.im)):
        assert np.array_equal(have.data[:4], want.data[:4])
        assert not np.array_equal(have.data[4:], want.data[4:])


def test_complex_lstm_wiring_matches_manual_combination():
    rng = _rng(14)
    cl = ComplexLSTM(3, 4, rng, np.float64)
    x = _complex_from(_rng(15), (5, 3))
    out = cl(x)
    lr, li = cl.lstm_r, cl.lstm_i
    a = _ref_lstm(x.re.data, lr.wx.data, lr.wh.data, lr.b.data)
    b = _ref_lstm(x.im.data, li.wx.data, li.wh.data, li.b.data)
    c = _ref_lstm(x.im.data, lr.wx.data, lr.wh.data, lr.b.data)
    d = _ref_lstm(x.re.data, li.wx.data, li.wh.data, li.b.data)
    _close(out.re.data, a - b, np.float64)
    _close(out.im.data, c + d, np.float64)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=1e-3)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 0.5]))
    opt = Adam({"p": p}, lr=1e-3)
    p.grad = np.array([0.3, -4.0, 1e-3])
    opt.step()
    delta = p.data - np.array([1.0, -2.0, 0.5])
    assert np.allclose(delta, -1e-3 * np.sign(p.grad), rtol=1e-4)


def test_adam_quadratic_bowl_decreases():
    p = Tensor(np.array([3.0, -2.0]))
    opt = Adam({"p": p}, lr=0.05)
    losses = []
    for _ in range(100):
        opt.zero_grad()
        loss = ad.reduce_sum(p * p)
        backward(loss)
        losses.append(loss.item())
        opt.step()
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_state_roundtrip():
    p = Tensor(np.array([1.0]))
    opt = Adam({"p": p})
    p.grad = np.array([0.5])
    opt.step()
    state = opt.state_arrays()
    opt2 = Adam({"p": p})
    opt2.load_state_arrays(state)
    assert opt2.step_count == 1
    assert np.array_equal(opt2.m["p"], opt.m["p"])


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": np.arange(5, dtype=np.int64),
    }
    path = tmp_path / "x.nbcp"
    save_checkpoint(path, arrays, meta={"hello": 1})
    loaded, meta = load_checkpoint(path)
    assert meta == {"hello": 1}
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == arrays[k].dtype


def test_checkpoint_shape_mismatch_rejected(tmp_path, rng):
    path = tmp_path / "x.nbcp"
    save_checkpoint(path, {"a": np.zeros((2, 2))})
    loaded, _ = load_checkpoint(path)
    with pytest.raises(ValueError, match="shape"):
        require_shapes(loaded, {"a": (3, 3)})
    with pytest.raises(ValueError, match="missing"):
        require_shapes(loaded, {"zz": (2, 2)})


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nbcp"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
