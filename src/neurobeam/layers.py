"""Complex-valued network layers on top of the autodiff engine.

A complex feature map is carried in stacked real-block form: one real
tensor [batch x 2C x freq x time] holding the C real channels, then the
C imaginary ones. Each layer is one op on that tensor: a complex conv or
deconv is one real conv (an im2col GEMM) with the block kernel
[[Wr, -Wi], [Wi, Wr]], complex batch norm is one batch norm with the
gammas [gamma_r; gamma_i] and betas [beta_r; beta_i], and PReLU is one
PReLU with the slopes [slope_r; slope_i]. ``ComplexTensor`` is the
(real, imag) view of a stacked tensor: ``complex_split`` takes views of
the halves and ``complex_stack`` hands the same tensor back, so maps pass
from layer to layer without copies; the halves are read only where a
consumer needs them (the complex LSTM, the model output).
Convolutions stride the frequency axis and are causal along time
(past-only padding).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Tensor


class ComplexTensor:
    """A complex array carried as (real, imag) autodiff tensors.

    ``stacked`` is the real-block tensor [re; im] that ``complex_split``
    took the halves from, or None when the halves were built apart.
    """

    __slots__ = ("re", "im", "stacked")

    def __init__(self, re, im, stacked=None):
        if re.shape != im.shape:
            raise ValueError(f"real/imag shapes differ: {re.shape} vs {im.shape}")
        self.re = re
        self.im = im
        self.stacked = stacked

    @property
    def shape(self):
        return self.re.shape

    @classmethod
    def from_numpy(cls, arr, dtype=np.float64, needs_grad=False):
        arr = np.asarray(arr)
        re = Tensor(np.ascontiguousarray(arr.real, dtype=dtype), needs_grad=needs_grad)
        im = Tensor(np.ascontiguousarray(arr.imag, dtype=dtype), needs_grad=needs_grad)
        return cls(re, im)

    def to_numpy(self):
        return self.re.data.astype(np.float64) + 1j * self.im.data.astype(np.float64)


def complex_magnitude(x, eps=1e-12):
    """|x| as a real tensor; eps keeps the gradient finite at zero."""
    return ad.sqrt(x.re * x.re + x.im * x.im + eps)


# ---------------------------------------------------------------------------
# Real strided 2-d convolution: numpy kernels shared by forward and adjoint
# ---------------------------------------------------------------------------

def _conv_out_size(n, k, stride, pad):
    return (n + pad[0] + pad[1] - k) // stride + 1


def _patches(x, kernel, stride, pad_f, pad_t, out_ft):
    """im2col: [B x C x F x T] -> [B x C*kf*kt x fo*to] patch matrix.

    Column (u, v) holds the receptive field xpad[b, :, u*sf:u*sf+kf,
    v*st:v*st+kt], flattened in (c, i, j) order to match a [O x C x kf x kt]
    kernel reshaped to [O x C*kf*kt].
    """
    kf, kt = kernel
    sf, st = stride
    fo, to = out_ft
    xp = np.pad(x, ((0, 0), (0, 0), pad_f, pad_t))
    win = sliding_window_view(xp, (kf, kt), axis=(2, 3))[:, :, : sf * fo : sf, : st * to : st]
    b, c = x.shape[:2]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kf * kt, fo * to)


def conv2d_raw(x, w, stride, pad_f, pad_t):
    """out[b,o,u,v] = sum_{c,i,j} w[o,c,i,j] * xpad[b,c, u*sf+i, v*st+j]."""
    o, _, kf, kt = w.shape
    fo = _conv_out_size(x.shape[2], kf, stride[0], pad_f)
    to = _conv_out_size(x.shape[3], kt, stride[1], pad_t)
    cols = _patches(x, (kf, kt), stride, pad_f, pad_t, (fo, to))
    return np.matmul(w.reshape(o, -1), cols).reshape(x.shape[0], o, fo, to)


def conv2d_input_adjoint(g, w, stride, pad_f, pad_t, in_ft):
    """Adjoint of conv2d_raw with respect to its input (scatter-add)."""
    sf, st = stride
    b, o, fo, to = g.shape
    _, c, kf, kt = w.shape
    fi, ti = in_ft
    cols = np.matmul(w.reshape(o, -1).T, g.reshape(b, o, fo * to)).reshape(b, c, kf, kt, fo, to)
    xp_grad = np.zeros(
        (b, c, fi + pad_f[0] + pad_f[1], ti + pad_t[0] + pad_t[1]), dtype=cols.dtype
    )
    for i in range(kf):
        for j in range(kt):
            xp_grad[:, :, i : i + sf * fo : sf, j : j + st * to : st] += cols[:, :, i, j]
    return xp_grad[:, :, pad_f[0] : pad_f[0] + fi, pad_t[0] : pad_t[0] + ti]


def conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, kshape):
    """Adjoint of conv2d_raw with respect to its kernel (correlation)."""
    b, o, fo, to = g.shape
    cols = _patches(x, kshape[2:], stride, pad_f, pad_t, (fo, to))
    gw = np.tensordot(g.reshape(b, o, fo * to), cols, axes=([0, 2], [0, 2]))
    return gw.reshape(kshape)


def _conv_op(out_data, x, w, bias, input_grad, kernel_grad):
    """Wrap a conv kernel's output as an op; ``bias`` (or None) is added
    per output channel in place."""
    parents = (x, w)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)
        parents += (bias,)

    def backward_fn(g):
        if x.needs_grad:
            x.accumulate(input_grad(g))
        if w.needs_grad:
            w.accumulate(kernel_grad(g))
        if bias is not None and bias.needs_grad:
            bias.accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor(out_data, parents, backward_fn)


def conv2d(x, w, stride, pad_f, pad_t, bias=None):
    """Strided 2-d convolution as an autodiff op, with an optional
    per-output-channel bias."""
    in_ft = (x.shape[2], x.shape[3])
    return _conv_op(
        conv2d_raw(x.data, w.data, stride, pad_f, pad_t), x, w, bias,
        lambda g: conv2d_input_adjoint(g, w.data, stride, pad_f, pad_t, in_ft),
        lambda g: conv2d_kernel_adjoint(x.data, g, stride, pad_f, pad_t, w.shape),
    )


def conv2d_transpose(x, w, stride, pad_f, pad_t, out_ft, bias=None):
    """Transposed convolution: the exact adjoint of ``conv2d``.

    ``out_ft`` declares the output spatial size, which must map back to
    the input size under the forward-conv arithmetic.
    """
    sf, st = stride
    _, _, kf, kt = w.shape
    expect_f = _conv_out_size(out_ft[0], kf, sf, pad_f)
    expect_t = _conv_out_size(out_ft[1], kt, st, pad_t)
    if (expect_f, expect_t) != (x.shape[2], x.shape[3]):
        raise ValueError(
            f"declared output {out_ft} maps to {(expect_f, expect_t)}, "
            f"but input is {(x.shape[2], x.shape[3])}"
        )
    return _conv_op(
        conv2d_input_adjoint(x.data, w.data, stride, pad_f, pad_t, out_ft), x, w, bias,
        lambda g: conv2d_raw(g, w.data, stride, pad_f, pad_t),
        lambda g: conv2d_kernel_adjoint(g, x.data, stride, pad_f, pad_t, w.shape),
    )


def _channel_sum(a):
    """Sum of a [B x C x ...] array over every axis but the channels."""
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=2).sum(axis=0)


def batch_norm(x, gamma, beta, eps, stats=None):
    """Per-channel batch norm of a [B x C x F x T] map as one op.

    With ``stats=None`` each channel is standardized by its own mean and
    biased variance over (batch, freq, time); with ``stats=(mean, var)``
    those frozen statistics are used. Either way the forward pass is one
    per-channel scale-and-shift, (x - mean) * gamma * inv_std + beta.
    Returns the output tensor and the (mean, var) it used. The input
    gradient is the closed form (Ioffe & Szegedy, 2015)
    gamma * inv_std * (g - mean(g) - xh * mean(g * xh)), or
    gamma * inv_std * g under frozen statistics.
    """
    cshape = (1, -1, 1, 1)
    n = x.data.size // x.shape[1]
    if stats is None:
        mean = _channel_sum(x.data) / n
        out_data = x.data - mean.reshape(cshape)
        var = _channel_sum(out_data * out_data) / n
    else:
        mean, var = stats
        out_data = x.data - mean.reshape(cshape)
    inv_std = 1.0 / np.sqrt(var + eps)
    k = gamma.data * inv_std
    out_data *= k.reshape(cshape)
    out_data += beta.data.reshape(cshape)

    def backward_fn(g):
        xh = (x.data - mean.reshape(cshape)) * inv_std.reshape(cshape)
        g_sum = _channel_sum(g)
        gx_sum = _channel_sum(g * xh)
        if x.needs_grad:
            dx = g * k.reshape(cshape)
            if stats is None:
                xh *= (k * gx_sum / n).reshape(cshape)
                xh += (k * g_sum / n).reshape(cshape)
                dx -= xh
            x.accumulate(dx)
        if gamma.needs_grad:
            gamma.accumulate(gx_sum)
        if beta.needs_grad:
            beta.accumulate(g_sum)

    return Tensor(out_data, (x, gamma, beta), backward_fn), mean, var


# ---------------------------------------------------------------------------
# Complex maps in real block form
# ---------------------------------------------------------------------------

def complex_stack(x):
    """[re; im] on axis 1 (channels of a map, features of a sequence): the
    real form of a complex tensor. A split tensor hands back the tensor
    it was split from, with no copy."""
    if x.stacked is not None:
        return x.stacked
    return ad.concat([x.re, x.im], axis=1)


def complex_split(t):
    """Inverse of ``complex_stack``; both halves are views of ``t``."""
    half = t.shape[1] // 2
    return ComplexTensor(ad.narrow(t, 1, 0, half), ad.narrow(t, 1, half, half), stacked=t)


def block_kernel(w_r, w_i):
    """Real block form [[Wr, -Wi], [Wi, Wr]] of the complex kernel Wr + jWi.

    Applied to a stacked map it gives the stacked complex product
    (Wr xr - Wi xi; Wi xr + Wr xi); its adjoint is the conjugate
    transpose, so ``conv2d_transpose`` with the same block is the
    complex deconvolution.
    """
    top = ad.concat([w_r, ad.neg(w_i)], axis=1)
    bottom = ad.concat([w_i, w_r], axis=1)
    return ad.concat([top, bottom], axis=0)


# ---------------------------------------------------------------------------
# Fused LSTM (single op with hand-written backprop-through-time)
# ---------------------------------------------------------------------------

def lstm(x, wx, wh, b):
    """Unidirectional LSTM over a [T x D] sequence, zero initial state.

    Gate packing along the 4H axis is (input, forget, cell, output).
    Returns the hidden-state sequence [T x H].
    """
    t_len = x.shape[0]
    hidden = wh.shape[1]
    pre = x.data @ wx.data.T + b.data
    gi = np.zeros((t_len, hidden), dtype=x.dtype)
    gf = np.zeros_like(gi)
    gg = np.zeros_like(gi)
    go = np.zeros_like(gi)
    cs = np.zeros_like(gi)
    tcs = np.zeros_like(gi)
    hs = np.zeros_like(gi)
    h_prev = np.zeros(hidden, dtype=x.dtype)
    c_prev = np.zeros(hidden, dtype=x.dtype)
    for t in range(t_len):
        a = pre[t] + wh.data @ h_prev
        gi[t] = ad.sigmoid_array(a[:hidden])
        gf[t] = ad.sigmoid_array(a[hidden : 2 * hidden])
        gg[t] = np.tanh(a[2 * hidden : 3 * hidden])
        go[t] = ad.sigmoid_array(a[3 * hidden :])
        cs[t] = gf[t] * c_prev + gi[t] * gg[t]
        tcs[t] = np.tanh(cs[t])
        hs[t] = go[t] * tcs[t]
        h_prev = hs[t]
        c_prev = cs[t]

    def backward_fn(gh):
        da_all = np.zeros((t_len, 4 * hidden), dtype=x.dtype)
        dh_next = np.zeros(hidden, dtype=x.dtype)
        dc_next = np.zeros(hidden, dtype=x.dtype)
        for t in range(t_len - 1, -1, -1):
            dh = gh[t] + dh_next
            do = dh * tcs[t]
            dc = dh * go[t] * (1.0 - tcs[t] ** 2) + dc_next
            di = dc * gg[t]
            dg = dc * gi[t]
            cp = cs[t - 1] if t > 0 else np.zeros(hidden, dtype=x.dtype)
            df = dc * cp
            dc_next = dc * gf[t]
            da = da_all[t]
            da[:hidden] = di * gi[t] * (1.0 - gi[t])
            da[hidden : 2 * hidden] = df * gf[t] * (1.0 - gf[t])
            da[2 * hidden : 3 * hidden] = dg * (1.0 - gg[t] ** 2)
            da[3 * hidden :] = do * go[t] * (1.0 - go[t])
            dh_next = wh.data.T @ da
        if x.needs_grad:
            x.accumulate(da_all @ wx.data)
        if wx.needs_grad:
            wx.accumulate(da_all.T @ x.data)
        if wh.needs_grad:
            h_prev_seq = np.vstack([np.zeros((1, hidden), dtype=x.dtype), hs[:-1]])
            wh.accumulate(da_all.T @ h_prev_seq)
        if b.needs_grad:
            b.accumulate(da_all.sum(axis=0))

    return Tensor(hs, (x, wx, wh, b), backward_fn)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def uniform_init(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype))


def zeros_param(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class ComplexConv2d:
    """Complex convolution (Wr + jWi) * (xr + jxi) + (br + jbi), computed as
    one real conv of the stacked map [xr; xi] with the block kernel
    [[Wr, -Wi], [Wi, Wr]] and the stacked bias [br; bi]."""

    def __init__(self, in_ch, out_ch, kernel, stride, rng, dtype, causal=True):
        kf, kt = kernel
        self.stride = stride
        self.pad_f = ((kf - 1) // 2, kf // 2)
        self.pad_t = (kt - 1, 0) if causal else (0, kt - 1)
        fan_in = in_ch * kf * kt
        self.w_r = uniform_init(rng, (out_ch, in_ch, kf, kt), fan_in, dtype)
        self.w_i = uniform_init(rng, (out_ch, in_ch, kf, kt), fan_in, dtype)
        self.b_r = zeros_param(out_ch, dtype)
        self.b_i = zeros_param(out_ch, dtype)

    def params(self):
        return {"w_r": self.w_r, "w_i": self.w_i, "b_r": self.b_r, "b_i": self.b_i}

    def __call__(self, x):
        out = conv2d(
            complex_stack(x), block_kernel(self.w_r, self.w_i), self.stride,
            self.pad_f, self.pad_t, bias=ad.concat([self.b_r, self.b_i], axis=0),
        )
        return complex_split(out)


class ComplexConvTranspose2d:
    """Adjoint of ``ComplexConv2d``: transposed spatially, kernel conjugated.

    With matching geometry, <conv(x), y> == <x, deconv(y)> under the real
    inner product on (re, im) pairs. The frequency axis upsamples by the
    stride; time is causal (the adjoint of an anti-causal pad). It is one
    real transposed conv of the stacked map [xr; xi] with the same block
    kernel as ``ComplexConv2d``, whose adjoint is the conjugate transpose.
    """

    def __init__(self, in_ch, out_ch, kernel, stride, rng, dtype):
        kf, kt = kernel
        self.stride = stride
        self.pad_f = ((kf - 1) // 2, kf // 2)
        self.pad_t = (0, kt - 1)
        fan_in = in_ch * kf * kt
        self.w_r = uniform_init(rng, (in_ch, out_ch, kf, kt), fan_in, dtype)
        self.w_i = uniform_init(rng, (in_ch, out_ch, kf, kt), fan_in, dtype)
        self.b_r = zeros_param(out_ch, dtype)
        self.b_i = zeros_param(out_ch, dtype)

    def params(self):
        return {"w_r": self.w_r, "w_i": self.w_i, "b_r": self.b_r, "b_i": self.b_i}

    def __call__(self, x):
        out_ft = (x.shape[2] * self.stride[0], x.shape[3])
        out = conv2d_transpose(
            complex_stack(x), block_kernel(self.w_r, self.w_i), self.stride,
            self.pad_f, self.pad_t, out_ft, bias=ad.concat([self.b_r, self.b_i], axis=0),
        )
        return complex_split(out)


class ComplexBatchNorm:
    """Per-channel standardization of re and im, as one batch norm of the
    stacked map [re; im] with gammas [gamma_r; gamma_i] and betas
    [beta_r; beta_i].

    Training mode normalizes with current-batch statistics over
    (batch, freq, time) and tracks running averages; eval mode applies the
    frozen running statistics, which keeps inference causal. The re and
    im running buffers are the two halves of one stacked buffer.
    """

    def __init__(self, channels, dtype, eps=1e-5, momentum=0.1):
        self.eps = eps
        self.momentum = momentum
        self.gamma_r = Tensor(np.ones(channels, dtype=dtype))
        self.beta_r = zeros_param(channels, dtype)
        self.gamma_i = Tensor(np.ones(channels, dtype=dtype))
        self.beta_i = zeros_param(channels, dtype)
        self.running_mean = np.zeros(2 * channels, dtype=dtype)
        self.running_var = np.ones(2 * channels, dtype=dtype)
        self.running_mean_r = self.running_mean[:channels]
        self.running_mean_i = self.running_mean[channels:]
        self.running_var_r = self.running_var[:channels]
        self.running_var_i = self.running_var[channels:]

    def params(self):
        return {
            "gamma_r": self.gamma_r, "beta_r": self.beta_r,
            "gamma_i": self.gamma_i, "beta_i": self.beta_i,
        }

    def buffers(self):
        return {
            "running_mean_r": self.running_mean_r, "running_var_r": self.running_var_r,
            "running_mean_i": self.running_mean_i, "running_var_i": self.running_var_i,
        }

    def set_buffers(self, values):
        for name, arr in values.items():
            getattr(self, name)[...] = arr

    def __call__(self, x, training):
        gamma = ad.concat([self.gamma_r, self.gamma_i], axis=0)
        beta = ad.concat([self.beta_r, self.beta_i], axis=0)
        stats = None if training else (self.running_mean, self.running_var)
        out, mean, var = batch_norm(complex_stack(x), gamma, beta, self.eps, stats)
        if training:
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mean
            self.running_var *= 1.0 - m
            self.running_var += m * var
        return complex_split(out)


class ComplexPReLU:
    """PReLU of re and im with their own slopes, as one PReLU of the
    stacked map [re; im] with the slopes [slope_r; slope_i]."""

    def __init__(self, channels, dtype, axis=1, init=0.25):
        self.axis = axis
        self.slope_r = Tensor(np.full(channels, init, dtype=dtype))
        self.slope_i = Tensor(np.full(channels, init, dtype=dtype))

    def params(self):
        return {"slope_r": self.slope_r, "slope_i": self.slope_i}

    def __call__(self, x):
        slope = ad.concat([self.slope_r, self.slope_i], axis=0)
        return complex_split(ad.prelu(complex_stack(x), slope, self.axis))


class Linear:
    def __init__(self, in_features, out_features, rng, dtype):
        self.w = uniform_init(rng, (out_features, in_features), in_features, dtype)
        self.b = zeros_param(out_features, dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def __call__(self, x):
        return ad.matmul(x, ad.transpose(self.w, (1, 0))) + self.b


class ComplexLinear:
    """(Wr + jWi) x + (br + jbi) over the last axis of a [T x D] sequence,
    as one real matmul of [xr, xi] with the block matrix
    [[Wr, -Wi], [Wi, Wr]] and the stacked bias [br; bi]."""

    def __init__(self, in_features, out_features, rng, dtype):
        self.w_r = uniform_init(rng, (out_features, in_features), in_features, dtype)
        self.w_i = uniform_init(rng, (out_features, in_features), in_features, dtype)
        self.b_r = zeros_param(out_features, dtype)
        self.b_i = zeros_param(out_features, dtype)

    def params(self):
        return {"w_r": self.w_r, "w_i": self.w_i, "b_r": self.b_r, "b_i": self.b_i}

    def __call__(self, x):
        w = block_kernel(self.w_r, self.w_i)
        out = ad.matmul(complex_stack(x), ad.transpose(w, (1, 0)))
        return complex_split(out + ad.concat([self.b_r, self.b_i], axis=0))


class RealLSTM:
    def __init__(self, input_size, hidden, rng, dtype):
        self.wx = uniform_init(rng, (4 * hidden, input_size), input_size, dtype)
        self.wh = uniform_init(rng, (4 * hidden, hidden), hidden, dtype)
        self.b = zeros_param(4 * hidden, dtype)

    def params(self):
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def __call__(self, x):
        return lstm(x, self.wx, self.wh, self.b)


class ComplexLSTM:
    """Two real LSTMs combined by the complex product rule:
    out_re = L_r(x_re) - L_i(x_im), out_im = L_r(x_im) + L_i(x_re).
    """

    def __init__(self, input_size, hidden, rng, dtype):
        self.lstm_r = RealLSTM(input_size, hidden, rng, dtype)
        self.lstm_i = RealLSTM(input_size, hidden, rng, dtype)

    def params(self):
        out = {}
        for key, p in self.lstm_r.params().items():
            out[f"r.{key}"] = p
        for key, p in self.lstm_i.params().items():
            out[f"i.{key}"] = p
        return out

    def __call__(self, x):
        return ComplexTensor(
            self.lstm_r(x.re) - self.lstm_i(x.im),
            self.lstm_r(x.im) + self.lstm_i(x.re),
        )
