"""Complex-valued network layers on top of the autodiff engine.

Every complex quantity in the graph is one real tensor; there is no
complex pair type. The layout rule: a complex array leads with a part axis
of 2 (re, im): a feature map [2 x C x F x T] (a real one is [1 x ...]),
the filters [2 x M x F x T], the beamformed spectrum [2 x T x F], the LSTM
input [2 x T x D], a kernel [2 x O x C x kf x kt], a bias or a BN vector
[2 x C]. Only a complex matmul's sequence, [T x 2D], sets its parts side
by side. ``to_complex`` turns a part-axis array into a complex128 array;
filter-and-sum and the zone map read the filters [2 x M x F x T] as they
are, one chunk of frequency bins at a time, and their adjoints add each
chunk's parts into the filters' gradient (``beamloc``).

The conv ops read a map [P x C x F x T] as the kernels' [1 x PC x F x T]
view and return [P x O x F' x T']. A deconv also reads an (h, skip) pair of
maps as their concat on the channel axis, in the kernel-view order [h_re,
skip_re, h_im, skip_im], and the graph holds no merged map: its kernels copy
one band of the four part slabs' rows at a time into a band buffer, and its
input gradient out of one into fresh h and skip gradients (``_Stack``).
A complex conv or deconv is one real conv (an im2col GEMM) of that view
with the block kernel [[Wr, -Wi], [Wi, Wr]], which ``block_kernel`` builds
from the kernel as one op. ``conv2d`` is
the one plain conv op, transposed when given an output size; conv ->
complex batch norm -> PReLU is one op, ``conv_bn_prelu``, which takes the
same conv arguments and reads the [2 x C] gammas, betas and slopes as [2C]
vectors. It writes BN and PReLU over the conv output and keeps only that
one map for backward (InPlace-ABN), which rebuilds the standardized map's
share from it; a block whose slopes are not all > 0, or whose |beta| reach
a bound times |gamma|, cannot rebuild it and keeps the standardized map too.
Under ``no_grad()`` it keeps nothing. ``ComplexConvBlock`` is the network's one
conv layer: either that op or, without norm, a bare conv with a bias.
Convolutions stride the frequency axis and are causal along time.

The real conv kernels (forward, input adjoint, kernel adjoint, and both
adjoints of a deconv from one patch pass) are im2col GEMMs that hold neither
a whole patch matrix nor a padded copy of a map: they build the patches of
the unpadded map one band of output-frequency rows at a time, zeroing the
padding there, and the input adjoint scatters into the unpadded gradient.
A call of four or more bands runs as two halves, on the calling thread and
on one worker thread (with one core, the caller runs both in turn). The
patch GEMMs cut their serial band list in two at a band boundary, each half
in its own band array; the input adjoint splits its input channels, each
half scattering only into its own. The bits do not depend on the worker
count, because the split keeps the serial arithmetic: every half keeps the
serial band partition, since a GEMM's bits depend on its column count, and
the kernel gradient adds the bands' products in serial band order. The
calling thread makes every buffer, and only it calls the public kernels.
The simulator shares the worker through ``_run_halves`` and ``_buffers``:
``roomsim.fftconvolve`` splits its response rows in two, and
``roomsim.speech_surrogate`` the time axis of its harmonic sum.
The complex LSTM is one op, ``lstm``: both real LSTMs over both parts in a
single time loop, combined by the complex product rule inside the op.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def to_complex(parts):
    """[2 x ...] real and imaginary parts -> a complex128 [...] array."""
    out = np.empty(parts.shape[1:], dtype=np.complex128)
    out.real, out.imag = parts
    return out


# ---------------------------------------------------------------------------
# Real strided 2-d convolution: numpy kernels shared by forward and adjoint
# ---------------------------------------------------------------------------

def _conv_out_size(n, k, stride, pad):
    return (n + pad[0] + pad[1] - k) // stride + 1


# One band of an im2col patch (or column) matrix is at most this many
# bytes. Each half of a kernel call has one band array, sized for its
# largest band, and it is the half's only patch storage (no kernel pads a
# copy of its input). Chosen by timing the train-6s benchmark step (forward
# and backward of the default model on 6 s of audio; 2-vCPU x86 machine with
# 2 MiB of L2 per core, one BLAS thread): budgets of 1, 2, 4, 8 and 16 MiB
# gave per-step medians within the run-to-run spread of each other, and
# five alternating 4 vs 8 MiB runs favoured 4 MiB in all five (1.53 vs
# 1.60 s), with 5 MB less peak memory. 4 MiB is about 3% of the largest
# whole patch matrix (119 MB, the NLM head's second conv, 6 s).
_BAND_BYTES = 4 << 20

# A kernel call of at least this many bands runs as two halves, the second
# on one worker thread when the process may use two cores. Timed per call
# shape over training steps of the default model (same machine): at 6 s of
# audio every call has 4-33 bands, and each ran 10-35% faster split; at 1 s
# the calls have 1 or 2 bands, and the four 2-band shapes ran 15-85% slower.
_SPLIT_BANDS = 4


def _worker_count():
    """1 or 2: the cores this process may run on (all of the machine's where
    the OS does not say, as on macOS), at most two."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


_WORKERS = _worker_count()


# The pool starts its thread on first use; a forked child makes a pool of
# its own, since the parent's thread does not exist there (where processes
# fork: Windows has no fork).
def _new_worker():
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="neurobeam-half")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _run_halves(calls):
    """Run ``calls``, the one or two halves of a call: with two
    workers the second runs on the worker thread while the caller runs the
    first, else the caller runs them in order."""
    if len(calls) == 1 or _WORKERS < 2:
        for call in calls:
            call()
        return
    future = _worker.submit(calls[1])
    try:
        calls[0]()
    finally:
        future.result()


def _buffers(sizes, dtype):
    """Uninitialized flat arrays of ``sizes`` entries, one per half, made on
    the caller's thread; with one worker the halves run in turn and share
    one array of the largest size."""
    if _WORKERS > 1:
        return [np.empty(n, dtype) for n in sizes]
    return [np.empty(max(sizes), dtype)] * len(sizes)


def _band_jobs(b_n, rows, row_elems, dtype):
    """The serial band list: (b, u0, u1) per batch item b and range u0..u1-1
    of its output-frequency rows whose patch band of ``row_elems`` entries
    per row fits the budget. The first band of the list is the largest."""
    step = max(1, _BAND_BYTES // (row_elems * np.dtype(dtype).itemsize))
    return [(b, u0, min(u0 + step, rows)) for b in range(b_n) for u0 in range(0, rows, step)]


def _taps(n_in, k, stride, pad, lo, hi):
    """Per tap i of a k-long kernel: (i, a, z, r0), where outputs a..z-1 of
    lo..hi-1 read inputs r0, r0 + stride, ... of an ``n_in``-long axis padded
    by ``pad``, and the rest of lo..hi-1 read padding."""
    for i in range(k):
        a = min(max(lo, -((i - pad[0]) // stride)), hi)
        z = max(min(hi, (n_in - 1 - i + pad[0]) // stride + 1), a)
        yield i, a, z, a * stride + i - pad[0]


def _rows(a, b, u0, u1):
    """a[b, :, u0:u1] as a [C x (u1-u0)*T] matrix (a view for a contiguous ``a``)."""
    return a[b, :, u0:u1].reshape(a.shape[1], -1)


class _Stack:
    """Maps [P x C_k x F x T] that the kernels read as the view
    [1 x P*sum(C_k) x F x T] of their concat on the channel axis (per part:
    [h_re, skip_re, h_im, skip_im] for two complex maps), which is never
    built: a kernel copies one band of its rows at a time into a band buffer
    (``read``) or out of one (``write``). ``shape``, ``dtype`` and ``nbytes``
    are the view's."""

    def __init__(self, maps):
        if len({m.shape[:1] + m.shape[2:] for m in maps}) > 1:
            raise ValueError(f"maps {[m.shape for m in maps]} differ beyond the channel axis")
        self.maps = maps
        self.slabs = [m[p : p + 1] for p in range(len(maps[0])) for m in maps]
        self.shape = (1, sum(s.shape[1] for s in self.slabs)) + maps[0].shape[2:]
        self.dtype = np.result_type(*maps)
        self.nbytes = sum(m.nbytes for m in maps)

    def empty(self, dtype):
        """Uninitialized maps of these shapes, as a stack."""
        return _Stack([np.empty(m.shape, dtype) for m in self.maps])

    def band(self, buf, u0, u1):
        """The [C x (u1-u0)*T] band matrix of rows u0..u1-1 at the start of ``buf``."""
        return buf[: self.shape[1] * (u1 - u0) * self.shape[3]].reshape(self.shape[1], -1)

    def read(self, b, u0, u1, buf):
        """Rows u0..u1-1 of batch item b, copied into ``buf`` as a band matrix."""
        return np.concatenate([_rows(s, b, u0, u1) for s in self.slabs],
                              out=self.band(buf, u0, u1))

    def write(self, band, b, u0, u1):
        """Copy the band matrix ``band`` into rows u0..u1-1 of batch item b."""
        at = np.cumsum([s.shape[1] for s in self.slabs[:-1]])
        for slab, part in zip(self.slabs, np.split(band, at)):
            _rows(slab, b, u0, u1)[...] = part


def _patch_gemms(x, kshape, stride, pad_f, pad_t, out_ft, w=None, out=None, y=None):
    """im2col GEMMs of an unpadded [B x C x F x T] map for a ``kshape``
    [O x C x kf x kt] kernel: each band of output rows' patch matrix is
    built once in its half's band array and serves up to two GEMMs.

    The [C*kf*kt x (u1-u0)*to] patch matrix ``cols`` of output rows u0..u1-1
    of batch item b holds in column (u, v) the receptive field of the padded
    map at rows u*sf..u*sf+kf-1 and columns v*st..v*st+kt-1, flattened in
    (c, i, j) order; each tap copies its valid input range and zeroes only
    the edge slices that fall in the padding. With ``w``, W cols fills the
    band's rows of ``out``; with ``y``, gw^T += cols y_band^T, and gw is
    returned (else None). ``out`` and ``y`` may be ``_Stack``s: each half
    then GEMMs into, or copies out of, a band buffer of its own.

    The serial band list is cut in two at a band boundary (a call of fewer
    than ``_SPLIT_BANDS`` bands stays whole). The first half adds its
    kernel-gradient products into gw^T as they come. With two workers the
    second writes each into an array of its own, which the caller adds after
    the first half, so gw^T sums every band in serial order either way.
    """
    (kf, kt), (sf, st), (fo, to) = kshape[2:], stride, out_ft
    o, (b_n, c, fi, ti) = kshape[0], x.shape
    k_rows = c * kf * kt
    jobs = _band_jobs(b_n, fo, k_rows * to, x.dtype)
    cut = len(jobs) // 2 if len(jobs) >= _SPLIT_BANDS else 0
    halves = [jobs[:cut], jobs[cut:]] if cut else [jobs]
    staged = isinstance(out, _Stack) or isinstance(y, _Stack)
    band_rows = jobs[0][2] - jobs[0][1]
    stage_at = band_rows * k_rows * to  # a staged half's band matrix follows its patches
    bufs = _buffers([stage_at + staged * band_rows * o * to] * len(halves), x.dtype)
    gw_t = None if y is None else np.zeros((k_rows, o), np.result_type(x, y.dtype))
    parallel = y is not None and cut and _WORKERS > 1
    parts = np.empty((len(halves[1]), k_rows, o), gw_t.dtype) if parallel else None
    t_taps = list(_taps(ti, kt, st, pad_t, 0, to))

    def run(half, buf, products):
        stage = buf[stage_at:]
        for n, (b, u0, u1) in enumerate(half):
            cols = buf[: k_rows * (u1 - u0) * to].reshape(c, kf, kt, u1 - u0, to)
            for i, a, z, r0 in _taps(fi, kf, sf, pad_f, u0, u1):
                rows = x[b, :, r0 : r0 + sf * (z - a) : sf]
                cols[:, i, :, : a - u0] = 0
                cols[:, i, :, z - u0 :] = 0
                for j, p, q, s0 in t_taps:
                    dst = cols[:, i, j, a - u0 : z - u0]
                    if p > 0:
                        dst[..., :p] = 0
                    if q < to:
                        dst[..., q:] = 0
                    dst[..., p:q] = rows[..., s0 : s0 + st * (q - p) : st]
            cols = cols.reshape(k_rows, -1)
            if w is not None:
                if isinstance(out, _Stack):
                    band = np.matmul(w.reshape(o, -1), cols, out=out.band(stage, u0, u1))
                    out.write(band, b, u0, u1)
                else:
                    np.matmul(w.reshape(o, -1), cols, out=_rows(out, b, u0, u1))
            if y is not None:
                y_band = y.read(b, u0, u1, stage) if isinstance(y, _Stack) else _rows(y, b, u0, u1)
                if products is None:
                    np.add(gw_t, cols @ y_band.T, out=gw_t)
                else:
                    np.matmul(cols, y_band.T, out=products[n])

    _run_halves([partial(run, *half) for half in zip(halves, bufs, (None, parts))])
    if y is None:
        return None
    for part in () if parts is None else parts:
        gw_t += part
    return gw_t.T.reshape(kshape)


def conv2d_raw(x, w, stride, pad_f, pad_t):
    """out[b,o,u,v] = sum_{c,i,j} w[o,c,i,j] * xpad[b,c, u*sf+i, v*st+j]."""
    o, _, kf, kt = w.shape
    fo = _conv_out_size(x.shape[2], kf, stride[0], pad_f)
    to = _conv_out_size(x.shape[3], kt, stride[1], pad_t)
    out = np.empty((x.shape[0], o, fo, to), dtype=np.result_type(x, w))
    _patch_gemms(x, w.shape, stride, pad_f, pad_t, (fo, to), w, out)
    return out


def conv2d_input_adjoint(g, w, stride, pad_f, pad_t, in_ft):
    """Adjoint of conv2d_raw with respect to its input: per band of output
    rows, one GEMM to the column matrix, then a kf*kt strided scatter-add
    of each tap's valid range into the unpadded (C-contiguous) gradient.

    A call of ``_SPLIT_BANDS`` or more bands runs as two halves of the input
    channels: each takes its channels' rows of w^T, scatters only into its
    channels of the gradient and keeps the serial band partition, since a
    GEMM's bits depend on its column count. ``g`` may be a ``_Stack``: each
    half then copies every band of it into a band buffer of its own."""
    sf, st = stride
    b_n, o, fo, to = g.shape
    _, c, kf, kt = w.shape
    fi, ti = in_ft
    tap_rows = kf * kt
    dtype = np.result_type(g.dtype, w)
    w_t = w.reshape(o, -1).T
    x_grad = np.zeros((b_n, c, fi, ti), dtype=dtype)
    t_taps = list(_taps(ti, kt, st, pad_t, 0, to))
    jobs = _band_jobs(b_n, fo, c * tap_rows * to, dtype)
    bounds = [0, c // 2, c] if len(jobs) >= _SPLIT_BANDS and c > 1 else [0, c]
    band_cols = (jobs[0][2] - jobs[0][1]) * to
    staged = isinstance(g, _Stack)
    bufs = _buffers([((c1 - c0) * tap_rows + staged * o) * band_cols
                     for c0, c1 in zip(bounds, bounds[1:])], dtype)

    def run(c0, c1, buf):
        w_half = w_t[c0 * tap_rows : c1 * tap_rows]
        stage = buf[(c1 - c0) * tap_rows * band_cols :]
        for b, u0, u1 in jobs:
            cols = buf[: (c1 - c0) * tap_rows * (u1 - u0) * to].reshape(-1, (u1 - u0) * to)
            g_band = g.read(b, u0, u1, stage) if staged else _rows(g, b, u0, u1)
            np.matmul(w_half, g_band, out=cols)
            cols = cols.reshape(c1 - c0, kf, kt, u1 - u0, to)
            for i, a, z, r0 in _taps(fi, kf, sf, pad_f, u0, u1):
                rows = x_grad[b, c0:c1, r0 : r0 + sf * (z - a) : sf]
                for j, p, q, s0 in t_taps:
                    rows[:, :, s0 : s0 + st * (q - p) : st] += cols[:, i, j, a - u0 : z - u0, p:q]

    _run_halves([partial(run, *half) for half in zip(bounds, bounds[1:], bufs)])
    return x_grad


def conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, kshape):
    """Adjoint of conv2d_raw with respect to its kernel (correlation):
    gw^T = sum over bands of output rows of cols g_band^T."""
    return _patch_gemms(x, kshape, stride, pad_f, pad_t, g.shape[2:], y=g)


def conv2d_transpose_adjoints(g, x, w, stride, pad_f, pad_t, need_x=True, need_w=True):
    """Both adjoints of the transposed conv of ``x`` [B x O x fo x to] (an
    array or a ``_Stack``) by ``w`` from one pass over the patch bands of its
    output gradient ``g``: (dx, gw) = (``conv2d_raw`` of g, shaped as x,
    ``conv2d_kernel_adjoint`` of g and x), each None unless needed."""
    dtype = np.result_type(g, w)
    if need_x:
        dx = x.empty(dtype) if isinstance(x, _Stack) else np.empty(x.shape, dtype)
    else:
        dx = None
    gw = _patch_gemms(g, w.shape, stride, pad_f, pad_t, x.shape[2:], w if need_x else None, dx,
                      x if need_w else None)
    return dx, gw


def _view(a, p):
    """``a`` [P x C x F x T] as [p x PC/p x F x T], a view; p = 1 is the kernels' view."""
    return a.reshape((p, -1) + a.shape[2:])


def _maps(x):
    """The input maps of a conv op: ``x`` alone or both items of an (h, skip) pair."""
    return (x,) if isinstance(x, Tensor) else tuple(x)


def _conv_parts(xs, w, stride, pad_f, pad_t, out_ft=None):
    """The output array of the conv by ``w`` of the map in ``xs`` (with
    ``out_ft``, of the transposed conv of that output size, whose input is
    the concat on the channel axis of the maps ``xs``, read in place) and
    ``grads(g, need_x, need_w)``, which returns its (input, kernel) adjoints
    at ``g``, each None unless needed, all in the kernels' view. Kernels are
    looked up by module name at call time."""
    xk = _view(xs[0].data, 1) if len(xs) == 1 else _Stack([x.data for x in xs])
    if out_ft is None:
        if len(xs) > 1:
            raise ValueError("only a transposed conv reads a pair of maps")
        in_ft = xk.shape[2:]

        def grads(g, need_x, need_w):
            return (
                conv2d_input_adjoint(g, w.data, stride, pad_f, pad_t, in_ft) if need_x else None,
                conv2d_kernel_adjoint(xk, g, stride, pad_f, pad_t, w.shape) if need_w else None,
            )

        return conv2d_raw(xk, w.data, stride, pad_f, pad_t), grads
    expect = tuple(map(_conv_out_size, out_ft, w.shape[2:], stride, (pad_f, pad_t)))
    if expect != xk.shape[2:]:
        raise ValueError(f"declared output {out_ft} maps to {expect}, but input is {xk.shape[2:]}")
    return (
        conv2d_input_adjoint(xk, w.data, stride, pad_f, pad_t, out_ft),
        lambda g, need_x, need_w: conv2d_transpose_adjoints(
            g, xk, w.data, stride, pad_f, pad_t, need_x, need_w),
    )


def _accumulate_conv_grads(xs, w, grads, g):
    """Hand the conv adjoints ``grads`` (see ``_conv_parts``) at ``g`` to the
    maps ``xs`` and to w, as shaped."""
    dx, gw = grads(g, any(x.needs_grad for x in xs), w.needs_grad)
    if dx is not None:
        for x, grad in zip(xs, dx.maps if isinstance(dx, _Stack) else [dx]):
            if x.needs_grad:
                x.accumulate(grad.reshape(x.shape), owned=True)
    if gw is not None:
        w.accumulate(gw.reshape(w.shape), owned=True)


def conv2d(x, w, stride, pad_f, pad_t, out_ft=None, bias=None):
    """Strided 2-d convolution of a map as an autodiff op, with an optional
    per-output-channel bias (any shape of as many entries) added in place.

    With ``out_ft`` it is the transposed convolution, the exact adjoint of
    the conv, and ``out_ft`` declares its output spatial size, which must
    map back to the input size under the forward-conv arithmetic. Its input
    may be an (h, skip) pair of maps [P x C_h x F x T] and [P x C_s x F x T],
    read as their concat on the channel axis, which is never built: its
    parents are then h and skip.
    """
    xs = _maps(x)
    out_data, grads = _conv_parts(xs, w, stride, pad_f, pad_t, out_ft)
    parents = (*xs, w)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)
        parents += (bias,)

    def backward_fn(g):
        g = _view(g, 1)
        _accumulate_conv_grads(xs, w, grads, g)
        if bias is not None and bias.needs_grad:
            bias.accumulate(g.sum(axis=(0, 2, 3)).reshape(bias.shape), owned=True)

    return Tensor(_view(out_data, xs[0].shape[0]), parents, backward_fn)


# A conv block's elementwise stages run over cache-resident groups of whole
# channels of at most this many bytes (or one channel). On a 2-vCPU x86 machine
# the NLM head's first block took 48 ms at 256 KiB, 62-75 at 4 MiB, 117 whole.
_GROUP_BYTES = 1 << 18


def _channel_dot(a, b):
    """Per-channel dot products of [B x k x F x T] arrays, as BLAS dots
    (9-46x less float32 roundoff than ``einsum`` on 6 s maps)."""
    a, b = (v.transpose(1, 0, 2, 3).reshape(v.shape[1], 1, -1) for v in (a, b))
    return np.matmul(a, b.transpose(0, 2, 1)).reshape(-1)


def _channel_groups(a):
    """(c0, c1) ranges of whole channels of a [B x C x F x T] map within budget."""
    step = max(1, _GROUP_BYTES * a.shape[1] // a.nbytes)
    for c0 in range(0, a.shape[1], step):
        yield c0, min(c0 + step, a.shape[1])


# The one-map backward reads gamma * xh as y - beta, so its roundoff grows
# with |beta| / |gamma|: on a 16-channel float32 block the error of the gamma
# gradient against float64 was 5 eps up to a ratio of 2 (as with xh kept), 21
# at 8, 53 at 32 and 224 at 128. A block whose betas reach this multiple of
# their gammas keeps xh. Just below it the two paths' gradients agree within
# the composite-reference tolerance of 100 eps (test_layers.py).
_BETA_PER_GAMMA = 8.0


def conv_bn_prelu(x, w, stride, pad_f, pad_t, out_ft, gamma, beta, slope, running, training,
                  eps=1e-5, momentum=0.1):
    """The ``conv2d`` of x by w (transposed with an ``out_ft``, else None),
    batch norm and PReLU as one op: xh is the conv output standardized per
    channel of the kernels' view over (freq, time) by its statistics in ``training``
    (moving ``running`` toward them) or by ``running`` (mean, var),
    y = gamma * xh + beta, and the output is max(y, 0) + slope * min(y, 0).
    Backward applies the PReLU mask and slope gradient, then
    gamma * inv_std * (dy - mean(dy) - xh * mean(dy * xh)) (Ioffe & Szegedy,
    2015; gamma * inv_std * dy under frozen statistics) and the conv
    adjoints, overwriting its ``g``. It keeps only the output map, written
    over the conv output (InPlace-ABN, Rota Bulo et al., 2017): backward
    rebuilds y as the output over the PReLU derivative and folds
    xh = (y - beta) / gamma into per-channel constants. That holds while
    every slope is > 0 and every |beta| < ``_BETA_PER_GAMMA`` |gamma|; a
    block that fails this per-call check keeps xh and the output, and
    backward recomputes y from xh. Under
    ``no_grad()`` it keeps nothing. A transposed one reads ``x`` as
    ``conv2d`` does: a map or an (h, skip) pair.
    The parameters and statistics are read as flat per-channel views of any
    shape ([2 x C] in a complex block), and each gradient has its parameter's."""
    xs = _maps(x)
    xh_map, grads = _conv_parts(xs, w, stride, pad_f, pad_t, out_ft)  # standardized in place
    channels = xh_map.shape[1]
    n = xh_map.size // channels
    dtype = xh_map.dtype
    vecs = gam_v, bet_v, slp_v = [p.data.reshape(-1) for p in (gamma, beta, slope)]
    keep_xh = ad.is_recording() and not (
        np.all(slp_v > 0) and np.all(np.abs(bet_v) < _BETA_PER_GAMMA * np.abs(gam_v)))
    out = np.empty_like(xh_map) if keep_xh else xh_map
    cs = (slice(None), None, None)  # a per-channel vector against a [k x F x T] group
    gam, bet, slp = (v[cs] for v in vecs)
    running = [a.reshape(-1) for a in running]
    mean, var = (np.empty(channels, dtype), np.empty(channels, dtype)) if training else running
    inv_std = np.empty(channels, dtype)
    groups = list(_channel_groups(xh_map))
    group_shape = (xh_map.shape[0], groups[0][1]) + xh_map.shape[2:]
    tmp = np.empty(group_shape, dtype)
    for c0, c1 in groups:
        xh, y, t = xh_map[:, c0:c1], out[:, c0:c1], tmp[:, : c1 - c0]
        if training:
            mean[c0:c1] = xh.sum(axis=(0, 2, 3)) / n
        xh -= mean[c0:c1][cs]
        if training:
            var[c0:c1] = _channel_dot(xh, xh) / n
        inv_std[c0:c1] = 1.0 / np.sqrt(var[c0:c1] + eps)
        xh *= inv_std[c0:c1][cs]
        np.multiply(xh, gam[c0:c1], out=y)
        y += bet[c0:c1]
        np.minimum(y, 0, out=t)
        t *= slp[c0:c1]
        np.maximum(y, 0, out=y)
        y += t
    if training:
        for stat, batch_stat in zip(running, (mean, var)):
            stat *= 1.0 - momentum
            stat += momentum * batch_stat

    def backward_fn(g):
        g = _view(g, 1)
        k = gam_v * inv_std
        d_gamma, d_beta, d_slope = (np.empty(channels, dtype) for _ in range(3))
        tmp = np.empty(group_shape, dtype)
        mask = np.empty(group_shape, bool)
        for c0, c1 in groups:
            gv = g[:, c0:c1]
            t, m = tmp[:, : c1 - c0], mask[:, : c1 - c0]
            if keep_xh:
                xh = xh_map[:, c0:c1]
                np.multiply(xh, gam[c0:c1], out=t)
                t += bet[c0:c1]
                np.less_equal(t, 0, out=m)
                np.minimum(t, 0, out=t)
                d_slope[c0:c1] = _channel_dot(gv, t)
            else:
                # out <= 0 where y <= 0, and min(y, 0) = min(out, 0) / slope.
                o = out[:, c0:c1]
                np.less_equal(o, 0, out=m)
                np.minimum(o, 0, out=t)
                d_slope[c0:c1] = _channel_dot(gv, t) / slp_v[c0:c1]
                gy_sum = _channel_dot(gv, o)  # sum(dy * y), as dy * y = g * out
            # dy = g * (slope where y <= 0, else 1), from the mask by arithmetic.
            np.multiply(m, slp[c0:c1] - 1, out=t)
            t += 1
            gv *= t
            d_beta[c0:c1] = g_sum = gv.sum(axis=(0, 2, 3))
            if keep_xh:
                d_gamma[c0:c1] = gx_sum = _channel_dot(gv, xh)
            else:
                d_gamma[c0:c1] = gx_sum = (gy_sum - bet_v[c0:c1] * g_sum) / gam_v[c0:c1]
            kc = k[c0:c1]
            gv *= kc[cs]
            if training:
                # gv -= kc * (g_sum + xh * gx_sum) / n; on the one-map path
                # xh = (y - beta) / gamma, and y = out / t, t the PReLU's derivative.
                a = kc * gx_sum / n
                if keep_xh:
                    np.multiply(xh, a[cs], out=t)
                    gv -= (kc * g_sum / n)[cs]
                else:
                    a /= gam_v[c0:c1]
                    np.divide(o, t, out=t)
                    t *= a[cs]
                    gv -= (kc * g_sum / n - bet_v[c0:c1] * a)[cs]
                gv -= t
        for param, grad in ((gamma, d_gamma), (beta, d_beta), (slope, d_slope)):
            if param.needs_grad:
                param.accumulate(grad.reshape(param.shape), owned=True)
        _accumulate_conv_grads(xs, w, grads, g)

    return Tensor(_view(out, xs[0].shape[0]), (*xs, w, gamma, beta, slope), backward_fn)


# ---------------------------------------------------------------------------
# Complex kernels in real block form
# ---------------------------------------------------------------------------

def block_kernel(w):
    """Real block form [[Wr, -Wi], [Wi, Wr]] [2O x 2C x ...] of the complex
    kernel ``w`` [2 x O x C x ...] = (Wr, Wi), as one op.

    Applied to a complex map (the kernels' view [xr; xi]) it gives the
    complex product (Wr xr - Wi xi; Wi xr + Wr xi); its adjoint is the
    conjugate transpose, so the transposed ``conv2d`` with the same block is
    the complex deconvolution. With G11 ... G22 the four blocks of the
    output gradient, Wr gets G11 + G22 and Wi gets G21 - G12.
    """
    w_r, w_i = w.data
    o, c = w_r.shape[:2]
    out = np.empty((2 * o, 2 * c) + w_r.shape[2:], w.dtype)
    out[:o, :c] = out[o:, c:] = w_r
    out[o:, :c] = w_i
    np.negative(w_i, out=out[:o, c:])

    def backward_fn(g):
        gw = np.empty(w.shape, g.dtype)
        np.add(g[:o, :c], g[o:, c:], out=gw[0])
        np.subtract(g[o:, :c], g[:o, c:], out=gw[1])
        w.accumulate(gw, owned=True)

    return Tensor(out, (w,), backward_fn)


# ---------------------------------------------------------------------------
# Complex LSTM (single op with hand-written backprop-through-time)
# ---------------------------------------------------------------------------

def lstm(x, wx, wh, b):
    """DCCRN's complex LSTM, zero initial state: two real LSTMs (weight
    sets r, i), each run over both parts of ``x`` [2 x T x D] = [x_re; x_im]
    in one time loop, combined by the complex product rule
    out_re = L_r(x_re) - L_i(x_im), out_im = L_r(x_im) + L_i(x_re), as one
    op: the stacked [out_re, out_im] [T x 2H]. ``wx`` [2 x 4H x D], ``wh``
    [2 x 4H x H] and ``b`` [2 x 4H] hold the sets (r, i).

    Gate packing along the 4H axis is (input, forget, cell, output). Each
    frame takes one tanh of all 4H pre-activations: a sigmoid gate is
    0.5*(1 + tanh(a/2)), the form of ``autodiff.sigmoid_array``, and the
    cell gate is tanh(a). The halving is folded into the input projection
    and the recurrent weights, where it is exact. The backward pass
    computes every gate derivative before its time loop, which then only
    chains them.
    """
    xd, wxd, whd, bd = (a.data for a in (x, wx, wh, b))
    s_n, t_len, d = xd.shape
    k_n, four_h, hidden = whd.shape
    dtype = xd.dtype
    q = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hidden)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=dtype), hidden)

    pre = xd.reshape(s_n * t_len, d) @ wxd.reshape(k_n * four_h, d).T
    pre = pre.reshape(s_n, t_len, k_n, four_h)
    pre += bd
    pre *= q
    gates = np.ascontiguousarray(pre.transpose(1, 2, 0, 3))  # [T x K x S x 4H]
    wh_q = (whd * q[:, np.newaxis]).transpose(0, 2, 1)  # [K x H x 4H]
    cs = np.empty((t_len, k_n, s_n, hidden), dtype=dtype)
    tcs = np.empty_like(cs)
    hs = np.empty_like(cs)  # hs[t, k, s]: set k over part s
    h = np.zeros((k_n, s_n, hidden), dtype=dtype)
    ig = np.empty_like(h)
    rec = np.empty((k_n, s_n, four_h), dtype=dtype)
    for t in range(t_len):
        a = gates[t]
        np.matmul(h, wh_q, out=rec)
        a += rec
        np.tanh(a, out=a)
        a *= q
        a += shift
        gi, gf, gg, go = (a[..., n * hidden : (n + 1) * hidden] for n in range(4))
        c, h = cs[t], hs[t]
        np.multiply(gf, cs[t - 1] if t else 0.0, out=c)
        np.multiply(gi, gg, out=ig)
        c += ig
        np.tanh(c, out=tcs[t])
        np.multiply(go, tcs[t], out=h)
    out = np.empty((t_len, 2 * hidden), dtype=dtype)
    np.subtract(hs[:, 0, 0], hs[:, 1, 1], out=out[:, :hidden])
    np.add(hs[:, 0, 1], hs[:, 1, 0], out=out[:, hidden:])

    def backward_fn(g):
        # The product rule's adjoint, summed into zeros so that every zero
        # is +0 (0 - g_re, not -g_re).
        gh = np.zeros_like(cs)
        g_re, g_im = g[:, :hidden], g[:, hidden:]
        gh[:, 0, 0] += g_re
        gh[:, 1, 1] -= g_re
        gh[:, 0, 1] += g_im
        gh[:, 1, 0] += g_im
        gi, gf, gg, go = (gates[..., n * hidden : (n + 1) * hidden] for n in range(4))
        c_prev = np.concatenate([np.zeros_like(cs[:1]), cs[:-1]])
        h_prev = np.concatenate([np.zeros_like(hs[:1]), hs[:-1]])
        # Derivatives of every pre-activation, per unit of the cell
        # gradient (input, forget, cell gates) or of the hidden gradient
        # (output gate), and of the cell gradient per unit hidden gradient.
        unit = np.empty((t_len, k_n, s_n, 4, hidden), dtype=dtype)
        unit[..., 0, :] = gg * gi * (1.0 - gi)
        unit[..., 1, :] = c_prev * gf * (1.0 - gf)
        unit[..., 2, :] = gi * (1.0 - gg * gg)
        unit[..., 3, :] = tcs * go * (1.0 - go)
        dc_dh = go * (1.0 - tcs * tcs)
        f_next = np.concatenate([gf[1:], np.zeros_like(gf[:1])])

        da = np.empty_like(unit)
        dh = np.empty((k_n, s_n, hidden), dtype=dtype)
        dc = np.zeros_like(dh)
        dh_next = np.zeros_like(dh)
        tmp = np.empty_like(dh)
        for t in range(t_len - 1, -1, -1):
            np.add(gh[t], dh_next, out=dh)
            dc *= f_next[t]
            np.multiply(dh, dc_dh[t], out=tmp)
            dc += tmp
            np.multiply(dc[:, :, np.newaxis], unit[t, :, :, :3], out=da[t, :, :, :3])
            np.multiply(dh, unit[t, :, :, 3], out=da[t, :, :, 3])
            np.matmul(da[t].reshape(k_n, s_n, four_h), whd, out=dh_next)

        da = da.reshape(t_len, k_n, s_n, four_h)
        if x.needs_grad:
            da_s = da.transpose(2, 0, 1, 3).reshape(s_n, t_len, k_n * four_h)
            x.accumulate(da_s @ wxd.reshape(k_n * four_h, d), owned=True)
        da_k = da.transpose(1, 2, 0, 3).reshape(k_n, s_n * t_len, four_h)
        da_kt = da_k.transpose(0, 2, 1)
        if wx.needs_grad:  # the rows of x, copied again rather than kept
            wx.accumulate(da_kt @ xd.reshape(s_n * t_len, d), owned=True)
        if wh.needs_grad:
            h_rows = h_prev.transpose(1, 2, 0, 3).reshape(k_n, s_n * t_len, hidden)
            wh.accumulate(da_kt @ h_rows, owned=True)
        if b.needs_grad:
            b.accumulate(da_k.sum(axis=1), owned=True)

    return Tensor(out, (x, wx, wh, b), backward_fn)


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

class ComplexConvBlock:
    """The DCCRN unit: complex conv (``transposed``: deconv) -> complex BN ->
    PReLU as one ``conv_bn_prelu`` op, with no conv bias (the BN mean
    cancels it). The conv is one real conv of the map, read as [xr; xi], with
    the block kernel [[Wr, -Wi], [Wi, Wr]] of ``w`` [2 x O x C x kf x kt]
    (a deconv's is [2 x C x O x kf x kt]); it strides frequency (a deconv
    upsamples it) and is causal in time: a conv pads the past, and a deconv
    is the adjoint of a conv that pads the future. ``bn.gamma``,
    ``bn.beta``, ``act.slope`` and the running statistics are [2 x C]
    (r, i). Without ``norm`` (the last decoder block) it is a bare conv with
    a bias ``b`` [2 x O] instead."""

    def __init__(self, in_ch, out_ch, kernel, stride, rng, dtype, transposed=False, norm=True):
        kf, kt = kernel
        self.stride, self.transposed = stride, transposed
        self.pad_f = ((kf - 1) // 2, kf // 2)
        self.pad_t = (0, kt - 1) if transposed else (kt - 1, 0)
        shape = (in_ch, out_ch, kf, kt) if transposed else (out_ch, in_ch, kf, kt)
        self.w = uniform_init(rng, (2,) + shape, in_ch * kf * kt, dtype)  # Wr drawn, then Wi
        self.b = None if norm else zeros_param((2, out_ch), dtype)
        self.norm, self.running = {}, {}
        if norm:
            vec = (2, out_ch)
            for name, init in (("bn.gamma", 1.0), ("bn.beta", 0.0), ("act.slope", 0.25)):
                self.norm[name] = Tensor(np.full(vec, init, dtype=dtype))
            self.running = {"bn.running_mean": np.zeros(vec, dtype),
                            "bn.running_var": np.ones(vec, dtype)}

    def params(self):
        conv = {"conv.w": self.w} if self.b is None else {"conv.w": self.w, "conv.b": self.b}
        return {**conv, **self.norm}

    def buffers(self):
        return self.running

    def __call__(self, x, training=False):
        """Complex map [2 x C x F x T] -> complex map [2 x C' x F' x T]. A
        deconv also reads an (h, skip) pair of maps as their concat on the
        channel axis (see ``conv2d``)."""
        f, t = _maps(x)[0].shape[2:]
        out_ft = (f * self.stride[0], t) if self.transposed else None
        conv = (x, block_kernel(self.w), self.stride, self.pad_f, self.pad_t, out_ft)
        if self.b is not None:
            return conv2d(*conv, bias=self.b)
        return conv_bn_prelu(*conv, *self.norm.values(), self.running.values(), training)


class Linear:
    def __init__(self, in_features, out_features, rng, dtype):
        self.w = uniform_init(rng, (out_features, in_features), in_features, dtype)
        self.b = zeros_param(out_features, dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def __call__(self, x):
        return ad.matmul(x, ad.transpose(self.w, (1, 0))) + self.b


class ComplexLinear:
    """(Wr + jWi) x + (br + jbi) over the last axis of a stacked [T x 2D]
    sequence [xr, xi], as one real matmul with the block matrix
    [[Wr, -Wi], [Wi, Wr]] of ``w`` [2 x D' x D] and the bias ``b``
    [2 x D'] read as [br; bi]: [T x 2D'] out."""

    def __init__(self, in_features, out_features, rng, dtype):
        self.w = uniform_init(rng, (2, out_features, in_features), in_features, dtype)
        self.b = zeros_param((2, out_features), dtype)

    def params(self):
        return {"w": self.w, "b": self.b}

    def __call__(self, x):
        out = ad.matmul(x, ad.transpose(block_kernel(self.w), (1, 0)))
        return out + ad.reshape(self.b, (-1,))


class ComplexLSTM:
    """The complex LSTM bottleneck: one ``lstm`` op over [x_re; x_im]
    [2 x T x D] -> stacked [out_re, out_im] [T x 2H], with ``wx``
    [2 x 4H x D], ``wh`` [2 x 4H x H] and ``b`` [2 x 4H] holding the real
    LSTMs' weight sets (r, i).
    """

    def __init__(self, input_size, hidden, rng, dtype):
        four_h = 4 * hidden
        shapes = (((four_h, input_size), input_size), ((four_h, hidden), hidden))
        # Weight set r draws wx then wh, then set i does.
        sets = [[uniform_init(rng, shape, fan_in, dtype).data for shape, fan_in in shapes]
                for _ in "ri"]
        self.wx, self.wh = (Tensor(np.stack(pair)) for pair in zip(*sets))
        self.b = zeros_param((2, four_h), dtype)

    def params(self):
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def __call__(self, x):
        return lstm(x, self.wx, self.wh, self.b)
