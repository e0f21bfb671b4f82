import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor, backward
from neurobeam.checkpoint import fill_arrays, load_checkpoint, save_checkpoint
from neurobeam.gradcheck import check_gradients
from neurobeam.layers import (
    ComplexConvBlock,
    ComplexLinear,
    ComplexLSTM,
    block_kernel,
    conv2d,
    conv_bn_prelu,
    lstm,
    to_complex,
)
from neurobeam.optim import Adam

from conftest import reduce_mean


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def _complex_from(rng, shape):
    """A complex map [2 x ...] (re, im) of two standard normal ``shape`` parts."""
    return Tensor(np.stack([rng.standard_normal(shape), rng.standard_normal(shape)]))


def _halves(t):
    """The (re, im) arrays of a sequence [T x 2D] stacked on axis 1."""
    return np.split(t.data, 2, axis=1)


# ---------------------------------------------------------------------------
# complex convolution
# ---------------------------------------------------------------------------

def test_conv_one_by_one_identity():
    rng = _rng(1)
    layer = ComplexConvBlock(3, 3, (1, 1), (1, 1), rng, np.float64, norm=False)
    layer.w.data = np.stack([np.eye(3), np.zeros((3, 3))]).reshape(2, 3, 3, 1, 1)
    x = _complex_from(rng, (3, 5, 4))
    out = layer(x)
    assert np.allclose(out.data, x.data)


def test_conv_zero_imag_kernel_reduces_to_real_convs():
    rng = _rng(2)
    layer = ComplexConvBlock(2, 4, (5, 2), (2, 1), rng, np.float64, norm=False)
    layer.w.data[1] = 0.0
    x = _complex_from(rng, (2, 8, 6))
    out = layer(x)
    for have, part in zip(out.data, x.data):  # each part as a real map [1 x C x F x T]
        real_only = conv2d(Tensor(part[np.newaxis]), Tensor(layer.w.data[0]), (2, 1),
                           layer.pad_f, layer.pad_t)
        assert np.allclose(have, real_only.data[0])


def test_conv_single_element_complex_product():
    rng = _rng(3)
    layer = ComplexConvBlock(1, 1, (1, 1), (1, 1), rng, np.float64, norm=False)
    layer.w.data[0] = 0.0
    layer.w.data[1] = 1.0  # kernel = j
    x = Tensor(np.array([1.0, 0.0]).reshape(2, 1, 1, 1))
    out = layer(x)  # (0 + j) * (1 + 0j) = j
    assert out.data[0, 0, 0, 0] == pytest.approx(0.0)
    assert out.data[1, 0, 0, 0] == pytest.approx(1.0)


def test_conv_freq_halving_and_causal_time():
    rng = _rng(4)
    layer = ComplexConvBlock(2, 3, (5, 2), (2, 1), rng, np.float64, norm=False)
    x = _complex_from(rng, (2, 64, 9))
    out = layer(x)
    assert out.shape == (2, 3, 32, 9)  # 3 complex channels


def test_deconv_is_adjoint_of_conv():
    # <conv(x), y>_R == <x, deconv(y)>_R with shared kernels, zero bias.
    # The deconv's time padding mirrors an anti-causally padded conv, so
    # the adjoint partner pads the future: pad_t = (0, kt - 1) with kt = 2.
    rng = _rng(5)
    deconv = ComplexConvBlock(3, 2, (5, 2), (2, 1), rng, np.float64, transposed=True, norm=False)
    x = _complex_from(rng, (2, 8, 4))
    y = _complex_from(rng, (3, 4, 4))
    cx = conv2d(x, block_kernel(deconv.w), (2, 1), deconv.pad_f, pad_t=(0, 1))
    dy = deconv(y)
    lhs = np.sum(cx.data * y.data)
    rhs = np.sum(x.data * dy.data)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_deconv_identity_kernel():
    rng = _rng(6)
    layer = ComplexConvBlock(2, 2, (1, 1), (1, 1), rng, np.float64, transposed=True, norm=False)
    layer.w.data = np.stack([np.eye(2), np.zeros((2, 2))]).reshape(2, 2, 2, 1, 1)
    x = _complex_from(rng, (2, 6, 3))
    out = layer(x)
    assert np.allclose(out.data, x.data)


def test_deconv_zero_input_zero_output():
    rng = _rng(7)
    layer = ComplexConvBlock(3, 2, (5, 2), (2, 1), rng, np.float64, transposed=True, norm=False)
    x = Tensor(np.zeros((2, 3, 4, 5)))
    out = layer(x)
    assert np.all(out.data == 0)
    assert out.shape == (2, 2, 8, 5)


def test_conv_transpose_rejects_inconsistent_shape():
    rng = _rng(8)
    x = Tensor(rng.standard_normal((1, 2, 4, 3)))
    w = Tensor(rng.standard_normal((2, 2, 5, 2)))
    with pytest.raises(ValueError, match="declared output"):
        conv2d(x, w, (2, 1), (2, 2), (0, 1), (64, 3))


def test_complex_linearity_of_linear_layers():
    # f(alpha * x) == alpha * f(x) for complex alpha, bias-free layers.
    rng = _rng(9)
    alpha = 0.7 - 1.3j
    conv = ComplexConvBlock(2, 3, (5, 2), (2, 1), rng, np.float64, norm=False)
    deconv = ComplexConvBlock(2, 3, (5, 2), (2, 1), rng, np.float64, transposed=True, norm=False)
    lin = ComplexLinear(4, 3, rng, np.float64)

    def apply(layer, z):
        if layer is lin:  # a sequence [T x 2D], its parts side by side
            out = layer(Tensor(np.concatenate([z.real, z.imag], axis=1))).data
            return to_complex(np.stack(np.split(out, 2, axis=1)))
        return to_complex(layer(Tensor(np.stack([z.real, z.imag]))).data)  # a map [2 x ...]

    for layer, shape in ((conv, (2, 8, 4)), (deconv, (2, 8, 4)), (lin, (5, 4))):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.allclose(apply(layer, alpha * x), alpha * apply(layer, x), atol=1e-12)


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
        _BAND_BYTES, _band_jobs, conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw,
    )

    rng = _rng(50)
    batch, c, o, (kf, kt), stride = 2, 16, 2, (5, 2), (2, 1)
    pad_f, pad_t = (2, 2), (1, 0)
    # One output row's patches take between a quarter and a third of the
    # band budget, so the 8 output rows of a 16-bin input at stride 2 form
    # bands of 3, 3 and 2 rows.
    row_unit = c * kf * kt * np.dtype(dtype).itemsize
    f_in, t_in = 16, _BAND_BYTES // (3 * row_unit)
    assert [u1 - u0 for _, u0, u1 in _band_jobs(1, 8, c * kf * kt * t_in, dtype)] == [3, 3, 2]
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
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out_bytes + padded_bytes + _BAND_BYTES, (name, peak)


def test_conv_kernels_property_match_reference_across_bands():
    # Random shapes, strides, pads and band budgets, against the nested-loop
    # references and the adjoint identity. The deconv backward kernel is the
    # transposed conv's pair (conv2d_raw, conv2d_kernel_adjoint) of one pass.
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    from neurobeam import layers
    from neurobeam.layers import (
        conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw, conv2d_transpose_adjoints,
    )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        batch=st.integers(1, 2), c=st.integers(1, 3), o=st.integers(1, 3),
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 2)),
        pad_f_frac=st.tuples(st.integers(0, 5), st.integers(0, 5)), causal=st.booleans(),
        in_ft=st.tuples(st.integers(1, 10), st.integers(1, 7)),
        band_rows=st.integers(1, 4), seed=st.integers(0, 2**16),
    )
    # The last output row's band lies wholly in the bottom frequency pad.
    @example(batch=1, c=2, o=2, kernel=(5, 2), stride=(1, 1), pad_f_frac=(0, 5),
             causal=True, in_ft=(2, 3), band_rows=1, seed=1)
    # The first band lies wholly in the top pad; taps read no valid row.
    @example(batch=2, c=1, o=3, kernel=(4, 3), stride=(2, 2), pad_f_frac=(4, 1),
             causal=False, in_ft=(3, 5), band_rows=1, seed=2)
    def check(batch, c, o, kernel, stride, pad_f_frac, causal, in_ft, band_rows, seed):
        (kf, kt), (sf, st_), (f_in, t_in) = kernel, stride, in_ft
        pad_f = tuple(min(p, kf) for p in pad_f_frac)
        pad_t = (kt - 1, 0) if causal else (0, kt - 1)
        fo = (f_in + sum(pad_f) - kf) // sf + 1
        to = (t_in + sum(pad_t) - kt) // st_ + 1
        assume(fo >= 1 and to >= 1)
        rng = _rng(seed)
        x = rng.standard_normal((batch, c, f_in, t_in))
        w = rng.standard_normal((o, c, kf, kt))
        g = rng.standard_normal((batch, o, fo, to))
        ref = _ref_conv(x, w, stride, pad_f, pad_t)
        ref_x = _ref_input_adjoint(g, w, stride, pad_f, pad_t, in_ft)
        ref_w = _ref_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape)
        row_bytes = c * kf * kt * to * x.itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "_BAND_BYTES", band_rows * row_bytes + seed % row_bytes)
            got = conv2d_raw(x, w, stride, pad_f, pad_t)
            got_x = conv2d_input_adjoint(g, w, stride, pad_f, pad_t, in_ft)
            got_w = conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape)
            # The transposed conv of g (output size in_ft) at output gradient x.
            dx, dw = conv2d_transpose_adjoints(x, g, w, stride, pad_f, pad_t)
            only_x = conv2d_transpose_adjoints(x, g, w, stride, pad_f, pad_t, need_w=False)
            only_w = conv2d_transpose_adjoints(x, g, w, stride, pad_f, pad_t, need_x=False)
        for have, want in ((got, ref), (got_x, ref_x), (got_w, ref_w), (dx, ref), (dw, ref_w)):
            _assert_close(have, want, np.float64)
        assert np.array_equal(dx, got) and np.array_equal(dw, got_w)
        assert only_x[1] is None and np.array_equal(only_x[0], dx)
        assert only_w[0] is None and np.array_equal(only_w[1], dw)
        assert got_x.flags.c_contiguous and got_x.base is None
        lhs = np.sum(got * g)
        for rhs in (np.sum(x * got_x), np.sum(w * got_w)):
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    check()


def test_conv_kernels_peak_at_output_plus_one_band(monkeypatch):
    # The kernels build patches from the unpadded map and scatter into the
    # unpadded gradient, so no call holds a padded copy of either: the
    # traced peak is the result, the band array and small change. A second
    # worker adds its own band array (the input adjoint's halves split one
    # band's channels instead) and holds its half's kernel-gradient products.
    import tracemalloc

    from neurobeam import layers
    from neurobeam.layers import (
        _BAND_BYTES, _band_jobs, conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw,
        conv2d_transpose_adjoints,
    )

    rng = _rng(61)
    stride, pad_f, pad_t = (2, 1), (2, 2), (1, 0)
    x = rng.standard_normal((1, 48, 129, 957), dtype=np.float32)
    w = (0.1 * rng.standard_normal((48, 48, 5, 2))).astype(np.float32)
    g = rng.standard_normal((1, 48, 65, 957), dtype=np.float32)
    bands = len(_band_jobs(1, 65, 48 * 5 * 2 * 957, np.float32))
    products = (bands - bands // 2) * w.nbytes
    calls = {  # name: (call, result bytes, a second worker's extra bytes)
        "conv2d_raw": (lambda: conv2d_raw(x, w, stride, pad_f, pad_t), g.nbytes, _BAND_BYTES),
        "conv2d_input_adjoint": (
            lambda: conv2d_input_adjoint(g, w, stride, pad_f, pad_t, (129, 957)), x.nbytes, 0,
        ),
        "conv2d_kernel_adjoint": (
            lambda: conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape), w.nbytes,
            _BAND_BYTES + products,
        ),
        "conv2d_transpose_adjoints": (
            lambda: conv2d_transpose_adjoints(x, g, w, stride, pad_f, pad_t),
            g.nbytes + w.nbytes, _BAND_BYTES + products,
        ),
    }
    for workers in (1, 2):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        for name, (call, out_bytes, second) in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = out_bytes + _BAND_BYTES + (workers - 1) * second + (1 << 20)
            assert peak < bound, (name, workers, peak)


def _all_kernels(x, w, g, stride, pad_f, pad_t):
    """Every conv kernel's results at a map ``x``, a kernel ``w`` and an
    output gradient ``g``, as a flat list of arrays."""
    from neurobeam.layers import (
        conv2d_input_adjoint, conv2d_kernel_adjoint, conv2d_raw, conv2d_transpose_adjoints,
    )

    return [
        conv2d_raw(x, w, stride, pad_f, pad_t),
        conv2d_input_adjoint(g, w, stride, pad_f, pad_t, x.shape[2:]),
        conv2d_kernel_adjoint(x, g, stride, pad_f, pad_t, w.shape),
        # The transposed conv of g (output size of x) at output gradient x.
        *conv2d_transpose_adjoints(x, g, w, stride, pad_f, pad_t),
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, band_rows, bands", [(1, 10, 1), (1, 5, 2), (1, 4, 3), (1, 2, 5),
                                                     (3, 4, 9)])
def test_conv_kernels_bit_identical_on_one_and_two_workers(monkeypatch, batch, band_rows,
                                                           bands, dtype):
    # Two workers split a call's serial band list (and the input adjoint its
    # channels, here 3 -> 1 + 2) from four bands on, and keep the serial
    # arithmetic: every kernel gives the same bits with one worker and two,
    # at one to three bands (whole), five and nine (cut inside a batch item).
    from neurobeam import layers

    rng = _rng(80 + 2 * bands + batch)
    c, o, (kf, kt), stride, pad_f, pad_t = 3, 5, (5, 2), (2, 1), (2, 2), (1, 0)
    x = rng.standard_normal((batch, c, 20, 7)).astype(dtype)
    w = rng.standard_normal((o, c, kf, kt)).astype(dtype)
    g = rng.standard_normal((batch, o, 10, 7)).astype(dtype)
    row_elems = c * kf * kt * 7
    monkeypatch.setattr(layers, "_BAND_BYTES", band_rows * row_elems * x.itemsize)
    assert len(layers._band_jobs(batch, 10, row_elems, dtype)) == bands
    submitted, submit = [], layers._worker.submit
    monkeypatch.setattr(layers._worker, "submit", lambda fn: submitted.append(fn) or submit(fn))
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        results.append(_all_kernels(x, w, g, stride, pad_f, pad_t))
    assert len(submitted) == (4 if bands >= layers._SPLIT_BANDS else 0)
    for one, two in zip(*results):
        assert one.dtype == two.dtype == dtype
        assert one.shape == two.shape and one.tobytes() == two.tobytes()


@pytest.mark.parametrize("form", ["train", "eval", "bias"])
@pytest.mark.parametrize("c_h, c_s, f, bands", [(3, 2, 16, 8), (2, 1, 4, 1), (3, None, 16, 8)],
                         ids=["split", "one_band", "same_tensor"])
def test_deconv_reads_a_pair_as_its_concat_bit_for_bit(monkeypatch, form, c_h, c_s, f, bands):
    # A transposed conv reads an (h, skip) pair in place as the kernels'
    # view [h_re, skip_re, h_im, skip_im] of concat([h, skip]), which it
    # never builds: the output and the gradients of h, skip, the kernel and
    # the BN parameters (or the bias) are the concat form's bits, with one
    # worker and two, at eight bands (split) and one (whole); a pair may
    # hold one tensor twice (c_s None).
    from neurobeam import layers

    rng = _rng(100 + f + bands)
    t, c_out, kernel, stride, pad_f, pad_t = 6, 3, (5, 2), (2, 1), (2, 2), (0, 1)
    h = rng.standard_normal((2, c_h, f, t)).astype(np.float32)
    skip = h if c_s is None else rng.standard_normal((2, c_s, f, t)).astype(np.float32)
    w = 0.3 * rng.standard_normal((2 * (c_h + skip.shape[1]), 2 * c_out) + kernel)
    vecs = [base + 0.1 * rng.standard_normal(2 * c_out) for base in (1.0, 0.0, 0.25)]
    weight = ad.constant(rng.standard_normal((2, c_out, 2 * f, t)).astype(np.float32))
    row_elems = 2 * c_out * kernel[0] * kernel[1] * t  # both kernels band the f rows of h
    monkeypatch.setattr(layers, "_BAND_BYTES", f // bands * row_elems * 4)
    assert len(layers._band_jobs(1, f, row_elems, np.float32)) == bands

    def run(pair, workers):
        monkeypatch.setattr(layers, "_WORKERS", workers)
        h_t = Tensor(h.copy())
        skip_t = h_t if c_s is None else Tensor(skip.copy())
        w_t, gamma, beta, slope = (Tensor(a.astype(np.float32)) for a in (w, *vecs))
        x = (h_t, skip_t) if pair else ad.concat([h_t, skip_t], axis=1)
        conv = (x, w_t, stride, pad_f, pad_t, (2 * f, t))
        running = [np.zeros(2 * c_out, np.float32), np.ones(2 * c_out, np.float32)]
        if form == "bias":
            out, params = conv2d(*conv, bias=beta), (w_t, beta)
        else:
            out = conv_bn_prelu(*conv, gamma, beta, slope, running, form == "train")
            params = (w_t, gamma, beta, slope)
        if pair:
            assert out.parents[0] is h_t and out.parents[1] is skip_t
        backward(ad.reduce_sum(out * weight))
        grads = [h_t.grad, skip_t.grad, *(p.grad for p in params)]
        return [a.tobytes() for a in (out.data, *grads, *running)]

    want = run(False, 1)
    for workers in (1, 2):
        assert run(True, workers) == want


def test_deconv_pair_builds_no_merged_map():
    # A training forward of a deconv block on an (h, skip) pair keeps only
    # its two maps of output size, as on a map: no copy of [h; skip] (here
    # as large as the output) is made or kept.
    import tracemalloc

    from neurobeam.layers import _BAND_BYTES

    rng = _rng(105)
    f, t, c = 128, 957, 8
    h, skip = (Tensor(rng.standard_normal((2, c, f, t), dtype=np.float32)) for _ in "hs")
    w = Tensor((0.1 * rng.standard_normal((4 * c, 2 * c, 5, 2))).astype(np.float32))
    vec = [Tensor(np.full(2 * c, v, dtype=np.float32)) for v in (1.0, 0.0, 0.25)]
    running = [np.zeros(2 * c, np.float32), np.ones(2 * c, np.float32)]
    out_bytes = 2 * c * 2 * f * t * 4
    assert h.data.nbytes + skip.data.nbytes == out_bytes
    tracemalloc.start()
    try:
        out = conv_bn_prelu((h, skip), w, (2, 1), (2, 2), (0, 1), (2 * f, t), *vec, running, True)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.parents[0] is h and out.parents[1] is skip
    assert kept < 2 * out_bytes + _BAND_BYTES, kept


def test_conv_pair_rejections():
    # Only a transposed conv reads a pair, and its maps differ only in channels.
    rng = _rng(106)
    h = Tensor(rng.standard_normal((2, 2, 4, 3)))
    w = Tensor(rng.standard_normal((4, 8, 5, 2)))
    with pytest.raises(ValueError, match="only a transposed conv"):
        conv2d((h, h), w, (2, 1), (2, 2), (1, 0))
    with pytest.raises(ValueError, match="differ beyond the channel axis"):
        conv2d((h, Tensor(rng.standard_normal((2, 2, 4, 4)))), w, (2, 1), (2, 2), (0, 1), (8, 3))


def _send_conv(conn, x, w):
    from neurobeam.layers import conv2d_raw

    conn.send(conv2d_raw(x, w, (2, 1), (2, 2), (1, 0)).tobytes())
    conn.close()


def test_forked_child_gets_a_worker_of_its_own(tmp_path, monkeypatch):
    # After a kernel call has started the worker thread, a forked child
    # (which has no such thread) still runs a split kernel call to the
    # parent's bits, and forked synthesis workers write the serial records.
    import multiprocessing

    from neurobeam import layers
    from neurobeam.config import config_from_dict
    from neurobeam.layers import conv2d_raw
    from neurobeam.roomsim import generate_dataset

    from conftest import toy_config_dict

    rng = _rng(95)
    x = rng.standard_normal((1, 3, 64, 40))
    w = rng.standard_normal((5, 3, 5, 2))
    monkeypatch.setattr(layers, "_WORKERS", 2)
    monkeypatch.setattr(layers, "_BAND_BYTES", 4 * 3 * 5 * 2 * 40 * x.itemsize)  # 8 bands
    want = conv2d_raw(x, w, (2, 1), (2, 2), (1, 0)).tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_conv, args=(send, x, w))
    child.start()
    try:
        assert recv.poll(60), "the forked child's kernel call did not finish"
        assert recv.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0

    cfg = config_from_dict(toy_config_dict()).dataset_config()
    generate_dataset(cfg, 2, tmp_path / "serial", threads=1)
    generate_dataset(cfg, 2, tmp_path / "forked", threads=2)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert len(names) == 5
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes()


@pytest.mark.parametrize("affinity, cpus, want", [
    ({0}, 8, 1), ({0, 1, 2}, 1, 2), (None, 1, 1), (None, None, 1), (None, 8, 2),
])
def test_worker_count_falls_back_where_the_os_has_no_affinity(monkeypatch, affinity, cpus,
                                                               want):
    # macOS has no os.sched_getaffinity; the count then reads os.cpu_count(),
    # which may be None. Either way it asks for at most two workers.
    from types import SimpleNamespace

    from neurobeam import layers

    fake = SimpleNamespace(cpu_count=lambda: cpus)
    if affinity is not None:
        fake.sched_getaffinity = lambda pid: affinity
    monkeypatch.setattr(layers, "os", fake)
    assert layers._worker_count() == want


# ---------------------------------------------------------------------------
# the fused conv block (conv -> batch norm -> PReLU) / prelu / magnitude
# ---------------------------------------------------------------------------

class _BatchNormParams:
    """A complex batch norm's parameters and running statistics, each
    [2 x C] (r, i) as a conv block holds them."""

    def __init__(self, channels, dtype):
        self.vectors = {
            name: Tensor(np.full((2, channels), init, dtype=dtype))
            for name, init in (("gamma", 1.0), ("beta", 0.0))
        }
        self.running_mean = np.zeros((2, channels), dtype=dtype)
        self.running_var = np.ones((2, channels), dtype=dtype)

    def params(self):
        return self.vectors

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}


def _norm_only(x, bn, training):
    """Complex batch norm alone: the fused block with an identity 1x1 conv
    and unit PReLU slopes, both of which are exact. The conv reads the map
    ``x`` [P x C x F x T] as [1 x PC x F x T]."""
    width = x.shape[0] * x.shape[1]
    w = ad.constant(np.eye(width, dtype=x.dtype).reshape(width, width, 1, 1))
    p = bn.params()
    slope = ad.constant(np.ones(width, dtype=x.dtype))
    return conv_bn_prelu(
        x, w, (1, 1), (0, 0), (0, 0), None, p["gamma"], p["beta"], slope,
        (bn.running_mean, bn.running_var), training,
    )


def test_batchnorm_output_is_standardized(rng):
    bn = _BatchNormParams(3, np.float64)
    x = _complex_from(_rng(10), (3, 6, 5))
    out = _norm_only(x, bn, training=True)
    for part in out.data:
        assert np.abs(part.mean(axis=(1, 2))).max() < 1e-6
        assert np.abs(part.var(axis=(1, 2)) - 1.0).max() < 1e-3


def test_batchnorm_standardized_input_unchanged():
    bn = _BatchNormParams(2, np.float64)
    g = _rng(11)
    raw = g.standard_normal((2, 8, 7))
    raw -= raw.mean(axis=(1, 2), keepdims=True)
    raw /= raw.std(axis=(1, 2), keepdims=True)
    x = Tensor(np.stack([raw, raw]))
    out = _norm_only(x, bn, training=True)
    assert np.allclose(out.data[0], raw, atol=1e-4)


def test_batchnorm_constant_input_zero_before_affine():
    bn = _BatchNormParams(2, np.float64)
    x = Tensor(np.stack([np.full((2, 4, 4), 3.0), np.full((2, 4, 4), -1.0)]))
    out = _norm_only(x, bn, training=True)
    assert np.abs(out.data).max() < 1e-10


def test_batchnorm_eval_uses_running_stats():
    bn = _BatchNormParams(2, np.float64)
    g = _rng(12)
    x = _complex_from(g, (2, 6, 5))
    for _ in range(200):  # converge the running averages
        _norm_only(x, bn, training=True)
    train_out = _norm_only(x, bn, training=True)
    eval_out = _norm_only(x, bn, training=False)
    assert np.allclose(eval_out.data[0], train_out.data[0], atol=1e-3)
    # Eval mode must not depend on the batch itself.
    y = _complex_from(g, (2, 6, 5))
    before = bn.running_mean.copy()
    _norm_only(y, bn, training=False)
    assert np.array_equal(bn.running_mean, before)


def _composite_batchnorm(t, gamma, beta, rmean, rvar, training, eps=1e-5, momentum=0.1):
    """Reference: per-channel batch norm composed from autodiff primitives."""
    channels = gamma.shape[0]
    cshape = (1, channels, 1, 1)
    if training:
        mu = reduce_mean(t, axis=(0, 2, 3), keepdims=True)
        centered = t - mu
        var = reduce_mean(centered * centered, axis=(0, 2, 3), keepdims=True)
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
@pytest.mark.parametrize("parts", [1, 2])
def test_fused_batchnorm_matches_composite_formula(parts, dtype):
    # The op reads a map [P x C x F x T] as [1 x PC x F x T]: a complex map
    # of 3 channels (P = 2) and a real map of 6 (P = 1) hold the same six
    # channels, which the composite reference normalizes one part at a time.
    g = _rng(30 + parts)
    c, shape = 3, (3, 6, 5)
    bn = _BatchNormParams(c, dtype)
    for p in bn.params().values():
        p.data = (p.data + 0.2 * g.standard_normal((2, c))).astype(dtype)
    # The composite reference runs per part, on the r and i rows.
    ref_params = {f"{k}_{part}": Tensor(p.data[n].copy())
                  for k, p in bn.params().items() for n, part in enumerate("ri")}
    ref_buffers = {f"{k}_{part}": b[n].copy()
                   for k, b in bn.buffers().items() for n, part in enumerate("ri")}

    def close(have, want):
        assert have.dtype == dtype
        tol = 200 * np.finfo(dtype).eps
        assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)

    for training in (True, True, False):
        arrays = [(2.0 + 3.0 * g.standard_normal(shape)).astype(dtype) for _ in range(2)]
        weight = g.standard_normal((2,) + shape).astype(dtype)
        x = Tensor(np.stack(arrays).reshape((parts, -1) + shape[1:]))
        out = _norm_only(x, bn, training)
        backward(ad.reduce_sum(out * ad.constant(weight.reshape(x.shape))))
        refs = []
        for part, arr, w in (("r", arrays[0], weight[0]), ("i", arrays[1], weight[1])):
            t = Tensor(arr[np.newaxis].copy())
            y = _composite_batchnorm(
                t, ref_params[f"gamma_{part}"], ref_params[f"beta_{part}"],
                ref_buffers[f"running_mean_{part}"], ref_buffers[f"running_var_{part}"],
                training,
            )
            backward(ad.reduce_sum(y * ad.constant(w[np.newaxis])))
            refs.append((y, t))
        by_part = (2, 1) + shape
        for have, grad, (y, t) in zip(out.data.reshape(by_part), x.grad.reshape(by_part), refs):
            close(have, y.data)
            close(grad, t.grad)
        for name, b in bn.buffers().items():
            close(b, np.stack([ref_buffers[f"{name}_{part}"] for part in "ri"]))
    for name, p in bn.params().items():  # summed over the three calls
        close(p.grad, np.stack([ref_params[f"{name}_{part}"].grad for part in "ri"]))


def _deconv_input_ft(out_ft, kernel, stride, pad_f, pad_t):
    """The input size a transposed conv with output ``out_ft`` takes."""
    return tuple(
        (n + p[0] + p[1] - k) // s + 1
        for n, k, s, p in zip(out_ft, kernel, stride, (pad_f, pad_t))
    )


class _BlockCase:
    """One fused conv block and its composite reference over the same
    float64 values: conv op -> batch norm from autodiff primitives ->
    ``ad.prelu``, each fed by its own leaf tensors. The input is a map of
    ``parts`` parts (1: real, 2: complex) and 2 ``c_in`` channels in all;
    the reference normalizes the kernels' view [1 x 2 c_out x F x T]."""

    def __init__(self, rng, c_in, c_out, kernel, stride, out_ft, deconv, parts, dtype,
                 slope_sign=1.0, gamma_sign=1.0):
        kf, kt = kernel
        self.stride, self.deconv, self.dtype = stride, deconv, dtype
        self.pad_f = ((kf - 1) // 2, kf // 2)
        self.pad_t = (0, kt - 1) if deconv else (kt - 1, 0)
        if deconv:
            self.out_ft = tuple(out_ft)
            in_ft = _deconv_input_ft(out_ft, kernel, stride, self.pad_f, self.pad_t)
            w_shape = (2 * c_in, 2 * c_out, kf, kt)
        else:
            self.out_ft, in_ft = None, tuple(out_ft)
            w_shape = (2 * c_out, 2 * c_in, kf, kt)
        width = 2 * c_out
        self.arrays = {
            "x": rng.standard_normal((parts, 2 * c_in // parts) + in_ft),
            "w": 0.5 * rng.standard_normal(w_shape),
            "gamma": gamma_sign * (1.0 + 0.3 * rng.uniform(size=width)),
            "beta": 0.3 * rng.standard_normal(width),
            "slope": slope_sign * (0.1 + 0.4 * rng.uniform(size=width)),
        }
        self.running = [0.2 * rng.standard_normal(width), 0.5 + rng.uniform(size=width)]

    def leaves(self):
        return {k: Tensor(a.astype(self.dtype)) for k, a in self.arrays.items()}

    def running_copy(self):
        return [a.astype(self.dtype) for a in self.running]

    def fused(self, t, running, training):
        return conv_bn_prelu(
            t["x"], t["w"], self.stride, self.pad_f, self.pad_t, self.out_ft,
            t["gamma"], t["beta"], t["slope"], running, training,
        )

    def composite(self, t, running, training):
        h = conv2d(t["x"], t["w"], self.stride, self.pad_f, self.pad_t, self.out_ft)
        view = ad.reshape(h, (1, -1) + h.shape[2:])
        y = _composite_batchnorm(view, t["gamma"], t["beta"], *running, training)
        return ad.reshape(ad.prelu(y, t["slope"], 1), h.shape)


def _assert_close(have, want, dtype, factor=100):
    assert have.dtype == dtype
    tol = factor * np.finfo(dtype).eps
    assert np.abs(have - want).max() <= tol * (np.abs(want).max() + 1.0)


def _compare_block(case, training, weight):
    """Output, running statistics and every gradient of the fused block
    against the composite reference, under one weighted-sum loss."""
    results = []
    for make in (case.fused, case.composite):
        t, running = case.leaves(), case.running_copy()
        out = make(t, running, training)
        backward(ad.reduce_sum(out * ad.constant(weight.astype(case.dtype))))
        results.append((out, t, running))
    (out, t, running), (ref, t_ref, running_ref) = results
    _assert_close(out.data, ref.data, case.dtype)
    for have, want in zip(running, running_ref):
        _assert_close(have, want, case.dtype)
    for name in t:
        _assert_close(t[name].grad, t_ref[name].grad, case.dtype)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("deconv", [False, True])
@pytest.mark.parametrize("training", [True, False])
def test_conv_block_matches_composite_reference(training, deconv, parts, dtype):
    rng = _rng(70 + 8 * deconv + 2 * parts + training)
    case = _BlockCase(rng, 3, 2, (5, 2), (2, 1), (8, 6), deconv, parts, dtype)
    weight = rng.standard_normal((parts, 4 // parts) + ((8, 6) if deconv else (4, 6)))
    _compare_block(case, training, weight)


def test_conv_block_property_matches_composite_reference():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        c_in=st.integers(1, 3), c_out=st.integers(1, 3),
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        out_ft=st.tuples(st.integers(2, 9), st.integers(1, 7)),
        deconv=st.booleans(), training=st.booleans(), parts=st.integers(1, 2),
        slope_sign=st.sampled_from([-1.0, 1.0]), gamma_sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def check(c_in, c_out, kernel, stride, out_ft, deconv, training, parts,
              slope_sign, gamma_sign, seed):
        rng = _rng(seed)
        case = _BlockCase(rng, c_in, c_out, kernel, stride, out_ft, deconv, parts,
                          np.float64, slope_sign, gamma_sign)
        out_shape = case.fused(case.leaves(), case.running_copy(), False).shape
        _compare_block(case, training, rng.standard_normal(out_shape))

    check()


def test_conv_block_output_with_two_consumers():
    # The encoder pattern: a block's output map feeds the next conv and a
    # decoder's skip concat, whose gradients are summed into one. The block
    # overwrites the gradient it is handed, which must be its own.
    rng = _rng(80)
    case = _BlockCase(rng, 2, 3, (5, 2), (2, 1), (8, 5), False, 2, np.float64)
    w_next = Tensor(0.5 * rng.standard_normal((4, 6, 5, 2)))
    weights = [ad.constant(rng.standard_normal((2, 2, 2, 5))),
               ad.constant(rng.standard_normal((2, 6, 4, 5)))]
    grads = []
    for make in (case.fused, case.composite):
        t = case.leaves()
        h = make(t, case.running_copy(), True)
        nxt = conv2d(h, w_next, (2, 1), (2, 2), (1, 0))
        skip = ad.concat([h, h], axis=1)
        backward(ad.reduce_sum(nxt * weights[0]) + ad.reduce_sum(skip * weights[1]))
        grads.append({k: v.grad for k, v in t.items()})
    for name in grads[0]:
        _assert_close(grads[0][name], grads[1][name], np.float64)


def test_conv_block_keeps_one_map_and_eval_runs_in_place():
    # One NLM-head-sized block in float32: a training forward keeps only its
    # output map; one that cannot rebuild its standardized map from the
    # output (a zero slope, or a beta at the bound of its gamma) keeps that
    # map too, and nothing else of map size; an eval forward under no_grad
    # peaks no higher than the conv kernel does.
    import tracemalloc

    from neurobeam.layers import _BAND_BYTES, _BETA_PER_GAMMA

    rng = _rng(90)
    x = Tensor(rng.standard_normal((1, 48, 129, 957), dtype=np.float32))
    w = Tensor((0.1 * rng.standard_normal((48, 48, 5, 2))).astype(np.float32))
    running = [np.zeros(48, np.float32), np.ones(48, np.float32)]
    stride, pad_f, pad_t = (2, 1), (2, 2), (1, 0)
    out_bytes = 48 * 65 * 957 * 4
    padded_bytes = x.data.nbytes // (129 * 957) * (129 + 4) * (957 + 1)

    def run(training, beta=0.0, slope=0.25):
        vec = [Tensor(np.full(48, v, dtype=np.float32)) for v in (1.0, beta, 0.25)]
        vec[2].data[5] = slope  # one channel's
        return conv_bn_prelu(x, w, stride, pad_f, pad_t, None, *vec, running, training)

    def kept(**block):
        tracemalloc.start()
        try:
            out = run(True, **block)
            return out, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    out, one_map = kept()
    assert out._backward is not None
    assert one_map < out_bytes + _BAND_BYTES, one_map
    del out
    for block in ({"slope": 0.0}, {"slope": -0.25}, {"beta": _BETA_PER_GAMMA}):
        out, two_maps = kept(**block)
        assert 2 * out_bytes <= two_maps < 2 * out_bytes + _BAND_BYTES, (block, two_maps)
        del out

    tracemalloc.start()
    try:
        with ad.no_grad():
            out = run(False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out._backward is None
    assert peak < out_bytes + padded_bytes + _BAND_BYTES, peak


@pytest.mark.parametrize("training", [True, False])
def test_conv_block_one_map_gradients_match_two_maps_at_the_guard_bound(training, monkeypatch):
    # float32, every |beta| just below _BETA_PER_GAMMA |gamma|, where the
    # one-map backward's fold of xh = (y - beta) / gamma loses the most: its
    # gradients match those of the block that keeps xh within the
    # composite-reference tolerance. At the bound itself the block keeps xh.
    from neurobeam import layers

    bound = layers._BETA_PER_GAMMA
    rng = _rng(95 + training)
    case = _BlockCase(rng, 3, 4, (5, 2), (2, 1), (16, 24), False, 2, np.float32)
    gamma = case.arrays["gamma"] * rng.choice([-1.0, 1.0], size=8)
    case.arrays["gamma"] = gamma
    signs = rng.choice([-1.0, 1.0], size=8)
    weight = ad.constant(rng.standard_normal((2, 4, 8, 24)).astype(np.float32))

    def grads(beta_per_gamma, guard):
        case.arrays["beta"] = beta_per_gamma * np.abs(gamma) * signs
        monkeypatch.setattr(layers, "_BETA_PER_GAMMA", guard)
        t = case.leaves()
        backward(ad.reduce_sum(case.fused(t, case.running_copy(), training) * weight))
        return [leaf.grad for leaf in t.values()]

    below = 0.999 * bound
    one_map = grads(below, bound)
    for have, want in zip(one_map, grads(below, np.inf)):  # the guard passed
        assert np.array_equal(have, want)
    for have, want in zip(one_map, grads(below, 0.0)):  # 0: every block keeps xh
        _assert_close(have, want, np.float32)
    for have, want in zip(grads(bound, bound), grads(bound, 0.0)):
        assert np.array_equal(have, want)


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
    """The two weight sets (r, i) of a complex LSTM, stacked."""
    return (
        Tensor(0.4 * rng.standard_normal((2, 4 * h, d))),
        Tensor(0.4 * rng.standard_normal((2, 4 * h, h))),
        Tensor(0.1 * rng.standard_normal((2, 4 * h))),
    )


def test_lstm_causality_bit_exact():
    rng = _rng(13)
    wx, wh, b = _lstm_params(rng, 3, 4)
    x = rng.standard_normal((2, 6, 3))
    base = lstm(Tensor(x.copy()), wx, wh, b)
    for part in (0, 1):  # the real, then the imaginary part at frame 4
        x2 = x.copy()
        x2[part, 4] += 5.0
        pert = lstm(Tensor(x2), wx, wh, b)
        for have, want in zip(_halves(pert), _halves(base)):
            assert np.array_equal(have[:4], want[:4])
            assert not np.array_equal(have[4:], want[4:])


def test_lstm_zero_parameters_zero_output():
    h = 4
    wx = Tensor(np.zeros((2, 4 * h, 3)))
    wh = Tensor(np.zeros((2, 4 * h, h)))
    b = Tensor(np.zeros((2, 4 * h)))
    out = lstm(Tensor(np.random.default_rng(0).standard_normal((2, 5, 3))), wx, wh, b)
    assert out.shape == (5, 2 * h)
    assert np.all(out.data == 0)


def test_lstm_gradient_matches_finite_differences(rng):
    def build(x, wx, wh, b):
        out = lstm(x, wx, wh, b)
        return ad.reduce_sum(out * out)

    arrays = [
        rng.standard_normal((2, 3, 2)),
        0.4 * rng.standard_normal((2, 12, 2)),
        0.4 * rng.standard_normal((2, 12, 3)),
        0.1 * rng.standard_normal((2, 12)),
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
    t_len, d, h = 7, 3, 4
    x = rng.standard_normal((2, t_len, d)).astype(dtype)
    wx = (0.4 * rng.standard_normal((2, 4 * h, d))).astype(dtype)
    wh = (0.4 * rng.standard_normal((2, 4 * h, h))).astype(dtype)
    b = (0.1 * rng.standard_normal((2, 4 * h))).astype(dtype)
    out = lstm(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b))
    assert out.shape == (t_len, 2 * h) and out.dtype == dtype
    # L_k(x_s): weight set k (r, i) over part s (re, im).
    ref = [[_ref_lstm(x[s], wx[k], wh[k], b[k]) for s in (0, 1)] for k in (0, 1)]
    out_re, out_im = _halves(out)
    _close(out_re, ref[0][0] - ref[1][1], dtype)
    _close(out_im, ref[0][1] + ref[1][0], dtype)


def test_fused_lstm_gradient_matches_finite_differences(rng):
    weight = ad.constant(rng.standard_normal((3, 6)))

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
    base = cl(Tensor(x.copy()))
    x[1, 4] += 5.0  # the imaginary part at frame 4
    pert = cl(Tensor(x))
    for have, want in zip(_halves(pert), _halves(base)):
        assert np.array_equal(have[:4], want[:4])
        assert not np.array_equal(have[4:], want[4:])


def test_complex_lstm_wiring_matches_manual_combination():
    rng = _rng(14)
    cl = ComplexLSTM(3, 4, rng, np.float64)
    x_re, x_im = _complex_from(_rng(15), (5, 3)).data
    out_re, out_im = _halves(cl(Tensor(np.stack([x_re, x_im]))))
    lr, li = ((cl.wx.data[k], cl.wh.data[k], cl.b.data[k]) for k in (0, 1))
    a = _ref_lstm(x_re, *lr)
    b = _ref_lstm(x_im, *li)
    c = _ref_lstm(x_im, *lr)
    d = _ref_lstm(x_re, *li)
    _close(out_re, a - b, np.float64)
    _close(out_im, c + d, np.float64)


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
    opt2 = Adam({"p": p})
    state = opt2.state_arrays()
    fill_arrays(opt.state_arrays(), state, ("adam.",))
    assert state["adam.step"][0] == 1
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
        fill_arrays(loaded, {"a": np.zeros((3, 3))}, ())
    with pytest.raises(ValueError, match="missing"):
        fill_arrays(loaded, {"zz": np.zeros((2, 2))}, ())


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nbcp"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
