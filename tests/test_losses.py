import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor, constant
from neurobeam.beamloc import filter_and_sum, splm_map
from neurobeam.dsp import StftConfig, istft
from neurobeam.gradcheck import check_gradients
from neurobeam.layers import to_complex
from neurobeam.losses import (
    BCE_EPS,
    bce_loss,
    filter_and_sum_tensor,
    si_snr,
    si_snr_loss,
    splm_map_tensor,
    synthesize_waveform,
    total_loss,
)


def test_si_snr_perfect_estimate_clamps(rng):
    s = rng.standard_normal(500)
    assert si_snr(s, s) == 60.0


def test_si_snr_scale_invariance_exact(rng):
    s = rng.standard_normal(500)
    est = s + 0.1 * rng.standard_normal(500)
    assert si_snr(2.0 * est, s) == pytest.approx(si_snr(est, s), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1e-3, 1e3), seed=st.integers(0, 10_000))
def test_si_snr_scale_invariance_property(alpha, seed):
    g = np.random.default_rng(seed)
    s = g.standard_normal(200)
    est = s + 0.3 * g.standard_normal(200)
    assert si_snr(alpha * est, s) == pytest.approx(si_snr(est, s), abs=1e-6)


def test_si_snr_orthogonal_error_is_zero_db():
    s = np.array([1.0, 0.0])
    est = np.array([1.0, 1.0])
    assert si_snr(est, s) == pytest.approx(0.0, abs=1e-9)


def test_si_snr_is_ten_log10_of_the_power_ratio():
    # DCCRN's and SI-SDR's scale: a tenth of the target's power as an
    # orthogonal error reads 10 dB (the paper's printed 20*log10 would read 20).
    s = np.array([1.0, 0.0])
    est = np.array([1.0, np.sqrt(0.1)])
    assert si_snr(est, s) == pytest.approx(10.0, abs=1e-9)


def test_si_snr_silent_reference_raises(rng):
    with pytest.raises(ValueError, match="silent"):
        si_snr(rng.standard_normal(10), np.zeros(10))


def test_si_snr_loss_is_negative_si_snr(rng):
    # One computation scores and trains, so float64 values agree exactly.
    for _ in range(5):
        s = rng.standard_normal(128)
        est = s + 0.7 * rng.standard_normal(128)
        assert si_snr_loss(Tensor(est.copy()), s).item() == -si_snr(est, s)


def test_si_snr_loss_single_estimate(rng):
    s = rng.standard_normal(64)
    e1 = s + 0.1 * rng.standard_normal(64)
    single = si_snr_loss(Tensor(e1.copy()), s).item()
    assert single == pytest.approx(-si_snr(e1, s), rel=1e-9)


def test_si_snr_loss_perfect_clamps(rng):
    s = rng.standard_normal(64)
    assert si_snr_loss(Tensor(s.copy()), s).item() == -60.0


def test_si_snr_gradient(rng):
    s = rng.standard_normal(32)

    def build(e):
        return si_snr_loss(e, s)

    assert check_gradients(build, [s + 0.4 * rng.standard_normal(32)]) < 1e-4
    assert check_gradients(build, [0.05 * s + rng.standard_normal(32)]) < 1e-4


@pytest.mark.parametrize("case", ["perfect", "orthogonal"])
def test_si_snr_loss_gradient_is_zero_where_clamped(rng, case):
    # Before the clamp, e = s reads 120 dB and an estimate orthogonal to s
    # far below -60 dB.
    s = rng.standard_normal(64)
    noise = rng.standard_normal(64)
    noise -= s * (noise @ s) / (s @ s)
    noise *= np.linalg.norm(s) / np.linalg.norm(noise)
    est = {"perfect": s.copy(), "orthogonal": noise}[case]
    e = Tensor(est.copy())
    ad.backward(si_snr_loss(e, s))
    assert abs(si_snr(est, s)) == 60.0
    assert not e.grad.any()


def test_bce_perfect_prediction_near_zero():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = bce_loss(z, constant(z)).item()
    assert 0 <= loss <= 2e-7


def test_bce_half_is_ln2():
    val = bce_loss(np.ones((1, 1)), constant(np.full((1, 1), 0.5))).item()
    assert val == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_uniform_half_is_ln2_any_truth(rng):
    z = (rng.uniform(size=(5, 4)) > 0.5).astype(float)
    val = bce_loss(z, constant(np.full((5, 4), 0.5))).item()
    assert val == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_minimum_at_truth(rng):
    z = (rng.uniform(size=(6, 3)) > 0.5).astype(float)
    best = bce_loss(z, constant(z)).item()
    for _ in range(10):
        noisy = np.clip(np.abs(z - rng.uniform(0, 0.4, size=z.shape)), 0, 1)
        assert bce_loss(z, constant(noisy)).item() >= best


def test_bce_shape_mismatch(rng):
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 3)), constant(np.zeros((3, 2))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_gradient_is_zero_exactly_outside_the_clamp(dtype):
    # The clamp to [eps, 1 - eps] passes the gradient at both ends and
    # stops it only strictly outside, where the clamped value is constant.
    eps = BCE_EPS
    p = np.array([[0.0, eps, 0.5, 1.0 - eps, 1.0]] * 2, dtype=dtype)
    z = np.array([[0.0] * 5, [1.0] * 5])
    x = Tensor(p.copy())
    ad.backward(bce_loss(z, x))
    assert x.grad.dtype == dtype
    inside = (p >= eps) & (p <= 1.0 - eps)
    assert np.array_equal(x.grad != 0, inside)
    assert inside[:, 1:4].all() and not inside[:, [0, 4]].any()
    q = np.clip(p, eps, 1.0 - eps).astype(np.float64)
    want = -(z / q - (1.0 - z) / (1.0 - q)) / p.size
    assert np.allclose(x.grad[inside], want[inside], rtol=10 * np.finfo(dtype).eps)


def test_bce_loss_of_float32_input_is_float64(rng):
    x = constant(rng.uniform(0.1, 0.9, size=(4, 3)).astype(np.float32))
    loss = bce_loss((rng.uniform(size=(4, 3)) > 0.5).astype(float), x)
    assert loss.dtype == np.float64 and loss.shape == ()


def test_total_loss_forms():
    bce = constant(np.array(0.5))
    sisnr = constant(np.array(-10.0))
    assert total_loss(bce, sisnr, 1.0).item() == pytest.approx(-9.5)
    assert total_loss(bce, sisnr, 0.0).item() == pytest.approx(0.5)


def test_total_loss_decomposition_exact(rng):
    b = float(rng.uniform(0, 2))
    s = float(rng.uniform(-40, 40))
    g = 1.0
    total = total_loss(constant(np.array(b)), constant(np.array(s)), g).item()
    assert total == b + g * s  # bitwise identical arithmetic


def test_synthesize_waveform_matches_istft(rng):
    cfg = StftConfig()
    frames = 7
    re = rng.standard_normal((frames, cfg.num_bins))
    im = rng.standard_normal((frames, cfg.num_bins))
    out = synthesize_waveform(Tensor(np.stack([re, im])), cfg)
    ref = istft((re + 1j * im)[np.newaxis], cfg, 16000).samples[0]
    assert np.array_equal(out.data, ref)


def test_synthesize_waveform_gradient_small(rng):
    cfg = StftConfig(window_length=8, hop=2, fft_size=8)

    def build(spec):
        wave = synthesize_waveform(spec, cfg)
        return ad.reduce_sum(wave * wave)

    spec = np.stack([rng.standard_normal((3, 5)), rng.standard_normal((3, 5))])
    assert check_gradients(build, [spec]) < 1e-4


def test_splm_map_tensor_zero_weights_give_zero_map_and_gradient(rng):
    steering = np.exp(2j * np.pi * rng.uniform(size=(4, 5, 3)))  # [N x F x M]
    w = Tensor(np.zeros((2, 3, 5, 2)))
    zmap = splm_map_tensor(w, steering)
    assert np.all(zmap.data == 0)
    ad.backward(ad.reduce_sum(zmap))
    assert np.all(w.grad == 0)


def test_filter_ops_forward_is_the_inference_code(rng):
    # The training ops wrap filter_and_sum and splm_map: their forwards agree bit
    # for bit, also for a record spanning several splm chunks of bins.
    m, f, t, n = 4, 257, 9, 12
    w = rng.standard_normal((2, m, f, t)).astype(np.float32)
    spec = rng.standard_normal((m, t, f)) + 1j * rng.standard_normal((m, t, f))
    steering = np.exp(2j * np.pi * rng.uniform(size=(n, f, m)))
    enhanced = filter_and_sum(w, spec)[0]
    out = filter_and_sum_tensor(Tensor(w), spec)
    assert np.array_equal(out.data, np.stack([enhanced.real, enhanced.imag]).astype(np.float32))
    zmap = splm_map_tensor(Tensor(w), steering)
    assert np.array_equal(zmap.data, splm_map(w, steering).astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_filter_stages_keep_the_bits_of_a_whole_complex_copy(rng, dtype):
    # The stages convert the filter tensor one 16-bin chunk at a time; their
    # bits are those of the same formulas on a whole C-ordered complex128
    # [M x T x F] copy: an einsum over the mics, and per chunk a matmul with
    # the steering, abs and a sum, then the chunked adjoint. 257 bins leave a
    # 1-bin last chunk.
    m, f, t, n = 4, 257, 23, 12
    w = rng.standard_normal((2, m, f, t)).astype(dtype)
    spec = rng.standard_normal((m, t, f)) + 1j * rng.standard_normal((m, t, f))
    steering = np.exp(2j * np.pi * rng.uniform(size=(n, f, m)))
    weight = rng.standard_normal((t, n)).astype(np.float32)
    whole = to_complex(w.transpose(0, 1, 3, 2))  # [M x T x F], C-ordered
    bands = [slice(f0, f0 + 16) for f0 in range(0, f, 16)]
    assert bands[-1].start == f - 1

    assert np.array_equal(filter_and_sum(w, spec)[0], np.einsum("mtf,mtf->tf", whole, spec))
    responses = [np.matmul(whole[..., b].transpose(2, 1, 0), steering[:, b].transpose(1, 2, 0))
                 for b in bands]
    expect_map = sum(np.abs(r).sum(axis=0) for r in responses) / f
    assert np.array_equal(splm_map(w, steering), expect_map)

    g = weight.astype(dtype)  # the gradient reaching the op, in its dtype
    expect = np.empty((m, f, t), dtype=np.complex128)
    for b, r in zip(bands, responses):
        mag = np.abs(r)
        unit = np.divide(r, mag, out=np.zeros_like(r), where=mag > 0)
        part = np.matmul(unit * (g / f), np.conj(steering[:, b]).transpose(1, 0, 2))
        expect[:, b] = part.transpose(2, 0, 1)
    expect_grad = np.zeros(w.shape, dtype)
    expect_grad[0] += expect.real
    expect_grad[1] += expect.imag
    wt = Tensor(w)
    ad.backward(ad.reduce_sum(splm_map_tensor(wt, steering) * constant(weight)))
    assert np.array_equal(wt.grad, expect_grad)


def test_splm_map_tensor_gradient_across_chunks(rng):
    # 37 bins make three chunks of bins, the last one partial.
    steering = np.exp(2j * np.pi * rng.uniform(size=(3, 37, 2)))  # [N x F x M]
    weight = constant(rng.standard_normal((3, 3)))

    def build(w):
        return ad.reduce_sum(splm_map_tensor(w, steering) * weight)

    assert check_gradients(build, [rng.standard_normal((2, 2, 37, 3))]) < 1e-4


def test_splm_map_tensor_memory_on_a_6s_record(rng):
    # A 6 s record of 4 mics and 12 zones: the op keeps only its [T x N]
    # map, neither complex128 filters (15.7 MB) nor the [F x T x N] steered
    # response (47 MB), and its backward builds the response one chunk of
    # bins at a time.
    import tracemalloc

    m, f, t, n = 4, 257, 957, 12
    w = Tensor(rng.standard_normal((2, m, f, t), dtype=np.float32))
    steering = np.exp(2j * np.pi * rng.uniform(size=(n, f, m)))
    weight = constant(rng.standard_normal((t, n)).astype(np.float32))
    tracemalloc.start()
    try:
        zmap = splm_map_tensor(w, steering)
        kept = tracemalloc.get_traced_memory()[0]
        ad.backward(ad.reduce_sum(zmap * weight))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.grad.shape == w.shape
    assert kept < 1e6, kept
    assert peak < 64e6, peak
