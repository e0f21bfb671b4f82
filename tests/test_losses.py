import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor, constant
from neurobeam.dsp import Spectrogram, StftConfig, istft
from neurobeam.gradcheck import check_gradients
from neurobeam.losses import (
    bce_loss,
    si_snr,
    si_snr_loss,
    si_snr_tensor,
    splm_map_tensor,
    synthesize_waveform,
    total_loss,
)
from neurobeam.layers import ComplexTensor


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
    assert si_snr(est, s, convention="standard") == pytest.approx(0.0, abs=1e-9)
    assert si_snr(est, s, convention="printed") == pytest.approx(0.0, abs=1e-9)


def test_si_snr_printed_is_twice_standard(rng):
    s = rng.standard_normal(300)
    est = s + 0.5 * rng.standard_normal(300)
    assert si_snr(est, s, "printed") == pytest.approx(2 * si_snr(est, s, "standard"), rel=1e-9)


def test_si_snr_silent_reference_raises(rng):
    with pytest.raises(ValueError, match="silent"):
        si_snr(rng.standard_normal(10), np.zeros(10))


def test_si_snr_tensor_matches_numpy(rng):
    for _ in range(5):
        s = rng.standard_normal(128)
        est = s + 0.7 * rng.standard_normal(128)
        t = si_snr_tensor(Tensor(est.copy()), s)
        assert t.item() == pytest.approx(si_snr(est, s), rel=1e-9)


def test_si_snr_loss_batch_mean(rng):
    s = rng.standard_normal(64)
    e1 = s + 0.1 * rng.standard_normal(64)
    e2 = s + 0.9 * rng.standard_normal(64)
    single = si_snr_loss([Tensor(e1.copy())], [s]).item()
    assert single == pytest.approx(-si_snr(e1, s), rel=1e-9)
    both = si_snr_loss([Tensor(e1.copy()), Tensor(e2.copy())], [s, s]).item()
    assert both == pytest.approx(-(si_snr(e1, s) + si_snr(e2, s)) / 2, rel=1e-9)


def test_si_snr_loss_perfect_clamps(rng):
    s = rng.standard_normal(64)
    assert si_snr_loss([Tensor(s.copy())], [s]).item() == -60.0


def test_si_snr_gradient(rng):
    s = rng.standard_normal(32)

    def build(e):
        return si_snr_loss([e], [s])

    assert check_gradients(build, [s + 0.4 * rng.standard_normal(32)]) < 1e-4


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
    out = synthesize_waveform(Tensor(re.copy()), Tensor(im.copy()), cfg)
    spec = Spectrogram((re + 1j * im)[np.newaxis], cfg)
    ref = istft(spec).samples[0]
    assert np.array_equal(out.data, ref)


def test_synthesize_waveform_gradient_small(rng):
    cfg = StftConfig(window_length=8, hop=2, fft_size=8)

    def build(re, im):
        wave = synthesize_waveform(re, im, cfg)
        return ad.reduce_sum(wave * wave)

    assert check_gradients(build, [rng.standard_normal((3, 5)), rng.standard_normal((3, 5))]) < 1e-4


def test_splm_map_tensor_zero_weights_give_zero_map_and_gradient(rng):
    steering = np.exp(2j * np.pi * rng.uniform(size=(4, 5, 3)))  # [N x F x M]
    w = ComplexTensor(Tensor(np.zeros((3, 5, 2))), Tensor(np.zeros((3, 5, 2))))
    zmap = splm_map_tensor(w, steering)
    assert np.all(zmap.data == 0)
    ad.backward(ad.reduce_sum(zmap))
    assert np.all(w.re.grad == 0) and np.all(w.im.grad == 0)
