import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor
from neurobeam.checkpoint import load_checkpoint, save_checkpoint
from neurobeam.layers import to_complex
from neurobeam.model import (
    MimoDccrn,
    MimoDccrnConfig,
    pack_input,
)

# Frozen when the architecture was first built; any change to the layer
# inventory must be deliberate. Deleting the conv biases that feed a batch
# norm took 720 parameters off (624 without the NLM head).
PARAM_COUNT_DESK = 623_289       # M=4, scale=4, NLM-12
PARAM_COUNT_DESK_NO_NLM = 609_432


def desk_model(zones=12, seed=0, dtype=np.float32):
    cfg = MimoDccrnConfig(scale=4)
    return MimoDccrn(cfg, mics=4, bins=256, zones=zones or None, seed=seed, dtype=dtype)


def micro_model(seed=3, dtype=np.float64, zones=4):
    cfg = MimoDccrnConfig(encoder_channels=(16, 32, 64, 128, 256), lstm_hidden=256, scale=8)
    return MimoDccrn(cfg, mics=2, bins=32, zones=zones, seed=seed, dtype=dtype)


def random_spec(rng, mics, frames, bins=257):
    return rng.standard_normal((mics, frames, bins)) + 1j * rng.standard_normal(
        (mics, frames, bins)
    )


def filter_tensor(w, dtype):
    """Complex filters [M x T x F] -> the filter tensor [2 x M x F x T]."""
    w = w.transpose(0, 2, 1)
    return Tensor(np.stack([w.real, w.imag]).astype(dtype))


def test_config_rejects_bad_divisibility():
    # The modeled bins follow the STFT: 250 and 32 of them.
    from neurobeam.config import config_from_dict

    with pytest.raises(ValueError, match="divisible"):
        config_from_dict({"stft": {"window_length": 400, "hop": 100, "fft_size": 500}})
    with pytest.raises(ValueError, match="divisible"):
        config_from_dict({"stft": {"window_length": 64, "hop": 16, "fft_size": 64},
                          "model": {"encoder_channels": [16] * 6}})


def test_scaled_channels_and_hidden():
    cfg = MimoDccrnConfig(scale=4)
    assert cfg.channels == (4, 8, 16, 32, 64, 64)
    assert cfg.hidden == 64
    # The LSTM reads 64 channels x 4 bottleneck bins of 256 modeled bins.
    assert desk_model(zones=0).params()["lstm.wx"].shape == (2, 4 * 64, 64 * 4)


def num_parameters(model):
    return sum(int(np.prod(p.shape)) for p in model.params().values())


def test_parameter_count_regression():
    assert num_parameters(desk_model()) == PARAM_COUNT_DESK
    assert num_parameters(desk_model(zones=0)) == PARAM_COUNT_DESK_NO_NLM


def test_complex_parameters_are_stacked_and_read_without_restacking(rng):
    # Each complex parameter and running statistic is one [2 x ...] array
    # (r, i); a forward builds each block kernel as one op and reads every
    # other parameter as it is, so few op nodes of a full NLM training loss
    # are computed from parameters alone.
    from neurobeam.dsp import StftConfig
    from neurobeam.beamloc import filter_and_sum_tensor
    from neurobeam.losses import bce_loss, si_snr_loss, synthesize_waveform, total_loss

    model = MimoDccrn(MimoDccrnConfig(scale=1), mics=4, bins=256, zones=12)
    params, buffers = model.params(), model.buffers()
    assert len(params) == 64 and len(buffers) == 26
    assert all(b.shape[0] == 2 for b in buffers.values())
    assert params["lstm.wx"].shape == (2, 4 * 256, 256 * 4)
    assert params["enc0.conv.w"].shape == (2, 16, 4, 5, 2)

    stft_cfg = StftConfig()
    spec = random_spec(rng, 4, 4)
    w = model.forward_weights(spec, training=True)
    wave = synthesize_waveform(filter_and_sum_tensor(w, spec), stft_cfg)
    sisnr = si_snr_loss(wave, rng.standard_normal(wave.shape[0]))
    zhat = model.localize(w, training=True)
    loss = total_loss(bce_loss(np.eye(4, 12), zhat), sisnr, 1.0)

    from_params = {id(p) for p in params.values()}
    ops = 0
    for node in ad._topo_order(loss):  # every parent before its children
        if node.parents and all(id(p) in from_params for p in node.parents):
            from_params.add(id(node))
            ops += 1
    assert ops <= 20, ops


def test_output_shape_contract(rng):
    model = desk_model()
    for frames in (3, 17):
        w = model.infer_weights(random_spec(rng, 4, frames))
        assert w.shape == (4, frames, 257)
        assert np.all(np.isfinite(w))


def test_pack_input_stacked_layout_and_dc(rng):
    # Part 0, channel m holds the real part of mic m, part 1 its imaginary
    # part, over the bins above DC; the DC bins are left out.
    spec = random_spec(rng, 3, 5, bins=257)
    packed = pack_input(spec, 256, np.float64)
    assert packed.shape == (2, 3, 256, 5)
    assert not packed.needs_grad and packed.parents == ()
    body = spec[:, :, 1:].transpose(0, 2, 1)
    assert np.array_equal(packed.data[0], body.real)
    assert np.array_equal(packed.data[1], body.imag)
    spec[:, :, 0] += 1.0
    assert np.array_equal(pack_input(spec, 256, np.float64).data, packed.data)
    packed32 = pack_input(spec, 256, np.float32)
    assert packed32.dtype == np.float32
    assert np.array_equal(packed32.data, packed.data.astype(np.float32))


def test_pack_input_channel_count():
    # One microphone is one complex channel: a map [2 x M x F' x T].
    rng = np.random.default_rng(0)
    packed = pack_input(random_spec(rng, 1, 4), 256, np.float64)
    assert packed.shape[:2] == (2, 1)
    packed6 = pack_input(random_spec(rng, 6, 4), 256, np.float64)
    assert packed6.shape[:2] == (2, 6)


def test_first_encoder_block_reads_the_packed_leaf(rng):
    model = desk_model()
    packed = pack_input(random_spec(rng, 4, 3), 256, model.dtype)
    enc0, outputs = model.encoder[0], []

    def spy(x, training):
        outputs.append(enc0(x, training))
        return outputs[-1]

    model.encoder[0] = spy
    model.forward(packed, training=True)
    assert outputs[0].parents[0] is packed


def test_decoder_merge_reads_h_and_skip_per_part(rng):
    # The first decoder block reads the pair (h, skip) of two [2 x C x F x T]
    # maps in place: its op's parents are h and skip, and in the kernels'
    # view [1 x 4C x F x T] its input channels are [h_re, skip_re, h_im,
    # skip_im], the order schema-3 kernels were trained on, so it gives the
    # bits it gives on the built concat([h, skip]). The forward graph holds
    # neither a concat nor a narrow.
    model = desk_model(zones=0)
    seen = {}

    def spy(name, block):
        def call(x, training):
            seen[name] = (x, block(x, training))
            return seen[name][1]
        return call

    dec0 = model.decoder[0]
    model.encoder[-1] = spy("enc", model.encoder[-1])
    model.decoder[0] = spy("dec", dec0)
    out = model.forward(pack_input(random_spec(rng, 4, 3), 256, model.dtype), training=True)
    (h, skip_in), y = seen["dec"]
    skip, (c, f, t) = seen["enc"][1], seen["enc"][1].shape[1:]
    assert skip_in is skip and h.shape == skip.shape
    assert y.parents[0] is h and y.parents[1] is skip
    merged = ad.concat([h, skip], axis=1).data.reshape(1, 4 * c, f, t)
    for n, part in enumerate((h.data[0], skip.data[0], h.data[1], skip.data[1])):
        assert np.array_equal(merged[0, n * c : (n + 1) * c], part)
    with ad.no_grad():
        in_place = dec0((h, skip), training=False).data
        built = dec0(ad.concat([h, skip], axis=1), training=False).data
    assert in_place.tobytes() == built.tobytes()
    kinds = {node._backward.__qualname__.split(".")[0] for node in ad._topo_order(out)
             if node._backward is not None}
    assert "concat" not in kinds and "narrow" not in kinds


def test_dc_weight_copied_from_first_modeled_bin(rng):
    model = desk_model()
    w = model.infer_weights(random_spec(rng, 4, 4))
    assert np.array_equal(w[:, :, 0], w[:, :, 1])


def test_frequency_halving_chain(rng):
    model = desk_model()
    spec = random_spec(rng, 4, 3)
    packed = pack_input(spec, 256, model.dtype)
    expected = [128, 64, 32, 16, 8, 4]
    h = packed
    for block, freq in zip(model.encoder, expected):
        h = block(h, training=False)
        assert h.shape[2] == freq
        assert h.shape[3] == 3  # time preserved


def test_forward_rejects_wrong_channels(rng):
    model = desk_model()
    with pytest.raises(ValueError):
        model.forward_weights(random_spec(rng, 3, 4))


def test_forward_under_no_grad_keeps_no_graph(rng):
    model = desk_model(seed=4)
    spec = random_spec(rng, 4, 6)
    with ad.no_grad():
        w = model.forward_weights(spec, training=False)
        zmap = model.localize(w, training=False)
    assert w.shape == (2, 4, 257, 6)
    for out in (w, zmap):
        assert out.parents == () and out._backward is None and not out.needs_grad
    recorded = model.forward_weights(spec, training=False)
    assert recorded.parents and recorded.needs_grad
    assert np.array_equal(recorded.data, w.data)
    assert np.array_equal(model.infer_weights(spec), to_complex(w.data).transpose(0, 2, 1))


def test_no_grad_forward_frees_each_skip_once_its_decoder_block_returns(rng):
    # Each decoder block pops its skip, so under no_grad() an encoder map
    # is dead once the block that reads it has returned: here, when the
    # next block starts, and all of them when the forward returns.
    import weakref

    model = desk_model(zones=0)
    maps, dead = [], []

    def encoder_spy(block):
        def call(x, training):
            out = block(x, training)
            maps.append(weakref.ref(out.data))
            return out
        return call

    def decoder_spy(index, block):
        def call(pair, training):
            # decoder block k reads the skip of encoder block depth - 1 - k
            dead.append([ref() is None for ref in maps[::-1][:index]])
            return block(pair, training)
        return call

    model.encoder = [encoder_spy(b) for b in model.encoder]
    model.decoder = [decoder_spy(i, b) for i, b in enumerate(model.decoder)]
    with ad.no_grad():
        model.forward(pack_input(random_spec(rng, 4, 3), 256, model.dtype))
    assert dead == [[True] * i for i in range(len(model.decoder))]
    assert all(ref() is None for ref in maps)


def test_causality_of_weights(rng):
    model = desk_model(seed=5)
    frames = 12
    spec = random_spec(rng, 4, frames)
    base = model.infer_weights(spec)
    for t in (0, 4, 9):
        spec2 = spec.copy()
        spec2[:, t + 1 :, :] += 3.0 + 1.0j
        pert = model.infer_weights(spec2)
        assert np.array_equal(base[:, : t + 1, :], pert[:, : t + 1, :])
        assert not np.array_equal(base[:, t + 1 :, :], pert[:, t + 1 :, :])


def test_skip_connections_carry_encoder_features(rng):
    model = desk_model(zones=0, seed=2)
    # Zero every decoder parameter, then restore only the kernel block of
    # the final deconv that reads the skip half of its input channels.
    for i, block in enumerate(model.decoder):
        for p in block.params().values():
            p.data[...] = 0.0
    last = model.decoder[-1]
    in_ch = last.w.shape[1]
    skip_half = slice(in_ch // 2, in_ch)
    g = np.random.default_rng(9)
    last.w.data[0, skip_half] = g.standard_normal(last.w.data[0, skip_half].shape).astype(
        model.dtype
    )
    w = model.infer_weights(random_spec(rng, 4, 4))
    assert np.abs(w).max() > 0


def test_nlm_output_shape_and_range(rng):
    model = desk_model(zones=12)
    w = model.infer_weights(random_spec(rng, 4, 6))
    z = model.localize(filter_tensor(w, model.dtype), training=False)
    assert z.shape == (6, 12)
    assert np.all(z.data > 0) and np.all(z.data < 1)


def test_nlm_causality(rng):
    model = desk_model(zones=12, seed=7)
    spec = random_spec(rng, 4, 10)
    w = model.infer_weights(spec)

    def zmap(weights):
        return model.localize(filter_tensor(weights, model.dtype), training=False).data

    base = zmap(w)
    t = 5
    w2 = w.copy()
    w2[:, t + 1 :, :] += 1.0 - 2.0j
    pert = zmap(w2)
    assert np.array_equal(base[: t + 1], pert[: t + 1])


def test_localize_without_head_raises(rng):
    model = desk_model(zones=0)
    w = Tensor(np.zeros((2, 4, 257, 3), dtype=model.dtype))
    with pytest.raises(ValueError, match="without a neural localization head"):
        model.localize(w)


def test_checkpoint_roundtrip_preserves_outputs(tmp_path, rng):
    from neurobeam.config import RunConfig
    from neurobeam.training import build_model, checkpoint_meta

    cfg = RunConfig()
    model = build_model(cfg, seed=11)  # the desk model
    spec = random_spec(rng, 4, 5)
    before = model.infer_weights(spec)
    path = tmp_path / "m.nbcp"
    save_checkpoint(path, model.checkpoint_arrays(), checkpoint_meta(cfg, 0))
    arrays, meta = load_checkpoint(path)
    clone = MimoDccrn.from_meta(meta, seed=99)  # different init, overwritten by load
    clone.load_arrays(arrays)
    after = clone.infer_weights(spec)
    assert np.array_equal(before, after)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    model = desk_model(seed=1)
    path = tmp_path / "m.nbcp"
    save_checkpoint(path, model.checkpoint_arrays())
    arrays, _ = load_checkpoint(path)
    other = MimoDccrn(MimoDccrnConfig(scale=4), mics=6, bins=256, zones=12)
    with pytest.raises(ValueError, match="shape|missing"):
        other.load_arrays(arrays)


def test_seeded_init_is_deterministic(rng):
    a = desk_model(seed=21)
    b = desk_model(seed=21)
    for (ka, pa), (kb, pb) in zip(a.params().items(), b.params().items()):
        assert ka == kb
        assert np.array_equal(pa.data, pb.data)
    c = desk_model(seed=22)
    assert not all(
        np.array_equal(p.data, q.data)
        for p, q in zip(a.params().values(), c.params().values())
    )
