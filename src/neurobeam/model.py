"""The multi-channel encoder/LSTM/decoder network that emits per-channel
beamforming filters, and the auxiliary localization head.

``MimoDccrnConfig``, the config's ``model`` section, holds DCCRN's own
hyperparameters only; ``MimoDccrn.for_run`` is the one rule that sizes the
network for a run config's mics, bins and zones, in training and in every
restore (``from_meta``).

The encoder halves the frequency axis per block; the analysis spectrum of
257 bins is reconciled with that arithmetic by dropping the DC bin on the
way in (256 modeled bins) and copying the first modeled bin's weight into
the DC slot on the way out.

The emitted filter tensor is the conjugated form: applying it is a plain
(non-conjugated) product against the input spectrogram. Maps, sequences
and filters follow the layout rule of ``layers``: every block returns one
map [2 x C x F x T] (re, im), an encoder block takes one, and a decoder
block takes the pair (h, skip) of its input and its skip connection, read
in place; the filters are [2 x M x F x T].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import fill_arrays
from .layers import ComplexConvBlock, ComplexLSTM, ComplexLinear, Linear, to_complex

MAGNITUDE_EPS = 1e-12

# The only checkpoint layout read: float32 arrays, complex ones stacked
# [2 x ...], under a meta without a dtype of its own.
CHECKPOINT_SCHEMA = 4


NLM_HIDDEN = 32  # width of the NLM head's scalar MLP


@dataclass(frozen=True)
class MimoDccrnConfig:
    """DCCRN's hyperparameters, the config's ``model`` section: the encoder
    widths, the [freq, time] kernel and stride of every conv block (time
    stride 1: the decoder restores every frame) and the LSTM width; ``scale``
    divides each width (to at least 1) for desk-scale runs."""

    encoder_channels: tuple[int, ...] = field(
        default=(16, 32, 64, 128, 256, 256), metadata={"at least": 1})
    kernel: tuple[int, int] = field(default=(5, 2), metadata={"at least": 1})
    stride: tuple[int, Literal[1]] = field(default=(2, 1), metadata={"at least": 1})
    lstm_hidden: int = field(default=256, metadata={"at least": 1})
    scale: int = field(default=4, metadata={"at least": 1})

    def __post_init__(self):
        if not self.encoder_channels:
            raise ValueError("model.encoder_channels must be non-empty")

    @property
    def depth(self):
        return len(self.encoder_channels)

    @property
    def channels(self):
        return tuple(max(1, c // self.scale) for c in self.encoder_channels)

    @property
    def hidden(self):
        return max(1, self.lstm_hidden // self.scale)


def _named(method, parts):
    """{"<name>.<key>": value} over ``module.<method>()`` of (name, module) parts."""
    return {
        f"{name}.{key}": value
        for name, module in parts if module is not None and hasattr(module, method)
        for key, value in getattr(module, method)().items()
    }


def zone_scores(h, zones):
    """The NLM head's pooling as one op: the map ``h`` [2 x 2N x F x T]
    holds a pair of complex channels per zone, and a zone's score is the
    frequency mean of mag = sqrt(|pair|^2 + MAGNITUDE_EPS): [N x T]. The
    adjoint sends g/F / (2 mag) back through the four squares, 2h each."""
    f_bins, t_len = h.shape[2:]
    parts = h.data.reshape(2, zones, 2, f_bins, t_len)  # (re, im), zone, pair
    mag = np.sqrt((parts * parts).sum(axis=(0, 2)) + MAGNITUDE_EPS)  # [N x F x T]
    scale = np.asarray(1.0 / f_bins, dtype=h.dtype)

    def backward_fn(g):
        grad = ((g * scale)[:, np.newaxis] / (2.0 * mag))[np.newaxis, :, np.newaxis] * parts
        grad += grad  # d(h*h)/dh = g h + g h
        h.accumulate(grad.reshape(h.shape), owned=True)

    return Tensor(mag.sum(axis=1) * scale, (h,), backward_fn)


class NlmHead:
    """Zone probabilities from the filter tensor via a learned sound field.

    Two complex conv blocks (2N, 2N channels) read the filters as an
    M-channel complex image; ``zone_scores`` pools the 2N output channels,
    one complex pair per zone, into a score per zone and frame, and a
    shared scalar MLP (1 -> NLM_HIDDEN -> 1, sigmoid) maps each score
    into (0, 1).
    """

    def __init__(self, mics, zones, kernel, stride, rng, dtype):
        self.zones = zones
        self.block1 = ComplexConvBlock(mics, 2 * zones, kernel, stride, rng, dtype)
        self.block2 = ComplexConvBlock(2 * zones, 2 * zones, kernel, stride, rng, dtype)
        self.lin1 = Linear(1, NLM_HIDDEN, rng, dtype)
        self.mlp_slope = Tensor(np.full(NLM_HIDDEN, 0.25, dtype=dtype))
        self.lin2 = Linear(NLM_HIDDEN, 1, rng, dtype)

    def _parts(self):
        return (("block1", self.block1), ("block2", self.block2), ("lin1", self.lin1),
                ("lin2", self.lin2))

    def params(self):
        return {**_named("params", self._parts()), "mlp_slope": self.mlp_slope}

    def buffers(self):
        return _named("buffers", self._parts())

    def __call__(self, w, training):
        """w: filter image [2 x M x F x T] -> Tensor [T x N] in (0, 1)."""
        h = self.block2(self.block1(w, training), training)
        n_zones, t_len = self.zones, h.shape[3]
        flat = ad.reshape(zone_scores(h, n_zones), (n_zones * t_len, 1))
        hid = ad.prelu(self.lin1(flat), self.mlp_slope, axis=1)
        out = ad.sigmoid(self.lin2(hid))
        return ad.transpose(ad.reshape(out, (n_zones, t_len)), (1, 0))


class MimoDccrn:
    """Encoder / complex-LSTM bottleneck / decoder with skip connections."""

    def __init__(self, config, mics, bins, zones=None, seed=0, dtype=np.float32):
        """The network of ``config`` for ``mics`` channels and ``bins``
        modeled bins, with an NLM head over ``zones`` zones unless None."""
        self.config, self.mics, self.bins = config, mics, bins
        self.dtype = np.dtype(dtype)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
        chans = config.channels
        kernel, stride = config.kernel, config.stride

        self.encoder = []
        in_ch = mics
        for c in chans:
            self.encoder.append(ComplexConvBlock(in_ch, c, kernel, stride, rng, self.dtype))
            in_ch = c

        feat = chans[-1] * (bins // stride[0] ** config.depth)
        self.clstm = ComplexLSTM(feat, config.hidden, rng, self.dtype)
        self.restore = ComplexLinear(config.hidden, feat, rng, self.dtype)

        self.decoder = []
        rev = list(chans[::-1])
        outs = rev[1:] + [mics]
        for idx, (c_in, c_out) in enumerate(zip(rev, outs)):
            self.decoder.append(ComplexConvBlock(  # the last one is a bare deconv
                2 * c_in, c_out, kernel, stride, rng, self.dtype, transposed=True,
                norm=idx < len(rev) - 1,
            ))

        self.nlm = None if zones is None else NlmHead(mics, zones, kernel, stride, rng, self.dtype)

    @classmethod
    def for_run(cls, cfg, seed=0):
        """The float32 network of the run config ``cfg``: ``cfg.model`` for
        ``cfg.array.mics`` channels and every analysis bin but DC, with an
        NLM head over ``cfg.localization.zones`` zones in ``nlm`` mode only."""
        zones = cfg.localization.zones if cfg.localization.mode == "nlm" else None
        return cls(cfg.model, cfg.array.mics, cfg.stft.num_bins - 1, zones, seed)

    # -- parameter plumbing ------------------------------------------------
    def _parts(self):
        return (
            *((f"enc{i}", block) for i, block in enumerate(self.encoder)),
            ("lstm", self.clstm), ("restore", self.restore),
            *((f"dec{i}", block) for i, block in enumerate(self.decoder)),
            ("nlm", self.nlm),
        )

    def params(self):
        return _named("params", self._parts())

    def buffers(self):
        return _named("buffers", self._parts())

    # -- forward paths -------------------------------------------------------
    def forward(self, h, training=False):
        """Packed input map ``h`` [2 x M x F' x T] -> filter image
        [2 x M x F' x T]. Under ``no_grad()`` no map here outlives its last
        reader: ``h`` is rebound to each block's output (so the input goes
        once the first block has read it, unless the caller holds it), and
        each decoder block pops its skip."""
        skips = []
        for block in self.encoder:
            h = block(h, training)
            skips.append(h)

        shape = h.shape
        seq = ad.transpose(ad.reshape(h, (2, -1, shape[3])), (0, 2, 1))  # [2 x T x D], a view
        seq = self.restore(self.clstm(seq))  # [T x 2D]
        h = ad.reshape(ad.transpose(seq, (1, 0)), shape)

        for block in self.decoder:
            # [h; skip] per part, read in place: kernel-view channels
            # [h_re, skip_re, h_im, skip_im].
            h = block((h, skips.pop()), training)
        return h

    def forward_weights(self, spec_data, training=False):
        """Spectrogram array [M x T x F] -> filter tensor [2 x M x F x T].

        The filters (re, im) are full-band (DC slot copied from the first
        modeled bin) and connected to the parameter graph. A spectrogram of
        another channel count than the model's is rejected.
        """
        if len(spec_data) != self.mics:
            raise ValueError(
                f"input has {len(spec_data)} channels but the model expects {self.mics}")
        w = self.forward(pack_input(spec_data, self.bins, self.dtype), training)
        return ad.concat([ad.narrow(w, 2, 0, 1), w], axis=2)

    def infer_weights(self, spec_data):
        """Inference filters: [M x T x F] complex weights (a transposed view) from
        an eval forward run under ``autodiff.no_grad()``, so no graph is kept."""
        with ad.no_grad():
            w = self.forward_weights(spec_data, training=False)
        return to_complex(w.data).transpose(0, 2, 1)

    def localize(self, w, training=False):
        """Zone probabilities [T x N] from the filters [2 x M x F x T] of
        ``forward_weights``, which the NLM head reads as a complex image."""
        if self.nlm is None:
            raise ValueError("model was built without a neural localization head")
        return self.nlm(w, training)

    # -- persistence ---------------------------------------------------------
    def checkpoint_arrays(self):
        arrays = {f"param.{k}": p.data for k, p in self.params().items()}
        arrays.update({f"buffer.{k}": b for k, b in self.buffers().items()})
        return arrays

    def load_arrays(self, arrays):
        """Fill the parameters and buffers from checkpoint ``arrays`` (``fill_arrays``)."""
        fill_arrays(arrays, self.checkpoint_arrays(), ("param.", "buffer."))

    @classmethod
    def from_meta(cls, meta, seed=0):
        """The float32 model described by a checkpoint's ``meta``, built by
        ``for_run`` from ``RunConfig.from_meta(meta)``; a key missing, of
        the wrong type or out of range raises a ``ConfigError`` naming it."""
        from .config import RunConfig

        return cls.for_run(RunConfig.from_meta(meta), seed)


def pack_input(spec_data, bins, dtype):
    """[M x T x F] complex -> leaf map [2 x M x F' x T] (re, im).

    F' = F - 1: the DC bin is dropped so the stride-2 halving chain stays
    exact (``MimoDccrn.forward_weights`` copies the first modeled bin's
    filter into the DC slot).
    """
    spec_data = np.asarray(spec_data)
    m, t_len, f = spec_data.shape
    if f != bins + 1:
        raise ValueError(f"expected {bins + 1} analysis bins, got {f}")
    body = spec_data[:, :, 1:].transpose(0, 2, 1)
    packed = np.empty((2, m, f - 1, t_len), dtype=dtype)
    packed[0], packed[1] = body.real, body.imag
    return Tensor(packed, needs_grad=False)
