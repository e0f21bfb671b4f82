"""In-memory spans around calls into neurobeam, installed from the benchmark.

Nothing in ``src/`` knows about tracing: the benchmark replaces module
attributes (the names the calling module looks up at call time) with
wrappers that open a span, call the original and close the span. Each
span records its name, start, end, parent span and operation id. A
layer's self time is its span's duration minus the time its child spans
cover, so the self times of one operation add up to its root span.

Where a layer's backward pass is a closure on the Tensor it returns (the
LSTM op and the differentiable ISTFT), the wrapper also wraps that
closure, so backward time is attributed to the layer and not to
``autodiff.backward``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

# Spans reported per operation unit; each gets ``.self_s`` and ``.calls``.
SPAN_NAMES = (
    "training.train",
    "training.build_model",
    "training.training_step",
    "training.evaluate_records",
    "roomsim.generate_dataset",
    "roomsim.synthesize_mixture",
    "roomsim.image_source_rir",
    "roomsim.fftconvolve",
    "roomsim.speech_surrogate",
    "roomsim.interference_surrogate",
    "layers.conv2d_raw",
    "layers.conv2d_input_adjoint",
    "layers.conv2d_kernel_adjoint",
    "layers.lstm",
    "layers.lstm.backward",
    "autodiff.backward",
    *(f"model.enc{i}" for i in range(6)),
    "model.lstm",
    "model.restore",
    *(f"model.dec{i}" for i in range(6)),
    "model.nlm",
    "model.infer_weights",
    "losses.filter_and_sum_tensor",
    "losses.synthesize_waveform",
    "losses.synthesize_waveform.backward",
    "losses.si_snr_loss",
    "losses.splm_map_tensor",
    "losses.bce_loss",
    "beamloc.enhance_utterance",
    "beamloc.filter_and_sum",
    "beamloc.splm_map",
    "dsp.stft",
    "dsp.istft",
    "dsp.read_wav",
    "dsp.write_wav",
    "optim.Adam.step",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
)

CONV_KERNELS = ("conv2d_raw", "conv2d_input_adjoint", "conv2d_kernel_adjoint")

# Counts computed from call arguments, reported per operation unit:
# (name, unit, reported value per counted integer). Counting in integers
# keeps the totals exact, so they repeat under a seed.
COUNT_METRICS = (
    *((f"layers.{k}.gflop_computed", "GFLOP", 1e-9) for k in CONV_KERNELS),
    *((f"layers.{k}.gbytes_computed", "GB", 1e-9) for k in CONV_KERNELS),
    ("checkpoint.save_checkpoint.bytes", "B", 1),
    ("roomsim.image_source_rir.images", "count", 1),
)
COUNT_SCALE = {name: scale for name, _, scale in COUNT_METRICS}

# Spans whose set-up share is reported, because set-up synthesizes
# fixtures and (for ``infer``) writes and restores a checkpoint.
SETUP_SPANS = (
    "roomsim.generate_dataset",
    "roomsim.image_source_rir",
    "roomsim.fftconvolve",
    "dsp.write_wav",
    "training.train",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
)

TRACE_METRICS = (
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_s", "s"),
)


def layer_metric_units():
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["autodiff.backward.s"] = "s"
    units.update((name, unit) for name, unit, _ in COUNT_METRICS)
    units.update(TRACE_METRICS)
    units["setup.s"] = "s"
    for name in SETUP_SPANS:
        units[f"setup.{name}.self_s"] = "s"
    return units


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (op id, metric) -> integer count
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` may count."""

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def count(self, metric, value):
        self.counts[(self.op, metric)] += value

    def totals(self):
        """(op id, name) -> [self seconds, total seconds, calls]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            acc = out[(op, name)]
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class _TracedBlock:
    """Stands in for a model block: spans its calls, forwards the rest."""

    def __init__(self, tracer, name, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._inner, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def instrument_model(tracer, model):
    """Span every encoder/decoder block, the LSTM, restore and NLM head."""
    model.encoder = [
        _TracedBlock(tracer, f"model.enc{i}", b) for i, b in enumerate(model.encoder)
    ]
    model.decoder = [
        _TracedBlock(tracer, f"model.dec{i}", b) for i, b in enumerate(model.decoder)
    ]
    model.clstm = _TracedBlock(tracer, "model.lstm", model.clstm)
    model.restore = _TracedBlock(tracer, "model.restore", model.restore)
    if model.nlm is not None:
        model.nlm = _TracedBlock(tracer, "model.nlm", model.nlm)
    model.infer_weights = tracer.wrap("model.infer_weights", model.infer_weights)
    return model


def _count_conv(kernel):
    """FLOP and bytes of one real conv kernel call, computed from shapes.

    Each kernel is a sum over B x O x C x kf x kt x (output or gradient
    positions) multiply-adds; bytes are both operands plus the result.
    """

    def after(tracer, args, out):
        a, b = args[0], args[1]
        if kernel == "conv2d_raw":
            kshape, positions = b.shape, out.shape[2] * out.shape[3]
        elif kernel == "conv2d_input_adjoint":
            kshape, positions = b.shape, a.shape[2] * a.shape[3]
        else:
            kshape, positions = args[5], b.shape[2] * b.shape[3]
        flops = 2 * a.shape[0] * int(np.prod(kshape)) * positions
        tracer.count(f"layers.{kernel}.gflop_computed", flops)
        tracer.count(f"layers.{kernel}.gbytes_computed", a.nbytes + b.nbytes + out.nbytes)

    return after


def _trace_backward(name):
    def after(tracer, args, out):
        inner = out._backward
        out._backward = lambda g: tracer.call(name, inner, g)

    return after


def _count_saved_bytes(tracer, args, out):
    tracer.count("checkpoint.save_checkpoint.bytes", os.path.getsize(args[0]))


def _count_images(tracer, args, out):
    """Image sources of one ``image_source_rir`` call, as the simulator
    enumerates them: per axis, shifts n with parity p hit |n-p| + |n|
    walls, and an image is kept when its three hit counts sum to at most
    ``max_order`` (zero when the walls reflect nothing)."""
    from neurobeam.roomsim import reflection_coefficient

    room, max_order = args[0], args[3]
    if room.t60 <= 0 or reflection_coefficient(room) == 0.0:
        max_order = 0
    n = np.arange(-((max_order + 1) // 2), (max_order + 1) // 2 + 1)
    hits = np.concatenate([2 * np.abs(n), np.abs(n - 1) + np.abs(n)])
    hits = hits[hits <= max_order]
    order = hits[:, None, None] + hits[None, :, None] + hits[None, None, :]
    tracer.count("roomsim.image_source_rir.images", int(np.count_nonzero(order <= max_order)))


def install(tracer, patches):
    """Wrap the public functions of every layer the workloads call."""
    from neurobeam import autodiff, beamloc, checkpoint, layers, optim, roomsim, training

    def span(owner, attr, name, after=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    for kernel in CONV_KERNELS:
        span(layers, kernel, f"layers.{kernel}", _count_conv(kernel))
    span(layers, "lstm", "layers.lstm", _trace_backward("layers.lstm.backward"))
    span(autodiff, "backward", "autodiff.backward")
    span(optim.Adam, "step", "optim.Adam.step")

    # training imported these by name, so its namespace is the one to patch.
    for fn in ("filter_and_sum_tensor", "si_snr_loss", "splm_map_tensor", "bce_loss"):
        span(training, fn, f"losses.{fn}")
    span(training, "synthesize_waveform", "losses.synthesize_waveform",
         _trace_backward("losses.synthesize_waveform.backward"))
    span(training, "read_wav", "dsp.read_wav")
    span(training, "stft", "dsp.stft")
    span(training, "save_checkpoint", "checkpoint.save_checkpoint", _count_saved_bytes)
    span(training, "load_checkpoint", "checkpoint.load_checkpoint")
    span(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
    span(training, "enhance_utterance", "beamloc.enhance_utterance")
    span(training, "training_step", "training.training_step")
    span(training, "build_model", "training.build_model",
         lambda tracer, args, model: instrument_model(tracer, model))
    span(training, "train", "training.train")
    span(training, "evaluate_records", "training.evaluate_records")

    span(beamloc, "stft", "dsp.stft")
    span(beamloc, "istft", "dsp.istft")
    span(beamloc, "filter_and_sum", "beamloc.filter_and_sum")
    span(beamloc, "splm_map", "beamloc.splm_map")

    span(roomsim, "generate_dataset", "roomsim.generate_dataset")
    span(roomsim, "synthesize_mixture", "roomsim.synthesize_mixture")
    span(roomsim, "image_source_rir", "roomsim.image_source_rir", _count_images)
    span(roomsim, "fftconvolve", "roomsim.fftconvolve")
    span(roomsim, "speech_surrogate", "roomsim.speech_surrogate")
    span(roomsim, "interference_surrogate", "roomsim.interference_surrogate")
    span(roomsim, "write_wav", "dsp.write_wav")
