"""Reverse-mode automatic differentiation over real numpy arrays.

The engine is define-by-run: each operation returns a ``Tensor`` that
records its parent tensors and a closure mapping the output gradient to
parent gradients.  ``backward`` walks the graph once in reverse
topological order and accumulates into ``Tensor.grad``; an interior
node's gradient is released once it has been propagated, so only leaf
gradients should be read after the walk.

Complex quantities elsewhere in the package are carried as real tensors
(the stacked layout of ``layers``), so the engine itself only ever sees
real arrays.
Gradients accumulate across ``backward`` calls until explicitly cleared,
which makes a zero-then-rerun reproduce identical gradients.

Inside a ``no_grad()`` block nothing is recorded, as under
``torch.no_grad``: every op returns a ``Tensor`` with no parents, no
backward closure and ``needs_grad=False``, so each intermediate array is
freed as soon as its consumer has run and a forward pass holds no more
than its live activations. Recording resumes when the block exits, also
when it raises. The forward arithmetic is the same either way.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

# Whether ops record the graph, per thread (``no_grad`` switches it off).
_grad_mode = threading.local()


def is_recording():
    """True unless the calling thread is inside a ``no_grad()`` block."""
    return getattr(_grad_mode, "record", True)


@contextlib.contextmanager
def no_grad():
    """Run the block without recording the graph (see the module docstring)."""
    previous = is_recording()
    _grad_mode.record = False
    try:
        yield
    finally:
        _grad_mode.record = previous


class Tensor:
    """A real n-d array with a gradient slot and a backward-graph record.

    ``needs_grad`` is False for constants (inputs that no parameter can
    influence); backward skips those subgraphs entirely. An op's result
    made inside ``no_grad()`` drops its parents and closure and is a
    constant; leaves are made the same way in either mode.
    """

    __slots__ = ("data", "grad", "parents", "needs_grad", "_backward")

    def __init__(self, data, parents=(), backward=None, needs_grad=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        if parents and not is_recording():
            parents, backward, needs_grad = (), None, False
        self.parents = tuple(parents)
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents) if self.parents else True
        self.needs_grad = needs_grad
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def accumulate(self, g, index=..., owned=False):
        """Add ``g`` into ``grad[index]``.

        Every stored gradient is C-contiguous, so its memory order, which
        the summation order of a later reduction follows, depends neither
        on the data's nor on the op that handed it on. A first full-shape
        gradient is stored as it is when ``owned`` (the caller made the
        array ``g`` fresh and keeps no other reference to it, so later
        contributions may be added into it), C-contiguous and of this
        tensor's dtype; otherwise, e.g. for a transposed view or a view of
        another tensor's gradient, it is stored as a C-contiguous copy cast
        to this tensor's dtype. A first partial gradient lands in a zero
        gradient.
        """
        if self.grad is None:
            if index is ... and g.shape == self.data.shape:
                if (owned and isinstance(g, np.ndarray) and g.dtype == self.data.dtype
                        and g.flags.c_contiguous):
                    self.grad = g
                else:
                    self.grad = np.array(g, dtype=self.data.dtype, order="C")
                return
            self.grad = np.zeros(self.data.shape, self.data.dtype)
        self.grad[index] += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, needs_grad={self.needs_grad})"

    # Arithmetic sugar; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data, dtype=None):
    """Wrap an array as a non-differentiable leaf."""
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr, needs_grad=False)


def as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float64
    return constant(np.asarray(x, dtype=dtype))


def _topo_order(root):
    """Parents-before-children ordering of the subgraph that needs grads
    (``root`` last); ``backward`` walks it in reverse."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``grad`` for every leaf tensor the scalar ``loss`` depends on.

    Each interior (non-leaf) gradient is released as soon as it has been
    propagated to its parents, so after the call only leaf ``grad``s are
    set; the graph itself is kept and can be walked again. Leaf
    gradients accumulate across calls until explicitly cleared, so
    zeroing the leaves and re-running reproduces identical gradients.

    A closure owns the ``g`` it is handed and may overwrite it: ``accumulate``
    copies every gradient not marked owned, so no ``grad`` is shared, and the
    walk drops it after the call. Saved forward arrays must stay intact.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.needs_grad:
        return
    order = _topo_order(loss)
    for node in order:
        if node.parents:
            node.grad = None
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and shape operations
# ---------------------------------------------------------------------------

def add(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data + b.data

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.needs_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return Tensor(out_data, (a, b), backward_fn)


def sub(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data - b.data

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.needs_grad:
            b.accumulate(_unbroadcast(-g, b.shape), owned=True)

    return Tensor(out_data, (a, b), backward_fn)


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data * b.data

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.needs_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return Tensor(out_data, (a, b), backward_fn)


def div(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out_data = a.data / b.data

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        if b.needs_grad:
            b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return Tensor(out_data, (a, b), backward_fn)


def sqrt(a):
    """Elementwise square root; the input must stay strictly positive."""
    out_data = np.sqrt(a.data)

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g / (2.0 * out_data), owned=True)

    return Tensor(out_data, (a,), backward_fn)


def sigmoid_array(x):
    """Logistic function of a numpy array, in the overflow-free tanh form."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a):
    out_data = sigmoid_array(a.data)

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g * out_data * (1.0 - out_data), owned=True)

    return Tensor(out_data, (a,), backward_fn)


def prelu(a, slope, axis):
    """x if x > 0 else slope * x, with a learnable slope along ``axis``.

    The per-element scale (1 or the slope) is kept from the forward pass,
    so the input gradient is one product; the slope gradient is reduced
    over the contiguous blocks before and after ``axis``.
    """
    channels = slope.data.shape[0]
    bshape = [1] * a.ndim
    bshape[axis] = channels
    # Built from two masks: a broadcast np.where is several times slower.
    scale = (a.data <= 0) * slope.data.reshape(bshape)
    scale += a.data > 0
    out_data = a.data * scale

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g * scale, owned=True)
        if slope.needs_grad:
            post = int(np.prod(a.shape[axis + 1:]))
            gs = (g * np.minimum(a.data, 0)).reshape(-1, channels, post)
            slope.accumulate(gs.sum(axis=2).sum(axis=0), owned=True)

    return Tensor(out_data, (a, slope), backward_fn)


def matmul(a, b):
    out_data = a.data @ b.data

    def backward_fn(g):
        if a.needs_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate(_unbroadcast(ga, a.shape), owned=True)
        if b.needs_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate(_unbroadcast(gb, b.shape), owned=True)

    return Tensor(out_data, (a, b), backward_fn)


def reshape(a, shape):
    in_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g.reshape(in_shape), owned=True)  # a view of the g it owns

    return Tensor(out_data, (a,), backward_fn)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g.transpose(inv), owned=True)  # a view of the g it owns

    return Tensor(out_data, (a,), backward_fn)


def reduce_sum(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if a.needs_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape).copy(), owned=True)

    return Tensor(out_data, (a,), backward_fn)


def concat(parts, axis):
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.needs_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p.accumulate(g[tuple(idx)])

    return Tensor(out_data, tuple(parts), backward_fn)


def narrow(a, axis, start, length):
    """Slice ``length`` entries from ``start`` along ``axis``, as a view."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = a.data[idx]

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(g, idx)

    return Tensor(out_data, (a,), backward_fn)

