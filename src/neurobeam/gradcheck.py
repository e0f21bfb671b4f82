"""Central finite-difference gradient checks for the autodiff engine.

The numerical gradient is the independent oracle used by the test suite
and the self-check command: it never touches the analytic backward path
of the operation under test.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _central_difference(f, flat, i, step):
    """(f(x + step e_i) - f(x - step e_i)) / (2 step), perturbing ``flat[i]``
    in place and restoring it; ``f()`` reads the perturbed array."""
    orig = flat[i]
    flat[i] = orig + step
    f_hi = f()
    flat[i] = orig - step
    f_lo = f()
    flat[i] = orig
    return (f_hi - f_lo) / (2.0 * step)


def numerical_gradient(f, arrays, step=1e-5):
    """Central-difference gradients of scalar ``f(*arrays)`` per input entry.

    ``f`` must be a pure function of the given float64 arrays returning a
    python float. Returns one gradient array per input.
    """
    grads = []
    for base in arrays:
        g = np.zeros_like(base)
        flat, gflat = base.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            gflat[i] = _central_difference(lambda: f(*arrays), flat, i, step)
        grads.append(g)
    return grads


def check_gradients(build, arrays, step=1e-5):
    """Compare analytic and numerical gradients of a scalar graph.

    ``build(*tensors) -> Tensor`` constructs the scalar loss from leaf
    tensors wrapping ``arrays`` (float64). Returns the worst relative
    error over all inputs, where the error of one input array is
    ``max|analytic - numerical| / (max|numerical| + tiny)``; NaN if any
    gradient entry is NaN.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [ad.Tensor(a.copy()) for a in arrays]
    loss = build(*leaves)
    ad.backward(loss)
    analytic = [np.zeros_like(a) if t.grad is None else t.grad for a, t in zip(arrays, leaves)]

    def f(*xs):
        ts = [ad.constant(x.copy()) for x in xs]
        for t in ts:
            t.needs_grad = True
        return build(*ts).item()

    numerical = numerical_gradient(f, [a.copy() for a in arrays], step=step)
    # np.max, unlike the builtin, returns NaN if any error is NaN.
    return float(np.max([np.abs(ga - gn).max() / (np.abs(gn).max() + 1e-12)
                         for ga, gn in zip(analytic, numerical)]))

