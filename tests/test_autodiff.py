import numpy as np
import pytest

from neurobeam import autodiff as ad
from neurobeam.autodiff import Tensor, backward, constant
from neurobeam.gradcheck import check_gradients

TOL = 1e-4


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    backward(ad.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_square_gradient_closed_form():
    x = Tensor(np.array([3.0]))
    backward(ad.reduce_sum(x * x))
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        backward(x)


def test_rerun_after_zero_reproduces_gradients(rng):
    x = Tensor(rng.standard_normal((3, 2)))
    y = ad.reduce_sum(ad.sigmoid(x) * x)
    backward(y)
    first = x.grad.copy()
    x.zero_grad()
    y.zero_grad()
    backward(y)
    assert np.array_equal(x.grad, first)


def test_grads_accumulate_without_zeroing(rng):
    x = Tensor(rng.standard_normal(4))
    y = ad.reduce_sum(x * x)
    backward(y)
    first = x.grad.copy()
    y.zero_grad()
    backward(y)
    assert np.allclose(x.grad, 2 * first)


def test_backward_releases_interior_grads_and_reruns(rng):
    x = Tensor(rng.standard_normal(4))
    h = ad.sigmoid(x) * x
    y = ad.reduce_sum(h)
    backward(y)
    assert h.grad is None and y.grad is None
    first = x.grad.copy()
    backward(y)
    assert np.allclose(x.grad, 2 * first)


def test_constants_are_skipped(rng):
    c = constant(rng.standard_normal(3))
    x = Tensor(rng.standard_normal(3))
    backward(ad.reduce_sum(x * c))
    assert c.grad is None
    assert np.allclose(x.grad, c.data)


def test_diamond_graph_counts_both_paths():
    x = Tensor(np.array([2.0]))
    y = x * x + x * x  # two parallel paths through the same node
    backward(ad.reduce_sum(y))
    assert x.grad[0] == pytest.approx(8.0)


def test_dtype_preserved_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = ad.sigmoid(x * 2.0 + 1.0)
    assert y.dtype == np.float32
    backward(ad.reduce_sum(y))
    assert x.grad.dtype == np.float32


def test_first_gradient_is_a_copy_in_the_tensor_dtype():
    x = Tensor(np.zeros((2, 3), dtype=np.float32))
    g = np.arange(6.0).reshape(2, 3)
    x.accumulate(g)
    g[...] = -1.0
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.arange(6.0).reshape(2, 3))
    x.accumulate(np.ones((2, 3)))
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.arange(1.0, 7.0).reshape(2, 3))


@pytest.mark.parametrize(
    "name,build,shapes",
    [
        ("add_broadcast", lambda a, b: ad.reduce_sum((a + b) * (a + b)), [(3, 4), (1, 4)]),
        ("sub", lambda a, b: ad.reduce_sum((a - b) * (a - b)), [(3, 4), (3, 4)]),
        ("mul_broadcast", lambda a, b: ad.reduce_sum(a * b), [(2, 3, 4), (3, 1)]),
        ("div", lambda a, b: ad.reduce_sum(a / (b * b + 1.0)), [(3, 3), (3, 3)]),
        ("rsub", lambda a: ad.reduce_sum((1.0 - a) * a), [(5,)]),
        ("matmul", lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [(3, 4), (4, 2)]),
        (
            "matmul_batched",
            lambda a, b: ad.reduce_sum(ad.matmul(a, b) * ad.matmul(a, b)),
            [(2, 3, 4), (4, 5)],
        ),
        ("reshape", lambda a: ad.reduce_sum(ad.reshape(a, (6,)) * ad.reshape(a, (6,))), [(2, 3)]),
        (
            "transpose",
            lambda a: ad.reduce_sum(ad.transpose(a, (1, 0, 2)) * 3.0),
            [(2, 3, 4)],
        ),
        ("sum_axis", lambda a: ad.reduce_sum(ad.reduce_sum(a, axis=1) * ad.reduce_sum(a, axis=1)), [(3, 4)]),
        (
            "sum_keepdims",
            lambda a: ad.reduce_sum(a * ad.reduce_sum(a, axis=(0, 2), keepdims=True)),
            [(2, 3, 2)],
        ),
        ("mean", lambda a: ad.reduce_mean(a * a), [(4, 5)]),
        (
            "concat",
            lambda a, b: ad.reduce_sum(ad.concat([a, b], axis=1) * ad.concat([b, a], axis=1)),
            [(2, 3), (2, 3)],
        ),
        ("narrow", lambda a: ad.reduce_sum(ad.narrow(a, 1, 1, 2) * 2.0), [(3, 4)]),
        ("sqrt", lambda a: ad.reduce_sum(ad.sqrt(a * a + 1.0)), [(3, 3)]),
        ("rdiv", lambda a: ad.reduce_sum(1.0 / (a * a + 0.5)), [(4,)]),
        ("sigmoid", lambda a: ad.reduce_sum(ad.sigmoid(a)), [(3, 4)]),
    ],
)
def test_primitive_gradients_match_finite_differences(name, build, shapes, rng):
    arrays = [rng.standard_normal(s) for s in shapes]
    assert check_gradients(build, arrays) < TOL, name


def test_sum_axis_gradient_simple(rng):
    def build(a):
        return ad.reduce_sum(ad.reduce_sum(a, axis=0) * ad.reduce_sum(a, axis=0))

    assert check_gradients(build, [rng.standard_normal((3, 4))]) < TOL


def test_prelu_gradient(rng):
    def build(x, s):
        return ad.reduce_sum(ad.prelu(x, s, 1) * ad.prelu(x, s, 1))

    x = rng.standard_normal((2, 3, 4)) + 0.1  # keep away from the kink
    s = 0.25 + 0.1 * rng.standard_normal(3)
    assert check_gradients(build, [x, s]) < TOL


def test_gradient_check_fails_a_nan_gradient_of_a_later_input(rng):
    def nan_grad(a):
        return ad.Tensor(a.data.copy(), (a,), lambda g: a.accumulate(np.full(a.shape, np.nan)))

    def build(good, bad):
        return ad.reduce_sum(good * good) + ad.reduce_sum(nan_grad(bad))

    err = check_gradients(build, [rng.standard_normal(3), rng.standard_normal(3)])
    assert not err < TOL, err


def test_unbroadcast_scalar_like(rng):
    a = Tensor(rng.standard_normal((2, 2)))
    b = Tensor(np.array(2.0))
    backward(ad.reduce_sum(a * b))
    assert b.grad.shape == ()
    assert b.grad == pytest.approx(a.data.sum())


@pytest.mark.parametrize("build, expect", [
    (lambda x, w: w * (x + x), lambda x, w: 2.0 * w),
    (lambda x, w: w * (x * x), lambda x, w: 2.0 * w * x),
    (lambda x, w: (x * x) * w + x, lambda x, w: 2.0 * x * w + 1.0),
    (lambda x, w: x - x * (x + x), lambda x, w: 1.0 - 4.0 * x),
    (lambda x, w: ad.concat([ad.narrow(x, 1, 0, 2) * ad.narrow(w, 1, 0, 2), x * x], axis=1),
     lambda x, w: 2.0 * x + np.pad(w[:, :2], ((0, 0), (0, 1)))),
    (lambda x, w: ad.transpose(x, (1, 0)) * ad.transpose(w, (1, 0)) + ad.reshape(x, (3, 2)),
     lambda x, w: w + 1.0),
], ids=["x+x", "x*x", "x*x+x", "x-x*(x+x)", "narrow", "transpose-reshape"])
def test_gradients_exact_when_one_tensor_feeds_several_inputs(build, expect):
    # Integer-valued data keeps every product and sum exact, so gradients
    # that ops hand over as owned arrays and gradients copied from views
    # must add up to the closed form bit for bit.
    xd = np.arange(1.0, 7.0).reshape(2, 3)
    wd = np.arange(2.0, 8.0).reshape(2, 3)
    x = Tensor(xd.copy())
    backward(ad.reduce_sum(build(x, constant(wd))))
    assert np.array_equal(x.grad, expect(xd, wd))
    assert np.array_equal(x.data, xd)


def test_pass_through_gradient_is_not_shared_between_inputs():
    # add and sub hand the same output gradient to both inputs; each input
    # must get its own copy, or a later contribution to one leaks into the
    # other.
    xd = np.arange(1.0, 7.0).reshape(2, 3)
    zd = xd[::-1].copy()
    w = constant(np.arange(2.0, 8.0).reshape(2, 3))
    for combine, sign in ((ad.add, 1.0), (ad.sub, -1.0)):
        x, z = Tensor(xd.copy()), Tensor(zd.copy())
        h = combine(x, z)
        loss = ad.reduce_sum(h * w) + ad.reduce_sum(x * x) + ad.reduce_sum(ad.sqrt(z * z))
        backward(loss)
        assert np.array_equal(x.grad, w.data + 2.0 * xd)
        assert np.array_equal(z.grad, sign * w.data + 1.0)


def test_reshape_and_transpose_pass_their_gradient_on_uncopied():
    # Each hands its parent a view of the gradient it owns; a later
    # contribution to the parent is added into that view.
    xd = np.arange(6.0).reshape(2, 3)
    w = constant(np.arange(1.0, 7.0).reshape(3, 2))
    x = Tensor(xd.copy())
    y = ad.transpose(ad.reshape(x, (3, 2)), (1, 0))
    backward(ad.reduce_sum(y * ad.transpose(w, (1, 0))))
    assert x.grad.base is not None  # a view, not a copy
    assert np.array_equal(x.grad, w.data.reshape(2, 3))
    x.zero_grad()
    backward(ad.reduce_sum(ad.reshape(x, (6,)) * ad.reshape(w, (6,))) + ad.reduce_sum(x * x))
    assert np.array_equal(x.grad, w.data.reshape(2, 3) + 2.0 * xd)


def test_parameter_gradient_bits_do_not_depend_on_graph_layout(rng):
    # The same loss through narrow (partial gradients into the map) and
    # through reshape (one full gradient) gives the map the same gradient
    # values; the map's data is F-ordered, and the bias gradient summed
    # from the map's gradient must not depend on which route built it.
    xd = constant(rng.standard_normal((64, 6)).astype(np.float32))
    c = rng.standard_normal((6, 64)).astype(np.float32)
    grads = []
    for route in ("narrow", "reshape"):
        b = Tensor(np.zeros((6, 1), dtype=np.float32))
        h = ad.transpose(xd, (1, 0)) + b  # [6 x 64], F-ordered data
        if route == "narrow":
            loss = (ad.reduce_sum(ad.narrow(h, 0, 0, 2) * constant(c[:2]))
                    + ad.reduce_sum(ad.narrow(h, 0, 2, 4) * constant(c[2:])))
        else:
            loss = ad.reduce_sum(ad.reshape(h, (-1,)) * constant(c.reshape(-1)))
        backward(loss)
        grads.append(b.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_no_grad_records_nothing_and_restores_recording(rng):
    x = Tensor(rng.standard_normal((2, 3)))
    with ad.no_grad():
        assert not ad.is_recording()
        y = ad.reduce_sum(ad.sigmoid(x) * x + 1.0)
        leaf = Tensor(np.ones(2))
    assert y.parents == () and y._backward is None and not y.needs_grad
    assert leaf.needs_grad  # leaves are made the same way in either mode
    assert ad.is_recording()
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.is_recording()
            raise RuntimeError("inside the block")
    assert ad.is_recording()
    z = ad.reduce_sum(ad.sigmoid(x) * x + 1.0)
    assert z.parents and z.needs_grad
    assert z.item() == y.item()
    backward(z)
    assert x.grad is not None
