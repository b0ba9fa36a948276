import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import finite_difference_grad, relative_grad_error
from radarqi import nn_ops
from radarqi.nn_ops import (
    conv2d_3x3_backward,
    conv2d_3x3_cached,
    dense_backward,
    dense_cached,
    sigmoid,
    softplus,
    softplus_inv,
)


def border(x):
    """Zero ring around each image of an (n, h, w, c) batch, as the conv takes it."""
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))


def interior(x):
    """The (n, h, w, c) pixels inside the ring of a bordered batch."""
    return x[:, 1:-1, 1:-1, :]


def ring_is_zero(x) -> bool:
    return not (x[:, [0, -1]].any() or x[:, :, [0, -1]].any())


def nhwc_patch_matrix(x):
    """Zero-pad by 1 and gather the 3x3 patches of an (n, h, w, c) batch into
    (n*h*w, 9*c): the channels-last im2col reference layout."""
    n, h, w, c = x.shape
    windows = sliding_window_view(border(x), (3, 3), axis=(1, 2))  # (n,h,w,c,3,3)
    return np.moveaxis(windows, 3, 5).reshape(n * h * w, 9 * c)


def naive_conv(x, kernel, bias):
    """Offset-loop reimplementation on (n, h, w, c) batches, independent of
    the patch-matrix path."""
    n, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    padded = border(x)
    out = np.zeros((n, h, w, c_out))
    for di in range(3):
        for dj in range(3):
            for ci in range(c_in):
                for co in range(c_out):
                    out[..., co] += padded[:, di : di + h, dj : dj + w, ci] * kernel[di, dj, ci, co]
    return out + bias


def scatter_conv_backward(x, kernel, dout):
    """Backward on (n, h, w, c) batches that forms the patch gradients and
    adds each 3x3 offset back into a padded image, independent of the
    flipped-kernel path."""
    n, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    dout_flat = dout.reshape(n * h * w, c_out)
    dkernel = (nhwc_patch_matrix(x).T @ dout_flat).reshape(3, 3, c_in, c_out)
    dpatches = (dout_flat @ kernel.reshape(9 * c_in, c_out).T).reshape(n, h, w, 3, 3, c_in)
    dx_padded = np.zeros((n, h + 2, w + 2, c_in))
    for i in range(3):
        for j in range(3):
            dx_padded[:, i : i + h, j : j + w, :] += dpatches[:, :, :, i, j, :]
    return interior(dx_padded), dkernel, dout_flat.sum(axis=0)


def assert_close_to_scale(got, want, err_msg=""):
    """Agreement to rounding: within 1e-13 of the largest magnitude of ``want``."""
    assert got.shape == want.shape, err_msg
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), err_msg


class TestScalarOps:
    def test_softplus_inverse_round_trip(self):
        y = np.array([1e-6, 1e-4, 0.5, 3.0])
        np.testing.assert_allclose(softplus(softplus_inv(y)), y, rtol=1e-12)

    def test_softplus_positive_and_monotone(self):
        x = np.linspace(-30, 30, 101)
        s = softplus(x)
        assert np.all(s > 0)
        assert np.all(np.diff(s) > 0)

    def test_softplus_inv_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softplus_inv(np.array([0.0]))

    def test_sigmoid_matches_definition(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_sigmoid_is_softplus_derivative(self):
        x = np.array([-3.0, -0.2, 0.0, 1.7])
        fd = finite_difference_grad(lambda v: float(np.sum(softplus(v))), x.copy())
        np.testing.assert_allclose(sigmoid(x), fd, atol=1e-9)


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 5, 3))
        kernel = np.zeros((3, 3, 3, 3))
        for c in range(3):
            kernel[1, 1, c, c] = 1.0
        bias = np.array([0.1, -0.2, 0.3])
        out = conv2d_3x3_cached(border(x), kernel, bias)[0]
        np.testing.assert_allclose(interior(out), x + bias, atol=1e-14)

    def test_all_ones_kernel_on_constant_input(self):
        c = 0.7
        x = border(np.full((1, 6, 6, 1), c))
        out = interior(conv2d_3x3_cached(x, np.ones((3, 3, 1, 1)), np.zeros(1))[0])[0, :, :, 0]
        assert out[3, 3] == pytest.approx(9 * c)  # interior: all 9 taps inside
        assert out[0, 0] == pytest.approx(4 * c)  # corner: 4 taps inside, rest the ring
        assert out[0, 3] == pytest.approx(6 * c)  # edge: 6 taps inside

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 7, 6, 4))
        kernel = rng.normal(size=(3, 3, 4, 5))
        bias = rng.normal(size=5)
        out = conv2d_3x3_cached(border(x), kernel, bias)[0]
        np.testing.assert_allclose(interior(out), naive_conv(x, kernel, bias), atol=1e-12)

    def test_output_is_bordered_and_channel_major(self):
        rng = np.random.default_rng(8)
        x = border(rng.normal(size=(3, 4, 5, 2)))
        out = conv2d_3x3_cached(x, rng.normal(size=(3, 3, 2, 6)), np.ones(6))[0]
        assert out.shape == (3, 6, 7, 6)
        assert ring_is_zero(out)
        assert out.transpose(3, 0, 1, 2).flags.c_contiguous
        again = conv2d_3x3_cached(out, rng.normal(size=(3, 3, 6, 2)), np.ones(2))[0]
        assert ring_is_zero(again)

    def test_input_layout_does_not_change_the_output(self):
        rng = np.random.default_rng(9)
        x = border(rng.normal(size=(2, 5, 4, 3)))
        kernel = rng.normal(size=(3, 3, 3, 4))
        channel_major = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        np.testing.assert_array_equal(
            conv2d_3x3_cached(x, kernel, np.zeros(4))[0],
            conv2d_3x3_cached(channel_major, kernel, np.zeros(4))[0],
        )

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(10)
        x = border(rng.normal(size=(2, 5, 5, 3))).astype(np.float32)
        kernel = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        out, cache = conv2d_3x3_cached(x, kernel, np.zeros(4, np.float32))
        grads = conv2d_3x3_backward(cache, out)
        assert [a.dtype for a in (out, *grads)] == [np.float32] * 4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_3x3_cached(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 3, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            conv2d_3x3_cached(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2, 4)), np.zeros(3))


class TestConvBackward:
    def test_finite_difference_all_groups(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 4, 2))
        kernel = rng.normal(size=(3, 3, 2, 3))
        bias = rng.normal(size=3)
        upstream = border(rng.normal(size=(2, 4, 4, 3)))

        out, cache = conv2d_3x3_cached(border(x), kernel, bias)
        dx, dk, db = conv2d_3x3_backward(cache, upstream)
        assert ring_is_zero(dx)

        def loss_of(arrs):
            return float(np.sum(conv2d_3x3_cached(border(arrs[0]), arrs[1], arrs[2])[0] * upstream))

        fd_x = finite_difference_grad(lambda v: loss_of((v, kernel, bias)), x.copy())
        fd_k = finite_difference_grad(lambda v: loss_of((x, v, bias)), kernel.copy())
        fd_b = finite_difference_grad(lambda v: loss_of((x, kernel, v)), bias.copy())
        assert relative_grad_error(interior(dx), fd_x) < 1e-6
        assert relative_grad_error(dk, fd_k) < 1e-6
        assert relative_grad_error(db, fd_b) < 1e-6

    @pytest.mark.parametrize("c_in, c_out", [(1, 14), (3, 5), (14, 14), (14, 1)])
    def test_matches_scatter_oracle(self, c_in, c_out):
        rng = np.random.default_rng(c_in * 100 + c_out)
        x = rng.normal(size=(3, 9, 7, c_in))
        kernel = rng.normal(size=(3, 3, c_in, c_out))
        upstream = rng.normal(size=(3, 9, 7, c_out))
        _, cache = conv2d_3x3_cached(border(x), kernel, rng.normal(size=c_out))

        dx, dk, db = conv2d_3x3_backward(cache, border(upstream))
        ref_dx, ref_dk, ref_db = scatter_conv_backward(x, kernel, upstream)
        assert dx.shape == border(x).shape and ring_is_zero(dx)
        for name, got, want in (("dx", interior(dx), ref_dx), ("dkernel", dk, ref_dk), ("dbias", db, ref_db)):
            assert_close_to_scale(got, want, name)

    def test_backward_runs_no_forward(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, cache = conv2d_3x3_cached(
            border(rng.normal(size=(2, 5, 5, 3))), rng.normal(size=(3, 3, 3, 4)), np.zeros(4)
        )

        def forbidden(*args):
            raise AssertionError("conv2d_3x3_backward called the forward")

        monkeypatch.setattr(nn_ops, "conv2d_3x3_cached", forbidden)
        conv2d_3x3_backward(cache, border(rng.normal(size=(2, 5, 5, 4))))


def whole_batch_conv(x, kernel, bias, dout):
    """Forward output and (dx, dkernel, dbias) of (n, h, w, c) batches from one
    channels-last (n*h*w, 9*c_in) patch matrix of the whole batch each."""
    n, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    out = nhwc_patch_matrix(x) @ kernel.reshape(9 * c_in, c_out) + bias
    dout_flat = dout.reshape(n * h * w, c_out)
    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * c_out, c_in)
    dx = nhwc_patch_matrix(dout) @ flipped
    dkernel = nhwc_patch_matrix(x).T @ dout_flat
    return (
        out.reshape(n, h, w, c_out),
        dx.reshape(x.shape),
        dkernel.reshape(kernel.shape),
        dout_flat.sum(axis=0),
    )


def conv_and_grads(x, kernel, bias, dout):
    """Bordered forward output and (dx, dkernel, dbias) of the conv."""
    out, cache = conv2d_3x3_cached(x, kernel, bias)
    return (out, *conv2d_3x3_backward(cache, dout))


class TestSplitConv:
    """The conv gathers a of the 9 taps and carries 9/a on the product's rows."""

    @pytest.mark.parametrize(
        "c_in, c_out, gathered", [(1, 14, 9), (14, 14, 3), (14, 1, 1), (3, 5, 3), (1, 1, 3)]
    )
    def test_split_table(self, c_in, c_out, gathered):
        assert nn_ops.taps_gathered(c_in, c_out) == gathered

    def test_no_product_is_a_vector(self, monkeypatch):
        # a product with a single row or column runs as a matrix-vector
        # product, which sums each element in an order that depends on how
        # the threads share it
        shapes = []
        matmul = np.matmul

        def recording(a, b, *args, **kwargs):
            shapes.append((a.shape[0], b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        rng = np.random.default_rng(12)
        for c_in, c_out in [(1, 14), (14, 14), (14, 1), (3, 5), (1, 1)]:
            x = border(rng.normal(size=(2, 6, 5, c_in)))
            kernel = rng.normal(size=(3, 3, c_in, c_out))
            conv_and_grads(x, kernel, np.zeros(c_out), border(rng.normal(size=(2, 6, 5, c_out))))
        assert len(shapes) == 15  # out, dx and dkernel: one product each
        assert min(min(shape) for shape in shapes) >= 3


class TestSlicedConv:
    """A batch conv'd whole or in slices of images, as the head runs it in tiles."""

    @pytest.mark.parametrize("n", [1, 10, 11, 23])
    @pytest.mark.parametrize("c_in, c_out", [(1, 14), (14, 14), (14, 1)])
    def test_equals_a_whole_batch_gather(self, n, c_in, c_out):
        # Each image's forward output and dx are the same bit for bit in any
        # slice; dkernel and dbias sum over the slices, so agree to rounding.
        rng = np.random.default_rng(n * 1000 + c_in * 100 + c_out)
        x = border(rng.normal(size=(n, 28, 28, c_in)))
        kernel = rng.normal(size=(3, 3, c_in, c_out))
        bias = rng.normal(size=c_out)
        upstream = border(rng.normal(size=(n, 28, 28, c_out)))

        whole = conv_and_grads(x, kernel, bias, upstream)
        sliced = [
            conv_and_grads(x[i : i + 4], kernel, bias, upstream[i : i + 4]) for i in range(0, n, 4)
        ]
        for name, index in (("out", 0), ("dx", 1)):
            joined = np.concatenate([part[index] for part in sliced])
            np.testing.assert_array_equal(whole[index], joined, err_msg=name)
        for name, index in (("dkernel", 2), ("dbias", 3)):
            assert_close_to_scale(whole[index], sum(part[index] for part in sliced), name)

    @pytest.mark.parametrize("n", [1, 23])
    @pytest.mark.parametrize("c_in, c_out", [(1, 14), (14, 14), (14, 1), (3, 5), (1, 1)])
    def test_agrees_with_the_channels_last_product(self, n, c_in, c_out):
        # Every split, forward and dx: dx is the conv of dout with the flipped
        # kernel, c_out -> c_in, so it runs the split of the swapped shape.
        # The taps are summed in another order, so most elements round
        # differently in the last bits.
        rng = np.random.default_rng(n * 1000 + c_in * 100 + c_out + 7)
        x = rng.normal(size=(n, 28, 28, c_in))
        kernel = rng.normal(size=(3, 3, c_in, c_out))
        bias = rng.normal(size=c_out)
        upstream = rng.normal(size=(n, 28, 28, c_out))

        got = conv_and_grads(border(x), kernel, bias, border(upstream))
        want = whole_batch_conv(x, kernel, bias, upstream)
        for name, g, w in zip(("out", "dx", "dkernel", "dbias"), got, want):
            if name in ("out", "dx"):
                assert ring_is_zero(g), name
                g = interior(g)
            assert_close_to_scale(g, w, name)

    def test_cache_holds_the_input_and_the_kernel(self):
        rng = np.random.default_rng(5)
        x = border(rng.normal(size=(23, 28, 28, 14)))
        kernel = rng.normal(size=(3, 3, 14, 14))
        _, cache = conv2d_3x3_cached(x, kernel, np.zeros(14))
        assert len(cache) == 2 and cache[0] is x and cache[1] is kernel

    def test_without_the_input_gradient(self):
        rng = np.random.default_rng(7)
        x = border(rng.normal(size=(3, 6, 5, 1)))
        _, cache = conv2d_3x3_cached(x, rng.normal(size=(3, 3, 1, 4)), np.zeros(4))
        upstream = border(rng.normal(size=(3, 6, 5, 4)))
        dx, dk, db = conv2d_3x3_backward(cache, upstream, input_grad=False)
        _, ref_dk, ref_db = conv2d_3x3_backward(cache, upstream)
        assert dx is None
        np.testing.assert_array_equal(dk, ref_dk)
        np.testing.assert_array_equal(db, ref_db)


class TestDense:
    def test_forward_and_backward(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        out, cache = dense_cached(x, w, b)
        np.testing.assert_allclose(out, x @ w + b, atol=1e-14)

        upstream = rng.normal(size=(4, 3))
        dx, dw, db = dense_backward(cache, upstream)
        fd_w = finite_difference_grad(
            lambda v: float(np.sum((x @ v + b) * upstream)), w.copy()
        )
        fd_x = finite_difference_grad(
            lambda v: float(np.sum((v @ w + b) * upstream)), x.copy()
        )
        assert relative_grad_error(dw, fd_w) < 1e-6
        assert relative_grad_error(dx, fd_x) < 1e-6
        np.testing.assert_allclose(db, upstream.sum(axis=0), atol=1e-14)
