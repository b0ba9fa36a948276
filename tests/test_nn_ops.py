import numpy as np
import pytest

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


def naive_conv(x, kernel, bias):
    """Offset-loop reimplementation, independent of the patch-matrix path."""
    n, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((n, h, w, c_out))
    for di in range(3):
        for dj in range(3):
            for ci in range(c_in):
                for co in range(c_out):
                    out[..., co] += padded[:, di : di + h, dj : dj + w, ci] * kernel[di, dj, ci, co]
    return out + bias


def scatter_conv_backward(cache, dout):
    """Backward that forms the patch gradients and adds each 3x3 offset back
    into a padded image, independent of the flipped-kernel path."""
    patches, kernel, (n, h, w, c_in) = cache
    c_out = kernel.shape[3]
    dout_flat = dout.reshape(n * h * w, c_out)
    dkernel = (patches.T @ dout_flat).reshape(3, 3, c_in, c_out)
    dpatches = (dout_flat @ kernel.reshape(9 * c_in, c_out).T).reshape(n, h, w, 3, 3, c_in)
    dx_padded = np.zeros((n, h + 2, w + 2, c_in))
    for i in range(3):
        for j in range(3):
            dx_padded[:, i : i + h, j : j + w, :] += dpatches[:, :, :, i, j, :]
    return dx_padded[:, 1 : h + 1, 1 : w + 1, :], dkernel, dout_flat.sum(axis=0)


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
        np.testing.assert_allclose(conv2d_3x3_cached(x, kernel, bias)[0], x + bias, atol=1e-14)

    def test_all_ones_kernel_on_constant_input(self):
        c = 0.7
        x = np.full((1, 6, 6, 1), c)
        out = conv2d_3x3_cached(x, np.ones((3, 3, 1, 1)), np.zeros(1))[0][0, :, :, 0]
        assert out[3, 3] == pytest.approx(9 * c)  # interior: all 9 taps inside
        assert out[0, 0] == pytest.approx(4 * c)  # corner: 4 taps inside, rest zero-pad
        assert out[0, 3] == pytest.approx(6 * c)  # edge: 6 taps inside

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 7, 6, 4))
        kernel = rng.normal(size=(3, 3, 4, 5))
        bias = rng.normal(size=5)
        np.testing.assert_allclose(
            conv2d_3x3_cached(x, kernel, bias)[0], naive_conv(x, kernel, bias), atol=1e-12
        )

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
        upstream = rng.normal(size=(2, 4, 4, 3))

        out, cache = conv2d_3x3_cached(x, kernel, bias)
        dx, dk, db = conv2d_3x3_backward(cache, upstream)

        def loss_of(arrs):
            return float(np.sum(conv2d_3x3_cached(arrs[0], arrs[1], arrs[2])[0] * upstream))

        fd_x = finite_difference_grad(lambda v: loss_of((v, kernel, bias)), x.copy())
        fd_k = finite_difference_grad(lambda v: loss_of((x, v, bias)), kernel.copy())
        fd_b = finite_difference_grad(lambda v: loss_of((x, kernel, v)), bias.copy())
        assert relative_grad_error(dx, fd_x) < 1e-6
        assert relative_grad_error(dk, fd_k) < 1e-6
        assert relative_grad_error(db, fd_b) < 1e-6

    @pytest.mark.parametrize("c_in, c_out", [(1, 14), (3, 5), (14, 14), (14, 1)])
    def test_matches_scatter_oracle(self, c_in, c_out):
        rng = np.random.default_rng(c_in * 100 + c_out)
        x = rng.normal(size=(3, 9, 7, c_in))
        kernel = rng.normal(size=(3, 3, c_in, c_out))
        upstream = rng.normal(size=(3, 9, 7, c_out))
        _, cache = conv2d_3x3_cached(x, kernel, rng.normal(size=c_out))

        dx, dk, db = conv2d_3x3_backward(cache, upstream)
        ref_dx, ref_dk, ref_db = scatter_conv_backward(cache, upstream)
        np.testing.assert_array_equal(dk, ref_dk)
        np.testing.assert_array_equal(db, ref_db)
        assert dx.shape == x.shape
        assert np.max(np.abs(dx - ref_dx)) <= 1e-13 * np.max(np.abs(ref_dx))

    def test_backward_runs_no_forward(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, cache = conv2d_3x3_cached(
            rng.normal(size=(2, 5, 5, 3)), rng.normal(size=(3, 3, 3, 4)), np.zeros(4)
        )

        def forbidden(*args):
            raise AssertionError("conv2d_3x3_backward called the forward")

        monkeypatch.setattr(nn_ops, "conv2d_3x3_cached", forbidden)
        conv2d_3x3_backward(cache, rng.normal(size=(2, 5, 5, 4)))


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
