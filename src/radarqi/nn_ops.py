"""Array primitives for the small networks: 3x3 convolution, ReLU, dense.

Every forward that participates in training has a cached variant returning
exactly what its backward needs. Images are batch-first channels-last,
(n, h, w, c); kernels are (3, 3, c_in, c_out). A conv's input gradient is a
conv too: the output gradient correlated with the flipped kernel.

The 3x3 conv works in a bounded workspace. Its forward and its input
gradient gather the 3x3 patches of a slice of the batch at a time, at most
``PATCH_BUDGET_BYTES`` of patch matrix (10 images of 14 channels on 28x28
in float64) or one image, and multiply each slice into one preallocated
output. A whole-batch patch matrix of 64 such images would be 51 MB: above
glibc's 32 MB mmap ceiling, so every call would map fresh pages and fault
them in. The cache holds the input and the kernel, not the patches.

The forward output and ``dx`` equal those of one whole-batch gather bit for
bit, since each output row is the same dot product whichever slice its
image is in. That needs a BLAS that sums a row the same way at every row
count; OpenBLAS hands products under about 1e6 multiply-adds to a kernel
that sums in another order, so the slices are balanced (their sizes differ
by at most one image) and none falls far below the budget. ``dkernel`` and
``dbias`` sum over the batch; ``dkernel`` is formed from one whole-batch
patch matrix of the cached input.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def softplus(x):
    """log(1 + exp(x)), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires positive inputs")
    return np.log(np.expm1(y))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x):
    return np.maximum(x, 0.0)


# Bytes of the patch matrix the conv gathers at a time; see the module docstring.
PATCH_BUDGET_BYTES = 8 << 20


def _patch_matrix(x: np.ndarray) -> np.ndarray:
    """Zero-pad by 1 and gather 3x3 patches into (n*h*w, 9*c_in)."""
    n, h, w, c = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (n,h,w,c,3,3)
    return np.moveaxis(windows, 3, 5).reshape(n * h * w, 9 * c)


def _sliced_conv(x: np.ndarray, weights: np.ndarray, dtype) -> np.ndarray:
    """The (n*h*w, c_out) product of x's patch matrix with the (9*c_in, c_out)
    ``weights``, gathered and multiplied over balanced slices of the batch."""
    n, h, w, c = x.shape
    per_slice = max(1, PATCH_BUDGET_BYTES // (h * w * 9 * c * x.itemsize))
    count = max(1, -(-n // per_slice))
    bounds = [n * i // count for i in range(count + 1)]
    out = np.empty((n * h * w, weights.shape[1]), dtype=dtype)
    for start, stop in zip(bounds, bounds[1:]):
        rows = out[start * h * w : stop * h * w]
        np.matmul(_patch_matrix(x[start:stop]), weights, out=rows)
    return out


def conv2d_3x3_cached(x, kernel, bias):
    """Same-padding 3x3 cross-correlation plus bias, and the cache its
    backward needs: the input and the kernel.

    Parameters
    ----------
    x : (n, h, w, c_in)
    kernel : (3, 3, c_in, c_out)
    bias : (c_out,)
    """
    n, h, w, c_in = x.shape
    if kernel.shape[:3] != (3, 3, c_in):
        raise ValueError(
            f"kernel shape {kernel.shape} incompatible with input channels {c_in}"
        )
    c_out = kernel.shape[3]
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match c_out {c_out}")
    out = _sliced_conv(x, kernel.reshape(9 * c_in, c_out), np.result_type(x, kernel, bias))
    out += bias
    return out.reshape(n, h, w, c_out), (x, kernel)


def conv2d_3x3_backward(cache, dout: np.ndarray, input_grad: bool = True):
    """Gradients of a cached conv: returns (dx, dkernel, dbias). dx correlates
    dout with the kernel flipped in both spatial axes, channel axes swapped;
    with ``input_grad`` False it is not computed and returned as None."""
    x, kernel = cache
    n, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    dout_flat = dout.reshape(n * h * w, c_out)

    dbias = dout_flat.sum(axis=0)
    dkernel = (_patch_matrix(x).T @ dout_flat).reshape(3, 3, c_in, c_out)
    if not input_grad:
        return None, dkernel, dbias

    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * c_out, c_in)
    dx = _sliced_conv(dout, flipped, np.result_type(dout, kernel))
    return dx.reshape(n, h, w, c_in), dkernel, dbias


def dense_cached(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """x (n, d_in) @ weight (d_in, d_out) + bias."""
    return x @ weight + bias, (x, weight)


def dense_backward(cache, dout: np.ndarray):
    x, weight = cache
    return dout @ weight.T, x.T @ dout, dout.sum(axis=0)
