"""Array primitives for the small networks: 3x3 convolution, ReLU, dense.

Every forward that participates in training has a cached variant returning
exactly what its backward needs. Images are batch-first channels-last,
(n, h, w, c); kernels are (3, 3, c_in, c_out). A conv's input gradient is a
conv too: the output gradient correlated with the flipped kernel.
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


def _patch_matrix(x: np.ndarray) -> np.ndarray:
    """Zero-pad by 1 and gather 3x3 patches into (n*h*w, 9*c_in)."""
    n, h, w, c = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (n,h,w,c,3,3)
    return np.moveaxis(windows, 3, 5).reshape(n * h * w, 9 * c)


def conv2d_3x3_cached(x, kernel, bias):
    """Same-padding 3x3 cross-correlation plus bias, and the cache its
    backward needs.

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
    patches = _patch_matrix(x)
    out = patches @ kernel.reshape(9 * c_in, c_out) + bias
    cache = (patches, kernel, (n, h, w, c_in))
    return out.reshape(n, h, w, c_out), cache


def conv2d_3x3_backward(cache, dout: np.ndarray):
    """Gradients of a cached conv: returns (dx, dkernel, dbias). dx correlates
    dout with the kernel flipped in both spatial axes, channel axes swapped."""
    patches, kernel, (n, h, w, c_in) = cache
    c_out = kernel.shape[3]
    dout_flat = dout.reshape(n * h * w, c_out)

    dbias = dout_flat.sum(axis=0)
    dkernel = (patches.T @ dout_flat).reshape(3, 3, c_in, c_out)

    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * c_out, c_in)
    dx = _patch_matrix(dout) @ flipped
    return dx.reshape(n, h, w, c_in), dkernel, dbias


def dense_cached(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """x (n, d_in) @ weight (d_in, d_out) + bias."""
    return x @ weight + bias, (x, weight)


def dense_backward(cache, dout: np.ndarray):
    x, weight = cache
    return dout @ weight.T, x.T @ dout, dout.sum(axis=0)
