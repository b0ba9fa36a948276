"""Array primitives for the small networks: 3x3 convolution, ReLU, dense.

Every forward that participates in training has a cached variant returning
exactly what its backward needs. Kernels are (3, 3, c_in, c_out).

The 3x3 conv takes and returns bordered images: (n, h+2, w+2, c) arrays
whose outer ring of pixels is 0, the zero padding of a same-size conv kept
in place. Its outputs are channel-major, the ``transpose(1, 2, 3, 0)`` view
of a C-contiguous (c, n, h+2, w+2) buffer, and ReLU, masks and sums of such
arrays keep that layout and the ring at 0, so a network that borders its
input once runs every conv without a pad or a copy. An input in another
layout is copied to channel-major first. The output gradient handed to the
backward must have its ring at 0 too; the input gradient it returns has.

Flattened to (c, n*(h+2)*(w+2)) planes, each of the nine taps is a fixed
column offset. So the patch matrix of a run of positions is nine copies of
row slices, and one (c_out x 9 c_in) @ (9 c_in x m) product writes the
output planes directly. Ring positions read across image edges; their
outputs are set to 0 afterwards. A conv's input gradient is the same conv of
the output gradient, with the kernel flipped in both spatial axes and its
channel axes swapped.

The conv works in a bounded workspace. The forward, the input gradient and
the kernel gradient gather the patches of balanced slices of the positions,
at most ``PATCH_BUDGET_BYTES`` of patch matrix (8,320 positions of 14
channels in float64) at a time, into one buffer per pass. The cache holds
the input and the kernel, not the patches.

The forward output and ``dx`` equal those of one unsliced product bit for
bit, since each output column is the same dot product whichever slice its
position is in. That needs a BLAS that sums a column the same way wherever
it falls, which OpenBLAS does only in part. Its GEMM kernels sum the last
columns short of a full unroll, and products under about 1e6 multiply-adds,
in another order, so the slices start at multiples of ``SLICE_ALIGN``
positions, differ in size by at most that many, and none falls far below the
budget. Its matrix-vector kernel sums columns by where they fall in each
thread's share, so a one-channel output runs as a two-row GEMM with a zero
row. ``dkernel`` sums over the slices, so it equals a one-product sum only to
rounding. Against a channels-last (n*h*w, 9 c_in) @ (9 c_in, c_out) product
every result agrees only to rounding: the product is oriented the other way,
and sums some elements in another order.
"""

from __future__ import annotations

import numpy as np


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


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


# Bytes of the patch matrix the conv gathers at a time; see the module docstring.
PATCH_BUDGET_BYTES = 8 << 20

# Slices of the positions start at multiples of this many positions from the
# first, a multiple of every x86 GEMM kernel's unroll (16 positions or fewer
# in float64 and float32): a kernel then covers each position with the same
# block in a slice as in one product over all positions.
SLICE_ALIGN = 64


def _planes(x: np.ndarray, dtype) -> np.ndarray:
    """The (c, n*(h+2)*(w+2)) planes of a bordered (n, h+2, w+2, c) array in
    ``dtype``: a view when ``x`` is channel-major in that dtype already."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2), dtype=dtype).reshape(x.shape[3], -1)


def _patches(planes: np.ndarray, shape):
    """Yield (start, stop, patch matrix) over balanced slices of the positions
    of the planes of bordered images of ``shape``. Each (9*c, stop - start)
    patch matrix, rows ordered (tap, channel), is gathered into one buffer of
    at most ``PATCH_BUDGET_BYTES``. The positions run from the first interior
    pixel to the last, so every tap stays inside the planes."""
    c = planes.shape[0]
    n, hb, wb = shape[:3]
    first, end = wb + 1, n * hb * wb - wb - 1
    blocks = -(-(end - first) // SLICE_ALIGN)
    per_slice = max(1, PATCH_BUDGET_BYTES // (SLICE_ALIGN * 9 * c * planes.itemsize))
    count = -(-blocks // per_slice)
    bounds = [first + SLICE_ALIGN * (blocks * i // count) for i in range(count)] + [end]
    buf = np.empty(9 * c * SLICE_ALIGN * -(-blocks // count), dtype=planes.dtype)
    offsets = [(di - 1) * wb + dj - 1 for di in range(3) for dj in range(3)]
    for start, stop in zip(bounds, bounds[1:]):
        patches = buf[: 9 * c * (stop - start)].reshape(9, c, stop - start)
        for tap, offset in enumerate(offsets):
            patches[tap] = planes[:, start + offset : stop + offset]
        yield start, stop, patches.reshape(9 * c, stop - start)


def _correlate(planes: np.ndarray, weights: np.ndarray, shape, bias=None) -> np.ndarray:
    """Bordered channel-major (n, h+2, w+2, c_out) cross-correlation of the
    planes with ``weights`` (c_out, 9*c_in), columns ordered (tap, channel),
    plus ``bias``, with the ring set to 0."""
    c_out = weights.shape[0]
    if c_out == 1:
        # numpy runs a one-row product as a matrix-vector product; see the
        # module docstring.
        weights = np.vstack([weights, np.zeros_like(weights)])
    out = np.empty((len(weights), *shape[:3]), dtype=planes.dtype)
    flat = out.reshape(len(weights), -1)
    for start, stop, patches in _patches(planes, shape):
        rows = flat[:, start:stop]
        np.matmul(weights, patches, out=rows)
        if bias is not None:
            rows += bias[:, None]
    out[:, :, [0, -1]] = 0
    out[:, :, :, [0, -1]] = 0
    return out[:c_out].transpose(1, 2, 3, 0)


def conv2d_3x3_cached(x, kernel, bias):
    """Same-size 3x3 cross-correlation plus bias of bordered images, and the
    cache its backward needs: the input and the kernel.

    Parameters
    ----------
    x : (n, h+2, w+2, c_in), ring 0
    kernel : (3, 3, c_in, c_out)
    bias : (c_out,)

    Returns the bordered channel-major (n, h+2, w+2, c_out) output and the cache.
    """
    c_in = x.shape[3]
    if kernel.shape[:3] != (3, 3, c_in):
        raise ValueError(
            f"kernel shape {kernel.shape} incompatible with input channels {c_in}"
        )
    c_out = kernel.shape[3]
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match c_out {c_out}")
    dtype = np.result_type(x, kernel, bias)
    weights = np.ascontiguousarray(kernel.reshape(9 * c_in, c_out).T, dtype=dtype)
    return _correlate(_planes(x, dtype), weights, x.shape, bias), (x, kernel)


def conv2d_3x3_backward(cache, dout: np.ndarray, input_grad: bool = True):
    """Gradients of a cached conv: returns (dx, dkernel, dbias). ``dout`` is
    bordered like the output, ring 0; ``dx`` is bordered channel-major like
    the input. dx correlates dout with the kernel flipped in both spatial
    axes, channel axes swapped; with ``input_grad`` False it is not computed
    and returned as None."""
    x, kernel = cache
    c_in, c_out = kernel.shape[2:]
    dtype = np.result_type(x, kernel, dout)
    d_planes = _planes(dout, dtype)

    # dx first: its output is allocated before any patch buffer, so the
    # kernel gradient's gather reuses the freed one instead of growing the
    # heap (which glibc then trims back, to be faulted in again next call).
    dx = None
    if input_grad:
        flipped = kernel[::-1, ::-1].reshape(9, c_in, c_out).transpose(1, 0, 2)
        flipped = np.ascontiguousarray(flipped, dtype=dtype).reshape(c_in, 9 * c_out)
        dx = _correlate(d_planes, flipped, dout.shape)
    dkernel = sum(
        d_planes[:, start:stop] @ patches.T
        for start, stop, patches in _patches(_planes(x, dtype), x.shape)
    )
    return dx, dkernel.T.reshape(3, 3, c_in, c_out), d_planes.sum(axis=1)


def dense_cached(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """x (n, d_in) @ weight (d_in, d_out) + bias."""
    return x @ weight + bias, (x, weight)


def dense_backward(cache, dout: np.ndarray):
    x, weight = cache
    return dout @ weight.T, x.T @ dout, dout.sum(axis=0)
