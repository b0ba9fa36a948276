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
column offset, and the conv is one product per call. It gathers ``a`` of the
taps from the input and carries the other ``9/a`` on the product's output
rows: a (9/a c_out x a c_in) @ (a c_in x positions) product, whose 9/a row
blocks are then summed at their offsets into the output planes. The split
gathers the narrow side: ``a`` is the one of 1, 3 and 9 whose square is
nearest 9 c_out / c_in in ratio (:func:`taps_gathered`), which balances the
a c_in gathered rows against the 9/a c_out product rows. So a 1 -> 14 conv
gathers all 9 taps (im2col), a 14 -> 14 conv the 3 column taps of each row,
and a 14 -> 1 conv nothing: a view of the input planes feeds the product,
and 9 shifted one-channel rows are summed. Every product has at least 3
rows and 3 columns, so none runs as a matrix-vector product. Ring positions
read across image edges; their outputs are set to 0 afterwards. A conv's
input gradient is the same conv of the output gradient, with the kernel
flipped in both spatial axes and its channel axes swapped, so it picks its
own split. The kernel gradient gathers ``a`` taps of the input and the 9/a
shifts of the output gradient (zero past the planes) and takes one
(9/a c_out x positions) @ (positions x a c_in) product. The cache holds the
input and the kernel. What a conv gathers and its product share one
buffer: glibc returns a freed block at the top of the heap to the system
once it exceeds twice the largest block freed so far, so two such buffers
freed together would be faulted in again on the next call.

What is exact: each output column of a product is a dot product that no
other column enters, so the forward output and ``dx`` of an image are the
same bit for bit in any batch, as long as the BLAS sums a column the same
way wherever it falls. OpenBLAS does so only for columns in a full unroll
of its GEMM kernels: it sums the last columns short of one in another
order, and its small-product and blocked kernels disagree there too. So a
gathered matrix carries zero columns up to a multiple of ``GATHER_ALIGN``.
The view of the planes an a = 1 product takes ends in the last ring row, so
its columns short of an unroll are zeros wherever a ring row is at least as
long as the unroll (30 positions for images 28 pixels wide).
``dkernel`` and ``dbias`` sum over the positions, so they equal the sum of
per-image gradients only to rounding. Against a channels-last
(n*h*w, 9 c_in) @ (9 c_in, c_out) product every result agrees only to
rounding: the taps are summed in another order.
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


# A gathered matrix has a multiple of this many columns, which covers the
# position unroll of OpenBLAS's x86 GEMM kernels in float64 (8) and float32,
# so the BLAS sums every column the conv keeps in its full-unroll order. See
# the module docstring.
GATHER_ALIGN = 16


def taps_gathered(c_in: int, c_out: int) -> int:
    """How many of the 9 taps a conv of c_in -> c_out channels gathers from
    its input: the one of 1, 3 and 9 whose square is nearest 9 c_out / c_in
    in ratio."""
    return min((1, 3, 9), key=lambda a: abs(np.log(a * a * c_in / (9 * c_out))))


def _split(c_in: int, c_out: int, wb: int):
    """Column offsets, in planes ``wb`` wide, of the ``a`` gathered taps and
    of the 9/a carried tap groups. Tap t = 3 di + dj is gathered tap t % a of
    carried group t // a, and its offset is the sum of theirs."""
    a = taps_gathered(c_in, c_out)
    offset = [(t // 3 - 1) * wb + t % 3 - 1 for t in range(9)]
    middle = 9 // a // 2 * a
    return offset[middle : middle + a], offset[a // 2 :: a]


def _planes(x: np.ndarray, dtype) -> np.ndarray:
    """The (c, n*(h+2)*(w+2)) planes of a bordered (n, h+2, w+2, c) array in
    ``dtype``: a view when ``x`` is channel-major in that dtype already."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2), dtype=dtype).reshape(x.shape[3], -1)


def _gather(buf: np.ndarray, planes: np.ndarray, offsets, lo: int) -> np.ndarray:
    """Fill ``buf``, (len(offsets) * c, cols) with rows ordered (offset,
    channel), so that column j holds the planes at column lo + j + offset,
    zero past the planes; returns ``buf``."""
    c, size = planes.shape
    cols = buf.shape[1]
    for rows, offset in zip(buf.reshape(len(offsets), c, cols), offsets):
        start, stop = max(lo + offset, 0), min(lo + cols + offset, size)
        rows[:, : start - lo - offset] = 0
        rows[:, start - lo - offset : stop - lo - offset] = planes[:, start:stop]
        rows[:, stop - lo - offset :] = 0
    return buf


def _correlate(planes: np.ndarray, kernel: np.ndarray, shape, bias=None) -> np.ndarray:
    """Bordered channel-major (n, h+2, w+2, c_out) cross-correlation of the
    planes of bordered images of ``shape`` with ``kernel`` (3, 3, c_in,
    c_out), plus ``bias``, with the ring set to 0."""
    c_in, c_out = kernel.shape[2:]
    n, hb, wb = shape[:3]
    gathered, carried = _split(c_in, c_out, wb)
    a, k = len(gathered), len(carried)
    first, m = wb + 1, n * hb * wb - 2 * wb - 2
    lo, width = first + carried[0], m - 2 * carried[0]
    weights = kernel.reshape(k, a, c_in, c_out).transpose(0, 3, 1, 2)
    weights = np.ascontiguousarray(weights, dtype=planes.dtype).reshape(k * c_out, a * c_in)
    if a == 1:  # the product takes a view of the planes
        work = np.empty((k * c_out, width), dtype=planes.dtype)
        taps = planes[:, lo : lo + width]
    else:
        cols = -(-width // GATHER_ALIGN) * GATHER_ALIGN
        work = np.empty((k * c_out + a * c_in, cols), dtype=planes.dtype)
        taps = _gather(work[k * c_out :], planes, gathered, lo)
    blocks = np.matmul(weights, taps, out=work[: k * c_out]).reshape(k, c_out, -1)
    out = np.empty((c_out, n, hb, wb), dtype=planes.dtype)
    rows = out.reshape(c_out, -1)[:, first : first + m]
    np.add(blocks[0, :, :m], 0.0 if bias is None else bias[:, None], out=rows)
    for block, offset in zip(blocks[1:], carried[1:]):
        rows += block[:, offset - carried[0] : offset - carried[0] + m]
    out[:, :, [0, -1]] = 0
    out[:, :, :, [0, -1]] = 0
    return out.transpose(1, 2, 3, 0)


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
    return _correlate(_planes(x, dtype), kernel, x.shape, bias), (x, kernel)


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
    dx = None
    if input_grad:
        dx = _correlate(d_planes, kernel[::-1, ::-1].transpose(0, 1, 3, 2), dout.shape)

    n, hb, wb = x.shape[:3]
    gathered, carried = _split(c_in, c_out, wb)
    a, k = len(gathered), len(carried)
    lo, width = wb + 1 + carried[0], n * hb * wb - 2 * wb - 2 - 2 * carried[0]
    # One buffer holds what is gathered: the 9/a shifts of dout unless there
    # is one (a = 9), and the a taps of x unless there is one (a = 1).
    x_planes = _planes(x, dtype)
    d_rows = k * c_out if k > 1 else 0
    x_rows = a * c_in if a > 1 else 0
    work = np.empty((d_rows + x_rows, width), dtype=dtype)
    if d_rows:
        shifted = _gather(work[:d_rows], d_planes, [-offset for offset in carried], lo)
    else:
        shifted = d_planes[:, lo : lo + width]
    if x_rows:
        taps = _gather(work[d_rows:], x_planes, gathered, lo)
    else:
        taps = x_planes[:, lo : lo + width]
    dkernel = np.matmul(shifted, taps.T).reshape(k, c_out, a, c_in).transpose(0, 2, 3, 1)
    return dx, dkernel.reshape(3, 3, c_in, c_out), d_planes.sum(axis=1)


def dense_cached(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """x (n, d_in) @ weight (d_in, d_out) + bias."""
    return x @ weight + bias, (x, weight)


def dense_backward(cache, dout: np.ndarray):
    x, weight = cache
    return dout @ weight.T, x.T @ dout, dout.sum(axis=0)
