"""Reconstruction networks: the unrolled solver with a refinement head, and
a fully-connected baseline.

``LFistaResNet`` runs a fixed number of unrolled accelerated-shrinkage
blocks, the first iterations of :func:`~radarqi.fista.fista_iterates` with
the nonnegative shrink (a ReLU with a learnable threshold and a learnable
step per block), and refines the coarse image with a small residual
convolution head. With ``frozen_blocks=True`` the block scalars are pinned
to their physics-derived values (step 1/lmax, threshold lam/lmax,
recomputed from whatever operator the forward pass is given), which is the
non-learned ablation of the same architecture: that network holds no block
parameters, only the head's. Neither pass forms the P x P ``Re(A^H A)``:
the blocks take their step from ``fista_iterates``' range residual on the
operator's low-rank factor, and the backward pass through them applies
``Re(A^H A)`` through ``ImagingOperator.normal``, two thin products with
that factor. A block's step gradient comes from the step-scaled residual it
keeps: the step taken, divided by the block's (positive) step size.

The head runs depth-first over tiles of a few images: ``_head`` takes each
tile through every layer before the next tile starts, so a tile's
activations stay in cache, and the blocks one tile frees are the sizes the
next one asks for, which malloc hands back instead of new pages. A tile
holds as many images as keep one activation of the head's widest layer
within ``HEAD_TILE_BYTES`` (7 images of 14 channels at 28x28 in float64),
and this is the one bound on the head's workspace. The tile is the only
place a batch is split: the unrolled blocks run on the whole batch, and
each tile's output goes into its rows of one (n, P) array.
``forward_cached`` keeps one cache per tile in ``cache["head"]``;
``backward`` runs each tile back in turn, sums the kernel and bias
gradients over the tiles and writes each tile's input gradient into its
rows of one (n, P) array.

Within a tile the head runs on bordered images, as :mod:`~radarqi.nn_ops`
describes: the coarse maps are bordered once into (n, side+2, side+2, 1)
images with a zero outer ring and the tail's output is cropped once, and
the backward borders the output gradient once and crops the head's input
gradient once. In between, every conv, ReLU, mask and residual sum keeps
the channel-major layout and the ring at 0, and each ReLU and residual sum
runs in place on the conv output it consumes, so no activation is padded or
copied. An image's head output is the same bit for bit whichever tile it
falls in (a batch-1 tile included), where the BLAS computes a product's
column alike wherever it falls (see :mod:`~radarqi.nn_ops`); the kernel
gradients sum over tiles, so they equal the sum of per-image gradients to
rounding. A single echo's full output agrees with its row of a batch only to
rounding (the tests bound it by 1e-12 of the output's scale): the unrolled
blocks run a single echo as matrix-vector products.

All gradients are exact reverse-mode, written out by hand; parameters live
in a name-to-array dict so the optimizer and checkpoints stay model-agnostic.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergedError
from .fista import ImagingOperator, fista_iterates, momentum_coeffs, nonneg_shrink
from .nn_ops import (
    conv2d_3x3_backward,
    conv2d_3x3_cached,
    dense_backward,
    dense_cached,
    relu,
    sigmoid,
    softplus,
    softplus_inv,
)

# Bytes of one activation of the head's widest layer in a tile of images: 7
# images of 14 channels at 28x28 in float64. The head's tile is the only
# place a batch is split; see the module docstring.
HEAD_TILE_BYTES = 3 << 18


def bordered(maps: np.ndarray, side: int) -> np.ndarray:
    """(n, side**2) maps as the (n, side+2, side+2, 1) images the convs take:
    zero ring, channel-major."""
    n = maps.shape[0]
    planes = np.zeros((1, n, side + 2, side + 2), dtype=maps.dtype)
    planes[0, :, 1:-1, 1:-1] = maps.reshape(n, side, side)
    return planes.transpose(1, 2, 3, 0)


def crop_into(rows: np.ndarray, images: np.ndarray, side: int) -> None:
    """Write the interiors of bordered images into contiguous (n, side**2) rows."""
    rows.reshape(-1, side, side)[...] = images[:, 1:-1, 1:-1, 0]


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class LFistaResNet:
    """Unrolled-solver network with a residual-convolution refinement head.

    Parameters
    ----------
    op : ImagingOperator
        Fixes the cell count and the learned blocks' initial step; the
        model keeps no operator, and each forward call takes its own.
    cfg : ExperimentConfig
        Supplies the shape and the initial thresholds: ``n_blocks``
        unrolled blocks, a head of ``res_blocks`` residual blocks with
        ``res_channels`` hidden channels on the ``side_cells`` grid, and
        ``frozen_lambda``, the sparsity weight whose product with the
        initial step seeds the ReLU thresholds (and pins them when
        ``frozen_blocks``).
    frozen_blocks : bool
        If True the model holds no block parameters: the block scalars are
        recomputed from the operator at forward time.
    seed : int
        Seeds the head's weight initialization.
    """

    def __init__(self, op: ImagingOperator, cfg, frozen_blocks: bool, seed: int):
        side = cfg.side_cells
        if side * side != op.n_cells:
            raise ValueError(f"side {side} does not square to {op.n_cells} cells")
        self.n_blocks = cfg.n_blocks
        self.n_res_blocks = cfg.res_blocks
        self.side = side
        self.init_lam = cfg.frozen_lambda
        self.frozen_blocks = frozen_blocks
        self.momentum = momentum_coeffs(self.n_blocks)

        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1F7A]))
        c = cfg.res_channels
        self.params: dict[str, np.ndarray] = {}
        if not frozen_blocks:
            mu0 = 1.0 / op.lmax
            self.params["block_mu_raw"] = np.full(self.n_blocks, softplus_inv(mu0))
            self.params["block_theta_raw"] = np.full(self.n_blocks, softplus_inv(self.init_lam * mu0))
        self.params["head_kernel"] = he_normal(rng, (3, 3, 1, c), 9)
        self.params["head_bias"] = np.zeros(c)
        for rb in range(1, self.n_res_blocks + 1):
            self.params[f"res{rb}_conv1_kernel"] = he_normal(rng, (3, 3, c, c), 9 * c)
            self.params[f"res{rb}_conv1_bias"] = np.zeros(c)
            self.params[f"res{rb}_conv2_kernel"] = he_normal(rng, (3, 3, c, c), 9 * c)
            self.params[f"res{rb}_conv2_bias"] = np.zeros(c)
        self.params["tail_kernel"] = he_normal(rng, (3, 3, c, 1), 9 * c)
        self.params["tail_bias"] = np.zeros(1)

    @property
    def kind(self) -> str:
        return "fista_resnet" if self.frozen_blocks else "lfista_resnet"

    def block_scalars(self, op: ImagingOperator):
        """Per-block (step, threshold) vectors for the given operator."""
        if self.frozen_blocks:
            mu = np.full(self.n_blocks, 1.0 / op.lmax)
            return mu, self.init_lam * mu
        return softplus(self.params["block_mu_raw"]), softplus(
            self.params["block_theta_raw"]
        )

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _unrolled(self, echoes: np.ndarray, op: ImagingOperator, collect: bool):
        """The coarse (n, P) maps and, if ``collect``, each block's step
        taken (its step size times the gradient at y) and active mask for
        the backward pass."""
        blocks = [] if collect else None
        for x, r in fista_iterates(op, echoes, *self.block_scalars(op), nonneg_shrink):
            if collect:
                blocks.append((r.copy(), x > 0))
        return x, blocks

    def lfista_stage(self, echoes: np.ndarray, op: ImagingOperator):
        """Coarse reconstruction from the unrolled blocks alone, (n, P)."""
        coarse, _ = self._unrolled(np.atleast_2d(np.asarray(echoes)), op, collect=False)
        return coarse

    def tile_images(self, dtype) -> int:
        """Images per head tile: as many as keep one activation of the widest
        layer within ``HEAD_TILE_BYTES``, and at least one."""
        width = self.params["head_kernel"].shape[3]
        image = width * (self.side + 2) ** 2 * np.dtype(dtype).itemsize
        return max(1, HEAD_TILE_BYTES // image)

    def _head(self, coarse: np.ndarray, collect: bool):
        """The head's (n, P) output, run depth-first over tiles of images,
        and if ``collect`` one cache per tile."""
        tile = self.tile_images(np.result_type(coarse, self.params["head_kernel"]))
        out = np.empty(coarse.shape, np.result_type(coarse, *self.params.values()))
        caches = [] if collect else None
        for start in range(0, len(coarse), tile):
            images, cache = self._head_tile(coarse[start : start + tile], collect)
            crop_into(out[start : start + tile], images, self.side)
            if collect:
                caches.append(cache)
        return out, caches

    def _head_tile(self, coarse: np.ndarray, collect: bool):
        """The head's bordered output images on one tile. Every ReLU and
        residual sum runs in place on the conv output it consumes; the
        backward needs only their masks."""
        p = self.params
        z0, c_head = conv2d_3x3_cached(bordered(coarse, self.side), p["head_kernel"], p["head_bias"])
        caches = {"head": (c_head, z0 > 0)} if collect else None
        h = relu(z0, out=z0)
        for rb in range(1, self.n_res_blocks + 1):
            z1, c1 = conv2d_3x3_cached(h, p[f"res{rb}_conv1_kernel"], p[f"res{rb}_conv1_bias"])
            m1 = z1 > 0 if collect else None
            a1 = relu(z1, out=z1)
            s, c2 = conv2d_3x3_cached(a1, p[f"res{rb}_conv2_kernel"], p[f"res{rb}_conv2_bias"])
            s += h
            if collect:
                caches[f"res{rb}"] = (c1, m1, c2, s > 0)
            h = relu(s, out=s)
        out, c_tail = conv2d_3x3_cached(h, p["tail_kernel"], p["tail_bias"])
        if collect:
            caches["tail"] = c_tail
        return out, caches

    def forward(self, echoes: np.ndarray, op: ImagingOperator) -> np.ndarray:
        """Full reconstruction, echoes (n, m) or (m,) -> maps (n, P) or (P,)."""
        out, _ = self._head(self.lfista_stage(echoes, op), collect=False)
        return out[0] if np.ndim(echoes) == 1 else out

    def forward_cached(self, echoes: np.ndarray, op: ImagingOperator):
        echoes = np.atleast_2d(np.asarray(echoes))
        coarse, block_caches = self._unrolled(echoes, op, collect=not self.frozen_blocks)
        out, head_caches = self._head(coarse, collect=True)
        cache = {"op": op, "blocks": block_caches, "head": head_caches}
        return out, cache

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, cache, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum(loss) for every parameter.

        ``dout`` is the upstream gradient w.r.t. the (n, P) output. With
        frozen blocks nothing before the head trains, so the pass stops at
        the head's kernel gradient: it forms no gradient of the head's input
        and never runs back through the unrolled blocks.
        """
        grads = {}
        d_coarse = None if self.frozen_blocks else np.empty_like(dout)
        start = 0
        for caches in cache["head"]:
            stop = start + len(caches["tail"][0])
            tile_grads, d_images = self._head_tile_backward(caches, dout[start:stop])
            if d_coarse is not None:
                crop_into(d_coarse[start:stop], d_images, self.side)
            start = stop
            for name, g in tile_grads.items():
                if name in grads:
                    grads[name] += g
                else:
                    grads[name] = g
        if self.frozen_blocks:
            return grads

        op = cache["op"]
        mu, _ = self.block_scalars(op)
        d_mu = np.zeros(self.n_blocks)
        d_theta = np.zeros(self.n_blocks)
        d_cur = d_coarse
        d_prev = np.zeros_like(d_coarse)
        for i in range(self.n_blocks - 1, -1, -1):
            r, mask = cache["blocks"][i]
            dz = d_cur * mask
            d_theta[i] = -dz.sum()
            # r is mu[i] times the gradient, and mu = softplus(raw) > 0
            d_mu[i] = -np.sum(dz * r) / mu[i]
            dy = dz - mu[i] * op.normal(dz)
            g = self.momentum[i]
            d_cur = d_prev + (1.0 + g) * dy
            d_prev = -g * dy
        grads["block_mu_raw"] = d_mu * sigmoid(self.params["block_mu_raw"])
        grads["block_theta_raw"] = d_theta * sigmoid(self.params["block_theta_raw"])
        return grads

    def _head_tile_backward(self, caches, dout: np.ndarray):
        """The head's parameter gradients on one tile and the gradient of its
        bordered input images (None with frozen blocks, which need none)."""
        grads = {}
        d = bordered(dout, self.side)
        d, grads["tail_kernel"], grads["tail_bias"] = conv2d_3x3_backward(
            caches["tail"], d
        )
        for rb in range(self.n_res_blocks, 0, -1):
            c1, m1, c2, m_sum = caches[f"res{rb}"]
            d *= m_sum
            dz1, grads[f"res{rb}_conv2_kernel"], grads[f"res{rb}_conv2_bias"] = (
                conv2d_3x3_backward(c2, d)
            )
            dz1 *= m1
            d_in, grads[f"res{rb}_conv1_kernel"], grads[f"res{rb}_conv1_bias"] = (
                conv2d_3x3_backward(c1, dz1)
            )
            d_in += d  # conv path + skip path
            d = d_in
        c_head, m0 = caches["head"]
        d *= m0
        d_img, grads["head_kernel"], grads["head_bias"] = conv2d_3x3_backward(
            c_head, d, input_grad=not self.frozen_blocks
        )
        return grads, d_img


class EchoDnn:
    """Fully-connected baseline mapping raw echo features to the image.

    The complex echo enters as real features (real parts then imaginary
    parts); the network is dense -> ReLU -> dense with a narrow hidden
    layer of ``hidden`` = 10 units.
    """

    hidden = 10
    kind = "dnn"

    def __init__(self, n_measurements: int, n_cells: int, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD44]))
        d_in = 2 * n_measurements
        self.params: dict[str, np.ndarray] = {
            "dense1_weight": he_normal(rng, (d_in, self.hidden), d_in),
            "dense1_bias": np.zeros(self.hidden),
            "dense2_weight": he_normal(rng, (self.hidden, n_cells), self.hidden),
            "dense2_bias": np.zeros(n_cells),
        }

    @staticmethod
    def echo_features(echoes: np.ndarray) -> np.ndarray:
        echoes = np.atleast_2d(np.asarray(echoes))
        return np.concatenate([echoes.real, echoes.imag], axis=1)

    def forward(self, echoes: np.ndarray, op=None) -> np.ndarray:
        single = np.asarray(echoes).ndim == 1
        out, _ = self.forward_cached(echoes)
        return out[0] if single else out

    def forward_cached(self, echoes: np.ndarray, op=None):
        p = self.params
        x = self.echo_features(echoes)
        z1, c1 = dense_cached(x, p["dense1_weight"], p["dense1_bias"])
        h = relu(z1)
        out, c2 = dense_cached(h, p["dense2_weight"], p["dense2_bias"])
        return out, (c1, z1 > 0, c2)

    def backward(self, cache, dout: np.ndarray) -> dict[str, np.ndarray]:
        c1, m1, c2 = cache
        grads = {}
        dh, grads["dense2_weight"], grads["dense2_bias"] = dense_backward(c2, dout)
        dz1 = dh * m1
        _, grads["dense1_weight"], grads["dense1_bias"] = dense_backward(c1, dz1)
        return grads


def predict_maps(model, echoes: np.ndarray, op: ImagingOperator) -> np.ndarray:
    """The (n, P) maps of (n, m) echoes from one ``model.forward`` on the
    whole batch; the head's tiles (see ``HEAD_TILE_BYTES``) are the only
    place the batch is split. A (0, m) batch gives (0, P) maps. Raises
    DivergedError naming the first echo whose map is not finite."""
    maps = model.forward(np.atleast_2d(np.asarray(echoes)), op)
    bad = np.flatnonzero(~np.isfinite(maps).all(axis=1))
    if bad.size:
        raise DivergedError(f"non-finite map from echo {bad[0]}")
    return maps


# The kinds build_model constructs, in the order train and eval run them.
NETWORK_KINDS = ("fista_resnet", "lfista_resnet", "dnn")


def build_model(kind: str, op: ImagingOperator, cfg, seed: int):
    """Construct a model by kind string from an ExperimentConfig."""
    if kind in ("lfista_resnet", "fista_resnet"):
        return LFistaResNet(op, cfg, kind == "fista_resnet", seed)
    if kind == "dnn":
        return EchoDnn(op.matrix.shape[0], op.n_cells, seed)
    raise ValueError(f"unknown model kind {kind!r}")
