"""Reconstruction networks: the unrolled solver with a refinement head, and
a fully-connected baseline.

``LFistaResNet`` runs a fixed number of unrolled accelerated-shrinkage
blocks (one per solver iteration, ReLU nonlinearity with a learnable
threshold and a learnable step per block) and refines the coarse image with
a small residual convolution head. With ``frozen_blocks=True`` the block
scalars are pinned to their physics-derived values (step 1/lmax, threshold
lam/lmax, recomputed from whatever operator the forward pass is given),
which is the non-learned ablation of the same architecture.

All gradients are exact reverse-mode, written out by hand; parameters live
in a name-to-array dict so the optimizer and checkpoints stay model-agnostic.
"""

from __future__ import annotations

import numpy as np

from .fista import ImagingOperator, momentum_coeffs
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


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class LFistaResNet:
    """Unrolled-solver network with a residual-convolution refinement head.

    Parameters
    ----------
    op : ImagingOperator
        Default physics operator (a different one may be passed per forward
        call, e.g. for center-frequency generalization runs).
    n_blocks : int
        Number of unrolled blocks.
    channels : int
        Hidden channels of the refinement head.
    n_res_blocks : int
        Residual blocks in the head.
    side : int
        Image side length; the coarse vector reshapes to (side, side).
    init_lam : float
        Sparsity weight whose product with the initial step seeds the
        ReLU thresholds (and pins them when ``frozen_blocks``).
    frozen_blocks : bool
        If True the block scalars are not trainable and are recomputed
        from the operator at forward time.
    """

    def __init__(
        self,
        op: ImagingOperator,
        n_blocks: int = 20,
        channels: int = 14,
        n_res_blocks: int = 2,
        side: int = 28,
        init_lam: float = 0.01,
        frozen_blocks: bool = False,
        seed: int = 0,
    ):
        if side * side != op.n_cells:
            raise ValueError(f"side {side} does not square to {op.n_cells} cells")
        self.op = op
        self.n_cells = op.n_cells
        self.n_measurements = op.matrix.shape[0]
        self.n_blocks = n_blocks
        self.channels = channels
        self.n_res_blocks = n_res_blocks
        self.side = side
        self.init_lam = init_lam
        self.frozen_blocks = frozen_blocks
        self.momentum = momentum_coeffs(n_blocks)

        mu0 = 1.0 / op.lmax
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1F7A]))
        c = channels
        self.params: dict[str, np.ndarray] = {
            "block_mu_raw": np.full(n_blocks, softplus_inv(mu0)),
            "block_theta_raw": np.full(n_blocks, softplus_inv(init_lam * mu0)),
            "head_kernel": he_normal(rng, (3, 3, 1, c), 9),
            "head_bias": np.zeros(c),
        }
        for rb in range(1, n_res_blocks + 1):
            self.params[f"res{rb}_conv1_kernel"] = he_normal(rng, (3, 3, c, c), 9 * c)
            self.params[f"res{rb}_conv1_bias"] = np.zeros(c)
            self.params[f"res{rb}_conv2_kernel"] = he_normal(rng, (3, 3, c, c), 9 * c)
            self.params[f"res{rb}_conv2_bias"] = np.zeros(c)
        self.params["tail_kernel"] = he_normal(rng, (3, 3, c, 1), 9 * c)
        self.params["tail_bias"] = np.zeros(1)

        self.param_order = list(self.params)
        block_names = ("block_mu_raw", "block_theta_raw")
        if frozen_blocks:
            self.trainable_names = [n for n in self.param_order if n not in block_names]
        else:
            self.trainable_names = list(self.param_order)

    @property
    def kind(self) -> str:
        return "fista_resnet" if self.frozen_blocks else "lfista_resnet"

    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def n_trainable(self) -> int:
        return sum(self.params[n].size for n in self.trainable_names)

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
        gram = op.gram
        b = op.rhs(echoes)
        mu, theta = self.block_scalars(op)
        x_prev = np.zeros_like(b)
        x = np.zeros_like(b)
        blocks = [] if collect else None
        for i in range(self.n_blocks):
            y = x + self.momentum[i] * (x - x_prev)
            r = y @ gram - b
            pre = y - mu[i] * r - theta[i]
            out = relu(pre)
            if collect:
                blocks.append((r, pre > 0))
            x_prev, x = x, out
        return x, blocks

    def lfista_stage(self, echoes: np.ndarray, op: ImagingOperator | None = None):
        """Coarse reconstruction from the unrolled blocks alone, (n, P)."""
        echoes = np.atleast_2d(np.asarray(echoes))
        coarse, _ = self._unrolled(echoes, op or self.op, collect=False)
        return coarse

    def _head(self, coarse: np.ndarray, collect: bool):
        p = self.params
        n = coarse.shape[0]
        img = coarse.reshape(n, self.side, self.side, 1)
        z0, c_head = conv2d_3x3_cached(img, p["head_kernel"], p["head_bias"])
        h = relu(z0)
        caches = {"head": (c_head, z0 > 0)} if collect else None
        for rb in range(1, self.n_res_blocks + 1):
            z1, c1 = conv2d_3x3_cached(h, p[f"res{rb}_conv1_kernel"], p[f"res{rb}_conv1_bias"])
            a1 = relu(z1)
            z2, c2 = conv2d_3x3_cached(a1, p[f"res{rb}_conv2_kernel"], p[f"res{rb}_conv2_bias"])
            s = z2 + h
            if collect:
                caches[f"res{rb}"] = (c1, z1 > 0, c2, s > 0)
            h = relu(s)
        out, c_tail = conv2d_3x3_cached(h, p["tail_kernel"], p["tail_bias"])
        if collect:
            caches["tail"] = c_tail
        return out.reshape(n, self.side * self.side), caches

    def refine(self, coarse: np.ndarray) -> np.ndarray:
        """Refinement head alone: coarse (n, P) -> refined (n, P)."""
        out, _ = self._head(np.atleast_2d(coarse), collect=False)
        return out

    def forward(self, echoes: np.ndarray, op: ImagingOperator | None = None) -> np.ndarray:
        """Full reconstruction, echoes (n, m) or (m,) -> maps (n, P) or (P,)."""
        single = np.asarray(echoes).ndim == 1
        echoes = np.atleast_2d(np.asarray(echoes))
        coarse, _ = self._unrolled(echoes, op or self.op, collect=False)
        out, _ = self._head(coarse, collect=False)
        return out[0] if single else out

    def forward_cached(self, echoes: np.ndarray, op: ImagingOperator | None = None):
        echoes = np.atleast_2d(np.asarray(echoes))
        op = op or self.op
        coarse, block_caches = self._unrolled(echoes, op, collect=not self.frozen_blocks)
        out, head_caches = self._head(coarse, collect=True)
        cache = {"op": op, "blocks": block_caches, "head": head_caches}
        return out, cache

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, cache, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum(loss) for every trainable parameter.

        ``dout`` is the upstream gradient w.r.t. the (n, P) output. With
        frozen blocks nothing before the head trains, so the pass stops at
        the head and never runs back through the unrolled blocks.
        """
        grads = {}
        caches = cache["head"]
        n = dout.shape[0]

        d = dout.reshape(n, self.side, self.side, 1)
        d, grads["tail_kernel"], grads["tail_bias"] = conv2d_3x3_backward(
            caches["tail"], d
        )
        for rb in range(self.n_res_blocks, 0, -1):
            c1, m1, c2, m_sum = caches[f"res{rb}"]
            d_sum = d * m_sum
            da1, grads[f"res{rb}_conv2_kernel"], grads[f"res{rb}_conv2_bias"] = (
                conv2d_3x3_backward(c2, d_sum)
            )
            dz1 = da1 * m1
            d_in, grads[f"res{rb}_conv1_kernel"], grads[f"res{rb}_conv1_bias"] = (
                conv2d_3x3_backward(c1, dz1)
            )
            d = d_in + d_sum  # conv path + skip path
        c_head, m0 = caches["head"]
        d_img, grads["head_kernel"], grads["head_bias"] = conv2d_3x3_backward(
            c_head, d * m0
        )
        if self.frozen_blocks:
            return grads
        d_coarse = d_img.reshape(n, self.side * self.side)

        op = cache["op"]
        gram = op.gram
        mu, _ = self.block_scalars(op)
        d_mu = np.zeros(self.n_blocks)
        d_theta = np.zeros(self.n_blocks)
        d_cur = d_coarse
        d_prev = np.zeros_like(d_coarse)
        for i in range(self.n_blocks - 1, -1, -1):
            r, mask = cache["blocks"][i]
            dz = d_cur * mask
            d_theta[i] = -dz.sum()
            d_mu[i] = -np.sum(dz * r)
            dy = dz - mu[i] * (dz @ gram)
            g = self.momentum[i]
            d_cur = d_prev + (1.0 + g) * dy
            d_prev = -g * dy
        grads["block_mu_raw"] = d_mu * sigmoid(self.params["block_mu_raw"])
        grads["block_theta_raw"] = d_theta * sigmoid(self.params["block_theta_raw"])
        return grads


class EchoDnn:
    """Fully-connected baseline mapping raw echo features to the image.

    The complex echo enters as real features (real parts then imaginary
    parts); the network is dense -> ReLU -> dense with a narrow hidden
    layer.
    """

    def __init__(self, n_measurements: int, n_cells: int, hidden: int = 10, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD44]))
        d_in = 2 * n_measurements
        self.n_measurements = n_measurements
        self.n_cells = n_cells
        self.params: dict[str, np.ndarray] = {
            "dense1_weight": he_normal(rng, (d_in, hidden), d_in),
            "dense1_bias": np.zeros(hidden),
            "dense2_weight": he_normal(rng, (hidden, n_cells), hidden),
            "dense2_bias": np.zeros(n_cells),
        }
        self.param_order = list(self.params)
        self.trainable_names = list(self.params)

    kind = "dnn"

    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    n_trainable = n_params

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


def predict_maps(model, echoes: np.ndarray, op: ImagingOperator | None = None, chunk: int = 64) -> np.ndarray:
    """Forward a large echo batch in chunks to bound the activation memory."""
    echoes = np.atleast_2d(np.asarray(echoes))
    parts = [
        model.forward(echoes[start : start + chunk], op)
        for start in range(0, len(echoes), chunk)
    ]
    return np.concatenate(parts, axis=0)


def build_model(kind: str, op: ImagingOperator, cfg, seed: int):
    """Construct a model by kind string from an ExperimentConfig."""
    if kind in ("lfista_resnet", "fista_resnet"):
        return LFistaResNet(
            op,
            n_blocks=cfg.n_blocks,
            channels=cfg.res_channels,
            n_res_blocks=cfg.res_blocks,
            side=cfg.side_cells,
            init_lam=cfg.frozen_lambda,
            frozen_blocks=(kind == "fista_resnet"),
            seed=seed,
        )
    if kind == "dnn":
        return EchoDnn(op.matrix.shape[0], op.n_cells, hidden=10, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")
