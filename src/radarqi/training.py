"""Training: hybrid loss, Adam with a reduce-on-plateau schedule, fit loop,
and the versioned checkpoint file format.

The loss on one sample combines image fidelity, sparsity of the error, and
physics consistency of the prediction with the measured echo:

    L = ||e - p||_2^2 + lambda1 * ||e - p||_1 + lambda2 * ||s - A p||_2^2

Training echoes are noise-free and synthesized once up front; every source
of randomness is seeded, so repeated runs produce byte-identical logs and
checkpoints.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_from_text
from .errors import DivergedError, FormatError
from .fista import ImagingOperator
from .io import fmt_float, write_csv
from .metrics import image_quality
from .models import predict_maps

CHECKPOINT_MAGIC = "radarqi-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class LossWeights:
    lambda1: float = 0.1
    lambda2: float = 0.05

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be >= 0")


def hybrid_loss_batch(eps_true, eps_hat, echoes, matrix, w: LossWeights):
    """Mean loss over an (n, P) batch and the gradient of that mean, (n, P).

    A single sample is a batch of one. The L1 subgradient at exact ties is
    0. The physics-term gradient for a real-valued prediction is
    2 * lambda2 * Re(A^H (A p - s)).
    """
    diff = eps_hat - eps_true
    residual = echoes - eps_hat @ matrix.T
    values = (
        np.sum(diff * diff, axis=1)
        + w.lambda1 * np.sum(np.abs(diff), axis=1)
        + w.lambda2 * np.sum(np.abs(residual) ** 2, axis=1)
    )
    grad_sum = (
        2.0 * diff
        + w.lambda1 * np.sign(diff)
        - 2.0 * w.lambda2 * (residual @ matrix.conj()).real
    )
    return float(np.mean(values)), grad_sum / len(values)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for a named parameter set."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, names, lr: float) -> "AdamState":
        state = cls(lr=lr)
        for name in names:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> AdamState:
    """One in-place Adam update on every parameter the state tracks."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name in state.m:
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


class PlateauSchedule:
    """Cut the learning rate by ``factor`` after ``patience + 1`` consecutive
    epochs without a new best (strictly lower) validation loss."""

    def __init__(self, initial_lr: float, factor: float = 0.1, patience: int = 10):
        self.lr = initial_lr
        self.factor = factor
        self.patience = patience
        self.best = np.inf
        self.stale = 0

    def update(self, val_loss: float) -> float:
        if val_loss < self.best:
            self.best = val_loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale > self.patience:
                self.lr *= self.factor
                self.stale = 0
        return self.lr


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    kind: str
    config_text: str
    params: dict
    param_order: list
    adam_m: dict
    adam_v: dict
    adam_step_count: int
    epoch: int
    best_val_loss: float

    @property
    def config(self) -> ExperimentConfig:
        return config_from_text(self.config_text)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the checkpoint: text manifest, config snapshot, array table,
    then little-endian binary64 payload."""
    arrays: list[tuple[str, np.ndarray]] = []
    for name in ckpt.param_order:
        arrays.append((f"param.{name}", ckpt.params[name]))
    for name in sorted(ckpt.adam_m):
        arrays.append((f"adam_m.{name}", ckpt.adam_m[name]))
    for name in sorted(ckpt.adam_v):
        arrays.append((f"adam_v.{name}", ckpt.adam_v[name]))

    lines = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"kind = {ckpt.kind}",
        f"epoch = {ckpt.epoch}",
        f"best_val_loss = {fmt_float(ckpt.best_val_loss)}",
        f"adam_step = {ckpt.adam_step_count}",
        "[config]",
        ckpt.config_text.rstrip("\n"),
        "[arrays]",
    ]
    offset = 0
    blobs = []
    for name, arr in arrays:
        shape = ",".join(str(d) for d in arr.shape) or "1"
        lines.append(f"{name} {shape} {offset}")
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    lines.append("[binary]")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    sep = b"\n[binary]\n"
    pos = raw.find(sep)
    if pos < 0:
        raise FormatError(f"{path}: missing [binary] separator")
    header = raw[:pos].decode("utf-8").splitlines()
    payload = raw[pos + len(sep) :]

    if not header or not header[0].startswith(CHECKPOINT_MAGIC):
        raise FormatError(f"{path}: not a checkpoint file")
    version = header[0][len(CHECKPOINT_MAGIC) :].strip()
    if version != str(CHECKPOINT_VERSION):
        raise FormatError(f"{path}: unsupported checkpoint version {version!r}")

    meta = {}
    idx = 1
    while idx < len(header) and header[idx] != "[config]":
        key, _, value = header[idx].partition("=")
        meta[key.strip()] = value.strip()
        idx += 1
    if idx >= len(header):
        raise FormatError(f"{path}: missing [config] section")
    idx += 1
    config_lines = []
    while idx < len(header) and header[idx] != "[arrays]":
        config_lines.append(header[idx])
        idx += 1
    if idx >= len(header):
        raise FormatError(f"{path}: missing [arrays] section")
    idx += 1

    params: dict = {}
    param_order: list = []
    adam_m: dict = {}
    adam_v: dict = {}
    used = 0
    for line in header[idx:]:
        try:
            name, shape_text, offset_text = line.split()
            shape = tuple(int(d) for d in shape_text.split(","))
            offset = int(offset_text)
        except ValueError as exc:
            raise FormatError(f"{path}: bad array manifest line {line!r}") from exc
        if offset < 0 or min(shape) < 0:
            raise FormatError(f"{path}: negative offset or dimension in manifest line {line!r}")
        count = int(np.prod(shape))
        end = offset + count * 8
        if end > len(payload):
            raise FormatError(
                f"{path}: array {name} needs bytes up to {end}, payload has "
                f"{len(payload)}"
            )
        used = max(used, end)
        arr = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
        group, _, base = name.partition(".")
        if group == "param":
            params[base] = arr
            param_order.append(base)
        elif group == "adam_m":
            adam_m[base] = arr
        elif group == "adam_v":
            adam_v[base] = arr
        else:
            raise FormatError(f"{path}: unknown array group {group!r}")
    if len(payload) > used:
        raise FormatError(
            f"{path}: {len(payload) - used} bytes past the last array, which ends at "
            f"payload byte {used}"
        )

    try:
        return Checkpoint(
            kind=meta["kind"],
            config_text="\n".join(config_lines) + "\n",
            params=params,
            param_order=param_order,
            adam_m=adam_m,
            adam_v=adam_v,
            adam_step_count=int(meta["adam_step"]),
            epoch=int(meta["epoch"]),
            best_val_loss=float(meta["best_val_loss"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata ({exc})") from exc


def restore_model(model, ckpt: Checkpoint) -> None:
    """Copy checkpoint arrays into a freshly built model of the same kind.

    Checks, in order, the model kind, the grid (``side_cells**2`` cells) and
    the measurement count (``n_freqs * n_antennas``) saved with the
    checkpoint's config, then every array's name and shape; the first
    disagreement raises :class:`FormatError`. The grid and measurement
    checks matter because no ``LFistaResNet`` parameter depends on either,
    so a checkpoint from another geometry would otherwise load silently.
    """
    if model.kind != ckpt.kind:
        raise FormatError(f"checkpoint kind {ckpt.kind!r} does not match {model.kind!r}")
    saved = ckpt.config
    for what, theirs, ours in (
        ("grid", saved.n_cells, model.n_cells),
        ("measurement count", saved.n_measurements, model.n_measurements),
    ):
        if theirs != ours:
            raise FormatError(f"{what} mismatch: checkpoint {theirs}, model {ours}")
    for name, arr in ckpt.params.items():
        if name not in model.params:
            raise FormatError(f"checkpoint has unknown parameter {name!r}")
        if model.params[name].shape != arr.shape:
            raise FormatError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {model.params[name].shape}"
            )
        model.params[name][...] = arr


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


@dataclass
class TrainingData:
    train_maps: np.ndarray
    train_echoes: np.ndarray
    val_maps: np.ndarray
    val_echoes: np.ndarray


def _validation_metrics(model, op, data: TrainingData, w: LossWeights, side: int):
    pred = predict_maps(model, data.val_echoes, op)
    loss, _ = hybrid_loss_batch(data.val_maps, pred, data.val_echoes, op.matrix, w)
    mses, ssims = image_quality(data.val_maps, pred, side)
    return loss, float(np.mean(mses)), float(np.mean(ssims))


def fit(model, op: ImagingOperator, data: TrainingData, cfg: ExperimentConfig, log_path=None) -> Checkpoint:
    """Train a model on noise-free echoes; returns the best-validation checkpoint.

    Shuffles per epoch from the config seed, evaluates the validation loss
    each epoch, applies the plateau schedule, and logs one CSV row per epoch
    (epoch 0 is the untrained model). Raises DivergedError with epoch/batch
    coordinates if the loss stops being finite.
    """
    w = LossWeights(cfg.loss_lambda1, cfg.loss_lambda2)
    schedule = PlateauSchedule(cfg.learning_rate, cfg.plateau_factor, cfg.plateau_patience)
    adam = AdamState.for_params(model.params, model.trainable_names, schedule.lr)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x50F1E]))

    n_train = len(data.train_maps)
    rows = []
    val_loss, val_mse, val_ssim = _validation_metrics(model, op, data, w, cfg.side_cells)
    rows.append((0, schedule.lr, float("nan"), val_loss, val_mse, val_ssim))

    best_loss = np.inf
    best = None
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        epoch_sum = 0.0
        lr_used = schedule.lr
        for batch_index, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            out, cache = model.forward_cached(data.train_echoes[idx], op)
            loss, dout = hybrid_loss_batch(
                data.train_maps[idx], out, data.train_echoes[idx], op.matrix, w
            )
            if not np.isfinite(loss):
                raise DivergedError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            grads = model.backward(cache, dout)
            adam.lr = schedule.lr
            adam_step(model.params, grads, adam)
            epoch_sum += loss * len(idx)
        train_loss = epoch_sum / n_train

        val_loss, val_mse, val_ssim = _validation_metrics(model, op, data, w, cfg.side_cells)
        rows.append((epoch, lr_used, train_loss, val_loss, val_mse, val_ssim))
        if val_loss < best_loss:
            best_loss = val_loss
            best = (
                epoch,
                copy.deepcopy(model.params),
                copy.deepcopy(adam.m),
                copy.deepcopy(adam.v),
                adam.step,
            )
        schedule.update(val_loss)

    if best is None:  # epochs == 0: checkpoint the initialization
        best_loss = val_loss
        best = (0, copy.deepcopy(model.params), copy.deepcopy(adam.m), copy.deepcopy(adam.v), adam.step)

    if log_path is not None:
        write_csv(
            log_path,
            ["epoch", "lr", "train_loss", "val_loss", "val_mse", "val_ssim"],
            rows,
        )

    epoch_at_best, params, m, v, step = best
    return Checkpoint(
        kind=model.kind,
        config_text=cfg.to_text(),
        params=params,
        param_order=list(model.param_order),
        adam_m=m,
        adam_v=v,
        adam_step_count=step,
        epoch=epoch_at_best,
        best_val_loss=float(best_loss),
    )
