"""Training: hybrid loss, Adam with a reduce-on-plateau schedule, fit loop,
and the versioned checkpoint file format.

A checkpoint (version 3) holds what restoring a model reads back, in the
array container of :mod:`radarqi.io`: the model kind, the epoch kept and
its validation loss and the training config as header lines, and the
parameters as ``<f8`` arrays named as in the model, in model order.
Optimizer state stays in memory; nothing resumes a fit.

The loss on one sample combines image fidelity, sparsity of the error, and
physics consistency of the prediction with the measured echo:

    L = ||e - p||_2^2 + lambda1 * ||e - p||_1 + lambda2 * ||C p - z||_2^2

where ``C = op.factor`` and ``z = op.coords(s)`` are the operator's real
factor and the echo's real range coordinates (see :mod:`radarqi.fista`).
The physics term is ``||s - A p||_2^2`` less ``||s||^2 - ||z||^2``, a
constant per echo that does not depend on the prediction: the part of the
echo that no real map produces, outside the operator's range or on the
part of it that only complex maps reach.

The loss weights, the learning rate and the plateau schedule's factor and
patience come from the run's :class:`~radarqi.config.ExperimentConfig`,
which also range-checks them; nothing here has a default of its own.

:func:`fit` keeps the epoch with the lowest validation loss over epochs
0..E, where epoch 0 is the initialization; ties keep the earliest epoch.
``epochs = 0`` is the same rule with one candidate, not a fallback. The
test split takes no part in the choice.

Training echoes are noise-free and synthesized once up front; every source
of randomness is seeded, so repeated runs produce byte-identical logs and
checkpoints.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import ExperimentConfig, config_from_text, format_value
from .errors import ConfigError, DivergedError, FormatError
from .fista import ImagingOperator
from .io import header_fields, read_container, write_container, write_csv
from .metrics import image_quality
from .models import NETWORK_KINDS, predict_maps

CHECKPOINT_MAGIC = "radarqi-checkpoint"
CHECKPOINT_VERSION = 3


def hybrid_loss_batch(eps_true, eps_hat, echoes, op: ImagingOperator, lambda1: float, lambda2: float):
    """Mean loss over an (n, P) batch and the gradient of that mean, (n, P).

    A single sample is a batch of one. The L1 subgradient at exact ties is
    0. The physics term is lambda2 * ||r||^2 on the range residual
    r = C p - z, with gradient 2 * lambda2 * r C. It drops the per-echo
    constant ||s||^2 - ||z||^2 of the full ||s - A p||^2: about 0 for a
    noise-free echo, and for a noisy one the noise energy that no real map
    produces, outside the operator's range or on the part of it that only
    complex maps reach.
    """
    diff = eps_hat - eps_true
    residual = eps_hat @ op.factor.T - op.coords(echoes)
    values = (
        np.sum(diff * diff, axis=1)
        + lambda1 * np.sum(np.abs(diff), axis=1)
        + lambda2 * np.sum(residual * residual, axis=1)
    )
    grad_sum = 2.0 * diff + lambda1 * np.sign(diff) + 2.0 * lambda2 * (residual @ op.factor)
    return float(np.mean(values)), grad_sum / len(values)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for a named parameter set."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, lr: float) -> "AdamState":
        """Zeroed accumulators for every array in ``params``."""
        state = cls(lr=lr)
        for name in params:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place Adam update on every parameter the state tracks, and on
    the state's step count and moments."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name in state.m:
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        params[name] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


class PlateauSchedule:
    """Cut the learning rate by ``factor`` after ``patience + 1`` consecutive
    epochs without a new best (strictly lower) validation loss."""

    def __init__(self, initial_lr: float, factor: float, patience: int):
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
    """A trained network as saved to disk: its kind, the config it was
    trained with, its parameters in the model's order, and the epoch and
    validation loss of the best epoch they come from.

    Optimizer state is not kept: nothing resumes a fit, and restoring a
    model needs only the parameters.
    """

    kind: str
    config: ExperimentConfig
    params: dict
    epoch: int
    best_val_loss: float


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the checkpoint container: metadata and the ``[config]`` section
    as header lines, the parameters as ``<f8`` arrays in model order."""
    lines = [
        f"kind = {ckpt.kind}",
        f"epoch = {ckpt.epoch}",
        f"best_val_loss = {format_value(ckpt.best_val_loss)}",
        "[config]",
        *ckpt.config.to_text().splitlines(),
    ]
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, lines, ckpt.params, "<f8")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; every inconsistency, including a config that
    :func:`~radarqi.config.config_from_text` rejects or a kind outside
    :data:`~radarqi.models.NETWORK_KINDS`, raises FormatError."""
    lines, params = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", "<f8")
    if "[config]" not in lines:
        raise FormatError(f"{path}: missing [config] section")
    at = lines.index("[config]")
    meta = header_fields(lines[:at], path)
    try:
        config = config_from_text("\n".join(lines[at + 1 :]))
    except ConfigError as exc:
        raise FormatError(f"{path}: bad checkpoint config ({exc})") from exc
    try:
        ckpt = Checkpoint(
            kind=meta["kind"],
            config=config,
            params=params,
            epoch=int(meta["epoch"]),
            best_val_loss=float(meta["best_val_loss"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata ({exc})") from exc
    if ckpt.kind not in NETWORK_KINDS:
        raise FormatError(f"{path}: unknown model kind {ckpt.kind!r}")
    return ckpt


def restore_model(model, ckpt: Checkpoint) -> None:
    """Copy checkpoint arrays into a freshly built model of the same kind.

    Checks, in order, the model kind, that the checkpoint holds exactly the
    model's parameter names, then every array's shape; the first
    disagreement raises :class:`FormatError`. Whether the checkpoint's scene
    is the run's is :func:`~radarqi.harness.check_scene`'s question.
    """
    if model.kind != ckpt.kind:
        raise FormatError(f"checkpoint kind {ckpt.kind!r} does not match {model.kind!r}")
    missing = [name for name in model.params if name not in ckpt.params]
    unknown = [name for name in ckpt.params if name not in model.params]
    if missing or unknown:
        raise FormatError(
            f"checkpoint parameters differ from the model's: missing {missing}, "
            f"unknown {unknown}"
        )
    for name, arr in ckpt.params.items():
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


def _validation_metrics(model, op, data: TrainingData, cfg: ExperimentConfig, epoch: int):
    """Loss, mean MSE and mean SSIM of the model's maps of the validation
    split; a non-finite map raises DivergedError naming the epoch."""
    try:
        pred = predict_maps(model, data.val_echoes, op)
    except DivergedError as exc:
        raise DivergedError(f"{exc} of the validation split at epoch {epoch}") from exc
    loss, _ = hybrid_loss_batch(
        data.val_maps, pred, data.val_echoes, op, cfg.loss_lambda1, cfg.loss_lambda2
    )
    mses, ssims = image_quality(data.val_maps, pred, cfg.side_cells)
    return loss, float(np.mean(mses)), float(np.mean(ssims))


def fit(model, op: ImagingOperator, data: TrainingData, cfg: ExperimentConfig, log_path=None) -> Checkpoint:
    """Train a model on noise-free echoes; returns the checkpoint of the
    epoch with the lowest validation loss over epochs 0..E.

    Epoch 0 is the initialization and ties keep the earliest epoch;
    ``cfg.epochs = 0`` is the same rule with one candidate. Shuffles per
    epoch from the config seed, sets Adam's rate from the plateau schedule
    after each epoch's validation, and logs one CSV row per epoch with the
    rate that epoch trained at. Raises DivergedError naming the epoch and
    batch if the training loss stops being finite, and the epoch if a
    validation map does.
    """
    schedule = PlateauSchedule(cfg.learning_rate, cfg.plateau_factor, cfg.plateau_patience)
    adam = AdamState.for_params(model.params, schedule.lr)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x50F1E]))

    n_train = len(data.train_maps)
    val_loss, val_mse, val_ssim = _validation_metrics(model, op, data, cfg, 0)
    rows = [(0, adam.lr, float("nan"), val_loss, val_mse, val_ssim)]
    best = Checkpoint(model.kind, cfg, copy.deepcopy(model.params), 0, val_loss)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        epoch_sum = 0.0
        for batch_index, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            out, cache = model.forward_cached(data.train_echoes[idx], op)
            loss, dout = hybrid_loss_batch(
                data.train_maps[idx], out, data.train_echoes[idx], op,
                cfg.loss_lambda1, cfg.loss_lambda2,
            )
            if not np.isfinite(loss):
                raise DivergedError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            grads = model.backward(cache, dout)
            adam_step(model.params, grads, adam)
            epoch_sum += loss * len(idx)

        val_loss, val_mse, val_ssim = _validation_metrics(model, op, data, cfg, epoch)
        rows.append((epoch, adam.lr, epoch_sum / n_train, val_loss, val_mse, val_ssim))
        if val_loss < best.best_val_loss:
            best = Checkpoint(model.kind, cfg, copy.deepcopy(model.params), epoch, val_loss)
        adam.lr = schedule.update(val_loss)

    if log_path is not None:
        write_csv(
            log_path,
            ["epoch", "lr", "train_loss", "val_loss", "val_mse", "val_ssim"],
            rows,
        )
    return best
