"""Experiment harness: dataset assembly, the four-method comparison, and
the generalization tasks (noise level, center frequency, unseen shapes).

Every evaluation scores through one path. A runner maps ``(echoes, op)`` to
(n, P) maps: FISTA at the config's settings, or a network through
:func:`~radarqi.models.predict_maps`. :func:`run_methods` runs each runner
on identical echoes and returns one :class:`MetricsReport` per method, maps
included, and the shared writers turn reports into the per-sample CSV, the
truth/reconstruction/error grids and the SSIM-curve raster. A new
evaluation is one more caller of :func:`run_methods`.

The noise-level and center-frequency tasks are one :func:`sweep`: it runs
every method on each ``(x, op, echoes)`` condition and writes one CSV and
one SSIM curve per method. The tasks differ only in how they list their
conditions: :func:`snr_conditions` re-noises the test echoes, and
:func:`f0_conditions` rebuilds the operator per start frequency.

Every artifact except ``timing.txt`` is a deterministic function of the
configuration, seed, and checkpoints; wall-clock measurements are kept out
of the CSV files on purpose.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import io as rio
from .config import SCENE_FIELDS, ExperimentConfig
from .datasets import load_digit_rasters, shape_rasters, split_dataset
from .errors import ConfigError, FormatError
from .fista import FistaConfig, ImagingOperator, fista_solve_many
from .forward import build_sensing_matrix, noisy_echoes, synthesize_echoes
from .geometry import build_doi_grid, build_sweep, build_ula, rasters_to_maps
from .metrics import image_quality
from .models import NETWORK_KINDS, build_model, predict_maps
from .training import TrainingData, fit, load_checkpoint, restore_model, save_checkpoint

SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)
F0_GRID_GHZ = (28.0, 29.0, 30.0, 31.0, 32.0)


@dataclass
class MetricsReport:
    """One method's (n, P) reconstructions, their per-sample quality, and
    the means."""

    maps: np.ndarray
    per_sample_mse: np.ndarray
    per_sample_ssim: np.ndarray
    runtime_per_sample: float

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.per_sample_mse))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.per_sample_ssim))


@dataclass
class DatasetBundle(TrainingData):
    test_maps: np.ndarray
    test_echoes: np.ndarray


def build_scene(cfg: ExperimentConfig, f0_hz: float | None = None):
    """Cell centers (P, 2) [m], antenna positions (K, 2) [m], frequencies
    (Nf,) [Hz], and the complex (Nf*K, P) sensing matrix of a config.

    ``f0_hz`` overrides the sweep start frequency only; the antenna array
    keeps the spacing of the configured (deployed) frequency.
    """
    centers = build_doi_grid(cfg.side_cells, cfg.cell_size_m)
    positions = build_ula(cfg.n_antennas, cfg.f0_hz, cfg.standoff_m)
    freqs = build_sweep(cfg.f0_hz if f0_hz is None else f0_hz, cfg.bandwidth_hz, cfg.n_freqs)
    return centers, positions, freqs, build_sensing_matrix(freqs, positions, centers)


def build_operator(cfg: ExperimentConfig, f0_hz: float | None = None) -> ImagingOperator:
    """The imaging operator of :func:`build_scene`'s sensing matrix."""
    return ImagingOperator(build_scene(cfg, f0_hz=f0_hz)[-1])


def check_scene(cfg: ExperimentConfig, saved: dict, source: str, fields=SCENE_FIELDS) -> None:
    """Raise FormatError if ``saved``, a checkpoint's config fields or an echo
    container's header, records one of ``fields`` with another value than
    ``cfg``.

    This is the one rule for whether an artifact belongs to the run's scene:
    the fields of :data:`~radarqi.config.SCENE_FIELDS` fix the sensing
    matrix, so a network's weights and an echo's samples mean the same only
    where all of them agree. ``eval --echoes`` also compares a container's
    ``array_f0_hz`` (:attr:`~radarqi.config.ExperimentConfig.array_f0_hz`)
    and the seed, which fixes the test split. ``infer`` compares
    ``array_f0_hz`` in place of ``f0_hz``: the sweep start is the one value a
    container may change (``synth --f0-ghz``, the frequency-migration test),
    and ``infer`` reads the echoes through the operator of the container's
    own sweep.
    """
    for field in fields:
        if field in saved and saved[field] != getattr(cfg, field):
            raise FormatError(
                f"{source} was made with {field}={saved[field]}, current config "
                f"has {getattr(cfg, field)}"
            )


def prepare_dataset(cfg: ExperimentConfig, matrix: np.ndarray) -> DatasetBundle:
    """Split the digit corpus and synthesize noise-free echoes per split.

    The 28x28 rasters are resampled to the configured ``side_cells`` grid
    by :func:`~radarqi.geometry.rasters_to_maps`.
    """
    minimum = cfg.train_size + cfg.val_size + cfg.test_size
    rasters = load_digit_rasters(cfg.mnist_dir, minimum, cfg.seed)
    sizes = (cfg.train_size, cfg.val_size, cfg.test_size)
    splits = {}
    for split, idx in zip(("train", "val", "test"), split_dataset(rasters, cfg.seed, sizes)):
        maps = rasters_to_maps(rasters[idx], cfg.side_cells)
        splits[f"{split}_maps"] = maps
        splits[f"{split}_echoes"] = synthesize_echoes(matrix, maps)
    return DatasetBundle(**splits)


def build_experiment(cfg: ExperimentConfig) -> tuple[ImagingOperator, DatasetBundle]:
    """Operator and noise-free dataset bundle of the configured scene."""
    op = build_operator(cfg)
    return op, prepare_dataset(cfg, op.matrix)


# ---------------------------------------------------------------------------
# Training pipeline
# ---------------------------------------------------------------------------


def checkpoint_path(out_dir, kind: str) -> Path:
    return Path(out_dir) / f"checkpoint_{kind}.ckpt"


def train_pipeline(cfg: ExperimentConfig, out_dir, kinds=NETWORK_KINDS) -> dict[str, Path]:
    """Train the requested networks on noise-free echoes; write checkpoints
    and per-epoch CSV logs; returns the checkpoint paths by kind."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    op, bundle = build_experiment(cfg)
    paths = {}
    for kind in kinds:
        model = build_model(kind, op, cfg, cfg.seed)
        ckpt = fit(model, op, bundle, cfg, log_path=out_dir / f"train_log_{kind}.csv")
        path = checkpoint_path(out_dir, kind)
        save_checkpoint(path, ckpt)
        paths[kind] = path
    return paths


def load_trained_model(cfg: ExperimentConfig, op: ImagingOperator, kind: str | None, path):
    """Rebuild a network of the given kind (None: the kind the checkpoint was
    saved as) and restore checkpoint weights.

    Checks, in order: that ``path`` exists (else :class:`ConfigError`);
    that it reads as a checkpoint of a known kind (:func:`load_checkpoint`);
    that its config has ``cfg``'s scene (:func:`check_scene`); then the
    kind, the parameter names and their shapes (:func:`restore_model`).
    Each failure after the first raises :class:`FormatError`.
    """
    path = Path(path)
    if not path.exists():
        method = f" for method {kind!r}" if kind else ""
        raise ConfigError(f"missing checkpoint{method}: {path} (run `radarqi train` first)")
    ckpt = load_checkpoint(path)
    saved = ckpt.config
    check_scene(cfg, vars(saved), f"checkpoint {path}")
    model = build_model(kind or ckpt.kind, op, saved, saved.seed)
    restore_model(model, ckpt)
    return model


# ---------------------------------------------------------------------------
# Method evaluation
# ---------------------------------------------------------------------------


def _runners(cfg: ExperimentConfig, models: dict) -> dict:
    """FISTA at the config's solver settings, then each network in ``models``
    order; every runner maps ``(echoes, op)`` to (n, P) maps."""
    solver_cfg = FistaConfig(lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter)
    runners = {"fista": lambda echoes, op: fista_solve_many(op.matrix, echoes, solver_cfg, op)}
    for kind, model in models.items():
        runners[kind] = partial(predict_maps, model)
    return runners


def run_methods(
    runners: dict, op: ImagingOperator, truth: np.ndarray, echoes: np.ndarray, timed: bool = False
) -> dict[str, MetricsReport]:
    """Run each runner on identical echoes through ``op`` and score its maps
    against the (n, side**2) ``truth``; reports keep the runners' order.

    With ``timed``, each method is warmed on one echo first and then timed
    over the full batch, so all methods share sample count and warm caches.
    """
    side = math.isqrt(truth.shape[-1])
    reports = {}
    for method, run in runners.items():
        elapsed = float("nan")
        if timed:
            run(echoes[:1], op)
            start = time.perf_counter()
        maps = run(echoes, op)
        if timed:
            elapsed = (time.perf_counter() - start) / len(echoes)
        reports[method] = MetricsReport(maps, *image_quality(truth, maps, side), elapsed)
    return reports


def _write_samples(path, column: str, labels, reports: dict[str, MetricsReport]) -> None:
    """Per-sample CSV: one (method, label, mse, ssim) row per method and
    sample, the label column named ``column``."""
    rows = [
        (m, name, rep.per_sample_mse[i], rep.per_sample_ssim[i])
        for m, rep in reports.items()
        for i, name in enumerate(labels)
    ]
    rio.write_csv(path, ["method", column, "mse", "ssim"], rows)


def _write_grids(out_dir, prefix, truth, reports, side, n_samples=8):
    """One PGM per method: rows of truth, clamped reconstruction and error."""
    truth = truth[:n_samples].reshape(-1, side, side)
    for method, rep in reports.items():
        recon = np.clip(rep.maps[:n_samples], 0.0, 1.0).reshape(-1, side, side)
        rows = [[t, r, np.abs(t - r)] for t, r in zip(truth, recon)]
        rio.write_pgm(Path(out_dir) / f"{prefix}_{method}.pgm", rio.image_grid(rows))


def _write_curve(path, points) -> None:
    """SSIM-curve raster of (x, ssim) points; fewer than two draw no curve."""
    if len(points) >= 2:
        rio.write_pgm(path, rio.curve_raster(*zip(*points)))


def compare_methods(
    cfg: ExperimentConfig,
    op: ImagingOperator,
    models: dict,
    test_maps: np.ndarray,
    test_echoes: np.ndarray,
    out_dir,
) -> dict[str, MetricsReport]:
    """Four-method comparison on identical echoes.

    Writes ``comparison_summary.csv`` and ``comparison_samples.csv`` (both
    byte-deterministic), truth/reconstruction/error grids per method, and
    wall-clock timings to ``timing.txt``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_methods(_runners(cfg, models), op, test_maps, test_echoes, timed=True)

    summary_rows = [(m, len(test_maps), rep.mean_mse, rep.mean_ssim) for m, rep in reports.items()]
    rio.write_csv(
        out_dir / "comparison_summary.csv",
        ["method", "n_samples", "mean_mse", "mean_ssim"],
        summary_rows,
    )
    _write_samples(out_dir / "comparison_samples.csv", "sample", range(len(test_maps)), reports)
    with open(out_dir / "timing.txt", "w", encoding="utf-8") as f:
        f.write("# wall-clock seconds per sample; not covered by determinism\n")
        for m, rep in reports.items():
            f.write(f"{m} {rep.runtime_per_sample:.6f}\n")
    _write_grids(out_dir, "grid", test_maps, reports, cfg.side_cells)
    return reports


def sweep(
    cfg: ExperimentConfig,
    models: dict,
    truth: np.ndarray,
    conditions,
    column: str,
    stem: str,
    out_dir,
) -> list[tuple[float | None, dict[str, MetricsReport]]]:
    """Score every method on each ``(x, op, echoes)`` condition against the
    (n, P) ``truth``; returns ``(x, reports)`` per condition, in the listed
    order, a repeated ``x`` included.

    Writes ``<stem>.csv`` with one ``<column>,method,mean_mse,mean_ssim`` row
    per condition and method (an ``x`` of None as ``none``), and one
    SSIM-vs-``x`` curve raster ``<stem>_ssim_<method>.pgm`` per method over
    the conditions whose ``x`` is not None.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runners = _runners(cfg, models)
    results = [(x, run_methods(runners, op, truth, echoes)) for x, op, echoes in conditions]
    rio.write_csv(
        out_dir / f"{stem}.csv",
        [column, "method", "mean_mse", "mean_ssim"],
        [(x, m, rep.mean_mse, rep.mean_ssim) for x, reps in results for m, rep in reps.items()],
        comments=[f"n_samples = {len(truth)}"],
    )
    for method in runners:
        curve = [(x, reps[method].mean_ssim) for x, reps in results if x is not None]
        _write_curve(out_dir / f"{stem}_ssim_{method}.pgm", curve)
    return results


def snr_conditions(op: ImagingOperator, echoes: np.ndarray, snr_list, seed: int) -> list:
    """Sweep conditions of the denoising task: the noise-free ``echoes``
    (x None), then the k-th listed SNR [dB] as a copy re-noised with seed
    ``seed + k``; all through ``op``. The copies are made up front, so a
    bad SNR fails before any method runs."""
    return [
        (snr, op, noisy_echoes(echoes, snr, seed + k)) for k, snr in enumerate([None, *snr_list])
    ]


def f0_conditions(cfg: ExperimentConfig, truth: np.ndarray, f0_list_ghz):
    """Sweep conditions of the frequency-migration task, one per listed
    start frequency [GHz]: the operator rebuilt at it and the noise-free
    echoes of ``truth`` through that operator, built as the sweep reaches
    it.

    The classic solver and the frozen-block network recompute their step
    from the new operator, while learned block scalars stay fixed; network
    weights never change.
    """
    for f0_ghz in f0_list_ghz:
        op = build_operator(cfg, f0_hz=f0_ghz * 1e9)
        yield f0_ghz, op, synthesize_echoes(op.matrix, truth)


def unseen_shape_eval(
    cfg: ExperimentConfig, op: ImagingOperator, models: dict, out_dir
) -> dict[str, MetricsReport]:
    """Evaluate on targets never seen in training (shapes and letters),
    resampled to the configured ``side_cells`` grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rasters = shape_rasters()
    maps = rasters_to_maps(np.stack(list(rasters.values())), cfg.side_cells)
    reports = run_methods(_runners(cfg, models), op, maps, synthesize_echoes(op.matrix, maps))
    _write_samples(out_dir / "shapes.csv", "shape", list(rasters), reports)
    _write_grids(out_dir, "shapes_grid", maps, reports, cfg.side_cells, n_samples=len(maps))
    return reports
