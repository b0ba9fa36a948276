"""Experiment harness: dataset assembly, the four-method comparison, and
the generalization sweeps (noise level, center frequency, unseen shapes).

Every artifact except ``timing.txt`` is a deterministic function of the
configuration, seed, and checkpoints; wall-clock measurements are kept out
of the CSV files on purpose.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from .models import build_model, predict_maps
from .training import (
    Checkpoint,
    TrainingData,
    fit,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)

METHOD_ORDER = ("fista", "fista_resnet", "lfista_resnet", "dnn")
NETWORK_KINDS = ("fista_resnet", "lfista_resnet", "dnn")

REFERENCE_FULL_SCALE = (
    "reference (full-scale training): fista mse=0.0124 ssim=0.872; "
    "fista_resnet mse=0.0065 ssim=0.925; lfista_resnet mse=0.0049 ssim=0.945; "
    "dnn mse=0.0263 ssim=0.661"
)

SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)
F0_GRID_GHZ = (28.0, 29.0, 30.0, 31.0, 32.0)


@dataclass
class MetricsReport:
    """Per-sample and mean quality metrics for one method."""

    method: str
    per_sample_mse: np.ndarray
    per_sample_ssim: np.ndarray
    mean_mse: float
    mean_ssim: float
    runtime_per_sample: float


@dataclass
class DatasetBundle(TrainingData):
    test_maps: np.ndarray
    test_echoes: np.ndarray


def build_scene(cfg: ExperimentConfig, f0_hz: float | None = None):
    """Grid, array, sweep, and the complex (m, P) sensing matrix from a config.

    ``f0_hz`` overrides the sweep start frequency only; the antenna array
    keeps the spacing of the configured (deployed) frequency.
    """
    grid = build_doi_grid(cfg.side_cells, cfg.cell_size_m)
    array = build_ula(cfg.n_antennas, cfg.f0_hz, cfg.standoff_m)
    sweep = build_sweep(cfg.f0_hz if f0_hz is None else f0_hz, cfg.bandwidth_hz, cfg.n_freqs)
    return grid, array, sweep, build_sensing_matrix(sweep, array, grid)


def build_operator(cfg: ExperimentConfig, f0_hz: float | None = None) -> ImagingOperator:
    """The imaging operator of :func:`build_scene`'s sensing matrix."""
    _, _, _, matrix = build_scene(cfg, f0_hz=f0_hz)
    return ImagingOperator(matrix)


def check_scene(cfg: ExperimentConfig, saved: dict, source: str) -> None:
    """Raise FormatError if ``saved``, a checkpoint's config fields or an echo
    container's header, records a scene field with another value than ``cfg``."""
    for field in SCENE_FIELDS:
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
    saved as) and restore checkpoint weights; a missing checkpoint raises
    :class:`ConfigError`, one trained on another scene :class:`FormatError`."""
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


def _method_runners(cfg: ExperimentConfig, op: ImagingOperator, models: dict):
    runners = {}
    solver_cfg = FistaConfig(lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter)
    runners["fista"] = lambda echoes, op=op: fista_solve_many(op.matrix, echoes, solver_cfg, op)
    for kind, model in models.items():
        runners[kind] = lambda echoes, op=op, model=model: predict_maps(model, echoes, op)
    return runners


def run_methods(
    cfg: ExperimentConfig,
    op: ImagingOperator,
    models: dict,
    truth: np.ndarray,
    echoes: np.ndarray,
    timed: bool = False,
) -> tuple[dict[str, MetricsReport], dict[str, np.ndarray]]:
    """Run every method on identical echoes; returns reports and maps.

    With ``timed``, each method is warmed on one echo first and then timed
    over the full batch, so all methods share sample count and warm caches.
    """
    runners = _method_runners(cfg, op, models)
    reports, recons = {}, {}
    for method in METHOD_ORDER:
        if method not in runners:
            continue
        run = runners[method]
        elapsed = float("nan")
        if timed:
            run(echoes[:1])
            start = time.perf_counter()
        recon = run(echoes)
        if timed:
            elapsed = (time.perf_counter() - start) / len(echoes)
        mses, ssims = image_quality(truth, recon, cfg.side_cells)
        reports[method] = MetricsReport(
            method, mses, ssims, float(np.mean(mses)), float(np.mean(ssims)), elapsed
        )
        recons[method] = recon
    return reports, recons


def _write_grids(out_dir, prefix, truth, recons, side, n_samples=8):
    for method, recon in recons.items():
        clamped = np.clip(recon, 0.0, 1.0)
        rows = []
        for i in range(min(n_samples, len(truth))):
            t = truth[i].reshape(side, side)
            r = clamped[i].reshape(side, side)
            rows.append([t, r, np.abs(t - r)])
        rio.write_pgm(Path(out_dir) / f"{prefix}_{method}.pgm", rio.image_grid(rows))


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
    reports, recons = run_methods(cfg, op, models, test_maps, test_echoes, timed=True)

    summary_rows = [
        (m, len(test_maps), reports[m].mean_mse, reports[m].mean_ssim)
        for m in METHOD_ORDER
        if m in reports
    ]
    rio.write_csv(
        out_dir / "comparison_summary.csv",
        ["method", "n_samples", "mean_mse", "mean_ssim"],
        summary_rows,
        comments=[REFERENCE_FULL_SCALE],
    )
    sample_rows = []
    for m in METHOD_ORDER:
        if m not in reports:
            continue
        rep = reports[m]
        for i in range(len(test_maps)):
            sample_rows.append((m, i, rep.per_sample_mse[i], rep.per_sample_ssim[i]))
    rio.write_csv(
        out_dir / "comparison_samples.csv",
        ["method", "sample", "mse", "ssim"],
        sample_rows,
    )
    with open(out_dir / "timing.txt", "w", encoding="utf-8") as f:
        f.write("# wall-clock seconds per sample; not covered by determinism\n")
        for m, rep in reports.items():
            f.write(f"{m} {rep.runtime_per_sample:.6f}\n")
    _write_grids(out_dir, "grid", test_maps, recons, cfg.side_cells)
    return reports


def sweep_snr(
    cfg: ExperimentConfig,
    op: ImagingOperator,
    model,
    test_maps: np.ndarray,
    test_echoes: np.ndarray,
    snr_list,
    seed: int,
    out_dir,
) -> list[tuple[float | None, MetricsReport]]:
    """Evaluate one trained model on echoes re-noised at each SNR.

    The noise-free entry is listed first (snr_db = none). Writes
    ``sweep_snr.csv`` and a small SSIM-vs-SNR curve raster.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [None] + list(snr_list)
    results = []
    rows = []
    for k, snr in enumerate(entries):
        echoes = noisy_echoes(test_echoes, snr, seed + k)
        recon = predict_maps(model, echoes, op)
        mses, ssims = image_quality(test_maps, recon, cfg.side_cells)
        rep = MetricsReport(
            model.kind, mses, ssims, float(np.mean(mses)), float(np.mean(ssims)), float("nan")
        )
        results.append((snr, rep))
        rows.append((("none" if snr is None else snr), rep.mean_mse, rep.mean_ssim))
    rio.write_csv(
        out_dir / "sweep_snr.csv",
        ["snr_db", "mean_mse", "mean_ssim"],
        rows,
        comments=[f"model = {model.kind}", f"n_samples = {len(test_maps)}"],
    )
    numeric = [(s, rep.mean_ssim) for s, rep in results if s is not None]
    if len(numeric) >= 2:
        xs, ys = zip(*numeric)
        rio.write_pgm(out_dir / "sweep_snr_ssim.pgm", rio.curve_raster(xs, ys))
    return results


def sweep_center_frequency(
    cfg: ExperimentConfig,
    models_by_kind: dict,
    test_maps: np.ndarray,
    f0_list_ghz,
    out_dir,
) -> dict[float, dict[str, MetricsReport]]:
    """Re-synthesize test echoes at shifted center frequencies and evaluate.

    The sensing operator is rebuilt per frequency: the classic solver and
    the frozen-block network recompute their step from the new operator,
    while learned block scalars stay fixed. Network weights never change.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    all_reports: dict[float, dict[str, MetricsReport]] = {}
    curve = []
    for f0_ghz in f0_list_ghz:
        op_f = build_operator(cfg, f0_hz=f0_ghz * 1e9)
        echoes = synthesize_echoes(op_f.matrix, test_maps)
        reports, _ = run_methods(cfg, op_f, models_by_kind, test_maps, echoes)
        all_reports[f0_ghz] = reports
        for m in METHOD_ORDER:
            if m in reports:
                rows.append((f0_ghz, m, reports[m].mean_mse, reports[m].mean_ssim))
        if "lfista_resnet" in reports:
            curve.append((f0_ghz, reports["lfista_resnet"].mean_ssim))
    rio.write_csv(
        out_dir / "sweep_freq.csv",
        ["f0_ghz", "method", "mean_mse", "mean_ssim"],
        rows,
        comments=[f"n_samples = {len(test_maps)}"],
    )
    if len(curve) >= 2:
        xs, ys = zip(*curve)
        rio.write_pgm(out_dir / "sweep_freq_ssim.pgm", rio.curve_raster(xs, ys))
    return all_reports


def unseen_shape_eval(
    cfg: ExperimentConfig,
    op: ImagingOperator,
    models: dict,
    out_dir,
    rasters: dict[str, np.ndarray] | None = None,
) -> dict[str, MetricsReport]:
    """Evaluate on targets never seen in training (shapes and letters),
    resampled to the configured ``side_cells`` grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rasters = rasters if rasters is not None else shape_rasters()
    names = list(rasters)
    maps = rasters_to_maps(np.stack([rasters[n] for n in names]), cfg.side_cells)
    echoes = synthesize_echoes(op.matrix, maps)
    reports, recons = run_methods(cfg, op, models, maps, echoes)
    rows = []
    for m in METHOD_ORDER:
        if m not in reports:
            continue
        for i, name in enumerate(names):
            rows.append((m, name, reports[m].per_sample_mse[i], reports[m].per_sample_ssim[i]))
    rio.write_csv(out_dir / "shapes.csv", ["method", "shape", "mse", "ssim"], rows)
    _write_grids(out_dir, "shapes_grid", maps, recons, cfg.side_cells, n_samples=len(names))
    return reports
