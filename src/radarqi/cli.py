"""Command-line interface.

Subcommands: synth, fista, train, infer, eval, sweep-snr, sweep-freq,
shapes. Exit codes: 0 success, 2 configuration error (including a missing
checkpoint), 3 data/format error, 4 numerical divergence. Exit 3 also covers
inputs made for another scene: an ``eval --echoes`` container whose sweep or
array differs from the config or whose echo count differs from the test
split, and a checkpoint trained on another scene.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as rio
from .config import ExperimentConfig, apply_fast_profile, load_config
from .errors import ConfigError, DivergedError, FormatError
from .fista import FistaConfig, fista_solve
from .harness import (
    F0_GRID_GHZ,
    NETWORK_KINDS,
    SNR_GRID_DB,
    build_experiment,
    build_operator,
    build_scene,
    check_scene,
    checkpoint_path,
    compare_methods,
    load_trained_model,
    noisy_echoes,
    prepare_dataset,
    sweep_center_frequency,
    sweep_snr,
    train_pipeline,
    unseen_shape_eval,
)
from .models import predict_maps


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", default="out", help="artifact output directory")
    p.add_argument(
        "--fast",
        action="store_true",
        help="desk-scale profile: 200/50/100 split, 20 epochs",
    )
    p.add_argument("--mnist-dir", help="directory with MNIST IDX files")


def _setup(args) -> tuple[ExperimentConfig, Path]:
    """The run's config, with command-line overrides, and its output directory."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "mnist_dir", None):
        cfg = dataclasses.replace(cfg, mnist_dir=args.mnist_dir)
    if args.fast:
        cfg = apply_fast_profile(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _container_operator(cfg: ExperimentConfig, meta: dict):
    """The operator of the sweep and array an echo container was made with;
    the antenna spacing stays that of the configured frequency."""
    scene = dataclasses.replace(
        cfg,
        n_antennas=meta["n_antennas"],
        bandwidth_hz=meta["bandwidth_hz"],
        n_freqs=meta["n_freqs"],
    )
    return build_operator(scene, f0_hz=meta["f0_hz"])


def _check_samples(args) -> None:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")


def _load_models(cfg, op, args, kinds=NETWORK_KINDS):
    ckpt_dir = Path(getattr(args, "checkpoint_dir", None) or args.out_dir)
    return {k: load_trained_model(cfg, op, k, checkpoint_path(ckpt_dir, k)) for k in kinds}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg, out = _setup(args)
    f0_hz = None if args.f0_ghz is None else args.f0_ghz * 1e9
    _, _, sweep, matrix = build_scene(cfg, f0_hz=f0_hz)
    bundle = prepare_dataset(cfg, matrix)
    echoes = noisy_echoes(getattr(bundle, f"{args.split}_echoes"), args.snr_db, cfg.seed)
    path = out / f"echoes_{args.split}.bin"
    rio.save_echoes(
        path,
        echoes,
        f0_hz=sweep.f0,
        bandwidth_hz=sweep.bandwidth,
        n_freqs=sweep.n_freqs,
        n_antennas=cfg.n_antennas,
        snr_db=args.snr_db,
        seed=cfg.seed,
    )
    print(f"wrote {len(echoes)} echoes to {path}")
    return 0


def cmd_fista(args) -> int:
    cfg, out = _setup(args)
    echoes, meta = rio.load_echoes(args.echoes)
    op = _container_operator(cfg, meta)
    solver_cfg = FistaConfig(
        lam=cfg.fista_lambda if args.lam is None else args.lam,
        max_iter=cfg.fista_max_iter if args.max_iter is None else args.max_iter,
        record_objective=args.record_objective,
    )
    result = fista_solve(op.matrix, echoes, solver_cfg, op)
    if args.record_objective:
        for i, trace in enumerate(result.objective_trace):
            rio.write_csv(
                out / f"fista_objective_{i:05d}.csv",
                ["iteration", "objective"],
                list(enumerate(trace)),
            )
    side = cfg.side_cells
    for i, est in enumerate(result.estimate):
        rio.write_pgm(out / f"fista_{i:05d}.pgm", np.clip(est, 0, 1).reshape(side, side))
    print(f"reconstructed {len(echoes)} echoes into {out}")
    return 0


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    kinds = NETWORK_KINDS if args.model == "all" else (args.model,)
    paths = train_pipeline(cfg, out, kinds)
    for kind, path in paths.items():
        print(f"trained {kind}: {path}")
    return 0


def cmd_infer(args) -> int:
    cfg, out = _setup(args)
    echoes, meta = rio.load_echoes(args.echoes)
    op = _container_operator(cfg, meta)
    model = load_trained_model(cfg, op, None, args.checkpoint)
    maps = np.clip(predict_maps(model, echoes, op), 0.0, 1.0)
    side = cfg.side_cells
    for i, m in enumerate(maps):
        rio.write_pgm(out / f"infer_{i:05d}.pgm", m.reshape(side, side))
    print(f"reconstructed {len(maps)} echoes with {model.kind} into {out}")
    return 0


def cmd_eval(args) -> int:
    cfg, out = _setup(args)
    op, bundle = build_experiment(cfg)
    test_echoes = bundle.test_echoes
    if args.echoes:
        test_echoes, meta = rio.load_echoes(args.echoes)
        check_scene(cfg, meta, f"echo container {args.echoes}")
        if len(test_echoes) != len(bundle.test_maps):
            raise FormatError(
                f"echo container has {len(test_echoes)} echoes but the test "
                f"split has {len(bundle.test_maps)}"
            )
    models = _load_models(cfg, op, args)
    reports = compare_methods(cfg, op, models, bundle.test_maps, test_echoes, out)
    for method, rep in reports.items():
        print(
            f"{method}: mse={rep.mean_mse:.4f} ssim={rep.mean_ssim:.3f} "
            f"({rep.runtime_per_sample * 1e3:.1f} ms/sample)"
        )
    return 0


def cmd_sweep_snr(args) -> int:
    _check_samples(args)
    cfg, out = _setup(args)
    op, bundle = build_experiment(cfg)
    n = min(args.samples, len(bundle.test_maps))
    models = _load_models(cfg, op, args, kinds=("lfista_resnet",))
    results = sweep_snr(
        cfg,
        op,
        models["lfista_resnet"],
        bundle.test_maps[:n],
        bundle.test_echoes[:n],
        args.snr_db or SNR_GRID_DB,
        cfg.seed,
        out,
    )
    for snr, rep in results:
        label = "none" if snr is None else f"{snr:g} dB"
        print(f"snr {label}: mse={rep.mean_mse:.4f} ssim={rep.mean_ssim:.3f}")
    return 0


def cmd_sweep_freq(args) -> int:
    _check_samples(args)
    cfg, out = _setup(args)
    op, bundle = build_experiment(cfg)
    n = min(args.samples, len(bundle.test_maps))
    models = _load_models(cfg, op, args)
    all_reports = sweep_center_frequency(
        cfg, models, bundle.test_maps[:n], args.f0_ghz or F0_GRID_GHZ, out
    )
    for f0_ghz, reports in all_reports.items():
        summary = " ".join(
            f"{m}={rep.mean_ssim:.3f}" for m, rep in reports.items()
        )
        print(f"f0 {f0_ghz:g} GHz ssim: {summary}")
    return 0


def cmd_shapes(args) -> int:
    cfg, out = _setup(args)
    op = build_operator(cfg)
    models = _load_models(cfg, op, args)
    reports = unseen_shape_eval(cfg, op, models, out)
    for method, rep in reports.items():
        print(f"{method}: mse={rep.mean_mse:.4f} ssim={rep.mean_ssim:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarqi",
        description="Sparse-sampled FMCW radar quantitative imaging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an echo container for one split")
    _add_shared(p)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--snr-db", type=float, default=None, help="noise level; omit for noise-free")
    p.add_argument("--f0-ghz", type=float, default=None, help="override sweep start frequency")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fista", help="classic solver on an echo container")
    _add_shared(p)
    p.add_argument("--echoes", required=True, help="input echo container")
    p.add_argument("--lambda", dest="lam", type=float, help="default: the config's fista_lambda")
    p.add_argument("--max-iter", type=int, help="default: the config's fista_max_iter")
    p.add_argument(
        "--record-objective",
        action="store_true",
        help="also write each echo's objective at every iterate to fista_objective_<i>.csv",
    )
    p.set_defaults(func=cmd_fista)

    p = sub.add_parser("train", help="train the reconstruction networks")
    _add_shared(p)
    p.add_argument(
        "--model",
        choices=("all",) + NETWORK_KINDS,
        default="all",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="reconstruct an echo container with a checkpoint")
    _add_shared(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--echoes", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="four-method comparison on the test split")
    _add_shared(p)
    p.add_argument("--echoes", help="optional echo container replacing the test echoes")
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-snr", help="noise-robustness sweep of the trained model")
    _add_shared(p)
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--snr-db", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_sweep_snr)

    p = sub.add_parser("sweep-freq", help="center-frequency generalization sweep")
    _add_shared(p)
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--f0-ghz", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_sweep_freq)

    p = sub.add_parser("shapes", help="evaluate on unseen shape and letter targets")
    _add_shared(p)
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.set_defaults(func=cmd_shapes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    except (FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergedError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
