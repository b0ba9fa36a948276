"""Command-line interface.

Subcommands: synth, fista, train, infer, eval, sweep-snr, sweep-freq,
shapes. Exit codes: 0 success, 2 configuration error (including a missing
checkpoint), 3 data/format error, 4 numerical divergence. Exit 3 also covers
inputs made for another scene: an ``eval --echoes`` container whose sweep,
array (antenna count or design frequency), standoff, cell size or grid
differs from the config, that was made with another seed, whose echo count
differs from the test split, or whose header names another split (a
container that names none is taken as the test split); an ``infer``
container of another array (antenna count or design frequency), frequency
count, bandwidth, standoff, cell size or grid (its start frequency may
differ); and a checkpoint trained on another scene. A container that records
no standoff, cell size, grid or array design frequency (one written before
containers recorded them) is taken as made with the config's. It covers
corrupt inputs too: an echo container whose header values make no scene, a
checkpoint of an unknown kind, and a checkpoint whose ``[config]`` section
is not a valid config. An echo container or a checkpoint written before the
shared array layout of :mod:`radarqi.io` exits 3 with "unsupported ...
version"; ``radarqi synth`` or ``radarqi train`` writes a new one.

``eval``, ``sweep-snr``, ``sweep-freq`` and ``shapes`` score every method, so
each needs all three network checkpoints.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import io as rio
from .config import SCENE_FIELDS, ExperimentConfig, apply_fast_profile, load_config
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
    f0_conditions,
    load_trained_model,
    noisy_echoes,
    prepare_dataset,
    snr_conditions,
    sweep,
    train_pipeline,
    unseen_shape_eval,
)
from .models import predict_maps


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--out-dir", default="out", help="artifact output directory")


def _add_dataset(p: argparse.ArgumentParser) -> None:
    """The shared options plus those of the subcommands that build the
    digit dataset; fista, infer and shapes read none of these."""
    _add_shared(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--fast",
        action="store_true",
        help="desk-scale profile: 200/50/100 split, 20 epochs",
    )
    p.add_argument("--mnist-dir", help="directory with MNIST IDX files")


# Command-line options that override a config field, by option dest; the
# config's range check answers them before the output directory is made.
_OVERRIDES = {"seed": "seed", "lam": "fista_lambda", "max_iter": "fista_max_iter"}


def _setup(args) -> tuple[ExperimentConfig, Path]:
    """The run's config, with command-line overrides, and its output directory."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {field: getattr(args, dest, None) for dest, field in _OVERRIDES.items()}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if getattr(args, "mnist_dir", None):
        cfg = dataclasses.replace(cfg, mnist_dir=args.mnist_dir)
    if getattr(args, "fast", False):
        cfg = apply_fast_profile(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _load_container(cfg: ExperimentConfig, path):
    """An echo container's echoes, the operator of the scene they were made
    with, and its header. The operator takes every scene field the header
    records and the config's value of each one it does not: its sweep
    starts at the header's ``f0_hz``, and its antennas are spaced for the
    recorded ``array_f0_hz``, or else for the config's ``f0_hz``. Header
    values that make no scene raise FormatError."""
    echoes, meta = rio.load_echoes(path)
    recorded = {field: meta[field] for field in SCENE_FIELDS if field in meta and field != "f0_hz"}
    try:
        scene = dataclasses.replace(cfg, **recorded, f0_hz=meta.get("array_f0_hz", cfg.f0_hz))
        return echoes, build_operator(scene, f0_hz=meta["f0_hz"]), meta
    except (ConfigError, ValueError) as exc:
        raise FormatError(f"echo container {path} makes no scene: {exc}") from exc


def _check_samples(args) -> None:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")


def _load_models(cfg, op, args):
    ckpt_dir = Path(getattr(args, "checkpoint_dir", None) or args.out_dir)
    return {k: load_trained_model(cfg, op, k, checkpoint_path(ckpt_dir, k)) for k in NETWORK_KINDS}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg, out = _setup(args)
    f0_hz = cfg.f0_hz if args.f0_ghz is None else args.f0_ghz * 1e9
    *_, matrix = build_scene(cfg, f0_hz=f0_hz)
    bundle = prepare_dataset(cfg, matrix)
    echoes = noisy_echoes(getattr(bundle, f"{args.split}_echoes"), args.snr_db, cfg.seed)
    path = out / f"echoes_{args.split}.bin"
    rio.save_echoes(
        path,
        echoes,
        f0_hz=f0_hz,
        bandwidth_hz=cfg.bandwidth_hz,
        n_freqs=cfg.n_freqs,
        n_antennas=cfg.n_antennas,
        snr_db=args.snr_db,
        seed=cfg.seed,
        split=args.split,
        side_cells=cfg.side_cells,
        cell_size_m=cfg.cell_size_m,
        standoff_m=cfg.standoff_m,
        array_f0_hz=cfg.f0_hz,
    )
    print(f"wrote {len(echoes)} echoes to {path}")
    return 0


def cmd_fista(args) -> int:
    cfg, out = _setup(args)
    echoes, op, _ = _load_container(cfg, args.echoes)
    solver_cfg = FistaConfig(
        lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter, record_objective=args.record_objective
    )
    result = fista_solve(op.matrix, echoes, solver_cfg, op)
    if args.record_objective:
        for i, trace in enumerate(result.objective_trace):
            rio.write_csv(
                out / f"fista_objective_{i:05d}.csv",
                ["iteration", "objective"],
                list(enumerate(trace)),
            )
    side = math.isqrt(op.n_cells)  # the container's grid
    for i, est in enumerate(result.estimate):
        rio.write_pgm(out / f"fista_{i:05d}.pgm", est.reshape(side, side))
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
    echoes, op, meta = _load_container(cfg, args.echoes)
    # another start frequency is the frequency-migration test; the array is the scene's
    fields = ["array_f0_hz" if field == "f0_hz" else field for field in SCENE_FIELDS]
    check_scene(cfg, meta, f"echo container {args.echoes}", fields)
    model = load_trained_model(cfg, op, None, args.checkpoint)
    maps = predict_maps(model, echoes, op)
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
        fields = (*SCENE_FIELDS, "array_f0_hz", "seed")
        check_scene(cfg, meta, f"echo container {args.echoes}", fields)
        if len(test_echoes) != len(bundle.test_maps):
            raise FormatError(
                f"echo container has {len(test_echoes)} echoes but the test "
                f"split has {len(bundle.test_maps)}"
            )
        if meta.get("split", "test") != "test":
            raise FormatError(
                f"echo container {args.echoes} holds the {meta['split']} split, not the test split"
            )
    models = _load_models(cfg, op, args)
    reports = compare_methods(cfg, op, models, bundle.test_maps, test_echoes, out)
    for method, rep in reports.items():
        print(
            f"{method}: mse={rep.mean_mse:.4f} ssim={rep.mean_ssim:.3f} "
            f"({rep.runtime_per_sample * 1e3:.1f} ms/sample)"
        )
    return 0


def cmd_sweep(args) -> int:
    """sweep-snr and sweep-freq: every method on the test split's first
    ``--samples`` maps, once per listed SNR or start frequency."""
    _check_samples(args)
    cfg, out = _setup(args)
    op, bundle = build_experiment(cfg)
    n = min(args.samples, len(bundle.test_maps))
    truth = bundle.test_maps[:n]
    models = _load_models(cfg, op, args)
    if args.command == "sweep-snr":
        name, unit, column, stem = "snr", "dB", "snr_db", "sweep_snr"
        snr_list = args.snr_db or SNR_GRID_DB
        conditions = snr_conditions(op, bundle.test_echoes[:n], snr_list, cfg.seed)
    else:
        name, unit, column, stem = "f0", "GHz", "f0_ghz", "sweep_freq"
        conditions = f0_conditions(cfg, truth, args.f0_ghz or F0_GRID_GHZ)
    for x, reports in sweep(cfg, models, truth, conditions, column, stem, out):
        value = "none" if x is None else f"{x:g} {unit}"
        summary = " ".join(f"{m}={rep.mean_ssim:.3f}" for m, rep in reports.items())
        print(f"{name} {value} ssim: {summary}")
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
    _add_dataset(p)
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
    _add_dataset(p)
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
    _add_dataset(p)
    p.add_argument("--echoes", help="optional echo container replacing the test echoes")
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-snr", help="noise-robustness sweep of every method")
    _add_dataset(p)
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--snr-db", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sweep-freq", help="center-frequency generalization sweep")
    _add_dataset(p)
    p.add_argument("--checkpoint-dir", help="directory with checkpoints (default: out dir)")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--f0-ghz", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_sweep)

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
