"""Benchmark of radarqi: FISTA reconstruction, unrolled-network training and
inference sweeps, run in-process on the paper geometry.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reconstruct_fista --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count. The exit code is 0 only
when every operation succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# BLAS thread count of every run, pinned before numpy loads.
BLAS_THREADS = 2
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("reconstruct_fista", "train_unrolled", "infer_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_program():
    """Import radarqi from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "radarqi" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'radarqi'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import radarqi

    if Path(radarqi.__file__).resolve().parent != (SRC / "radarqi").resolve():
        sys.exit(f"error: imported radarqi from {radarqi.__file__}, not from {SRC}")


def blas_version(module) -> str:
    try:
        return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (AttributeError, KeyError, TypeError):  # older builds keep no such record
        return "unknown"


def run_record(args, config_text: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
    }


def run_one(args) -> int:
    import_program()
    import workloads

    scale = workloads.paper_scale()
    record = run_record(args, scale.cfg.to_text())
    print("# run " + json.dumps(record, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            args.workload, scale, args.seed, args.seconds, bool(args.trace), workdir, BLAS_THREADS
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if args.trace:
        for row in result.layers:
            print(
                f"{args.workload:18s} {row.name:36s} {row.value:14.6g} {row.unit:8s} "
                f"batch={row.batch} dtype={row.dtype} threads={row.threads}"
            )
            metrics[row.name] = {"value": row.value, "unit": row.unit}
    else:
        for name, (value, unit, samples) in result.metrics.items():
            print(f"{args.workload:18s} {name:36s} {value:14.6g} {unit:8s} n={samples}")
            metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit, samples) in result.info.items():
            print(f"{args.workload:18s} {name:36s} {value:14.6g} {unit:8s} n={samples} (not gated)")
    for error in result.errors:
        print(f"# failed: {error}")
    print(f"# operations: {result.failed} failed of {result.attempted} attempted")

    OUT.mkdir(parents=True, exist_ok=True)
    record.update(
        attempted=result.attempted,
        failed=result.failed,
        errors=result.errors,
        metrics=metrics,
        info=result.info,
        round_walls=result.round_walls,
        layers=[vars(row) for row in result.layers],
        spans=result.spans,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
