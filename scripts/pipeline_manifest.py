"""Run the fast-profile CLI pipeline and compare the artifacts of two runs.

    python scripts/pipeline_manifest.py run DIR
    python scripts/pipeline_manifest.py compare A B

``run`` runs the ``radarqi`` CLI of the checkout this script sits in, at one
BLAS thread, through every subcommand on the fast profile, each step into
its own directory under DIR:

- ``synth`` of the test split, the test split at 10 dB, the validation
  split, the validation split at 32 GHz and the validation split at 20 dB;
- ``train --fast``, then ``eval --fast --echoes`` with the 10 dB container;
- ``sweep-snr``, ``sweep-freq`` and ``shapes``;
- ``fista`` on the validation echoes with and without
  ``--record-objective``, and with it on the 20 dB container;
- ``infer`` with ``lfista_resnet`` on the test echoes and with
  ``fista_resnet`` on the 32 GHz container.

It writes ``DIR/MANIFEST.sha256``, the sorted ``sha256sum`` lines of every
artifact except ``timing.txt`` files (wall-clock times), and
``DIR/steps.txt``, the seconds each step took.

``compare`` prints how many artifacts of A and B hash the same, the ones
only one side has, and for each that differs: the largest absolute and
relative difference of a CSV's numeric cells or of each array of a
checkpoint or echo container (with the header lines that differ), and the
count and largest difference of a PGM's grey levels. It exits 0 when
both sides hold the same artifacts, byte for byte, and 1 otherwise. Run it
on two ``run`` directories, such as a parent commit's and a change's.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from radarqi.io import ECHO_MAGIC, ECHO_VERSION, read_container  # noqa: E402
from radarqi.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION  # noqa: E402

MANIFEST = "MANIFEST.sha256"
CONTAINERS = {
    ".ckpt": (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", "<f8"),
    ".bin": (ECHO_MAGIC, ECHO_VERSION, "echo container", "<c16"),
}


def pipeline(root: Path) -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of each step, in order."""
    train = str(root / "train")
    ckpt = str(root / "train" / "checkpoint_{}.ckpt")
    val = str(root / "val" / "echoes_val.bin")
    return [
        ("test", ["synth", "--fast"]),
        ("test_10db", ["synth", "--fast", "--snr-db", "10"]),
        ("val", ["synth", "--fast", "--split", "val"]),
        ("val_32ghz", ["synth", "--fast", "--split", "val", "--f0-ghz", "32"]),
        ("val_20db", ["synth", "--fast", "--split", "val", "--snr-db", "20"]),
        ("train", ["train", "--fast"]),
        ("eval_10db", ["eval", "--fast", "--checkpoint-dir", train,
                       "--echoes", str(root / "test_10db" / "echoes_test.bin")]),
        ("sweep_snr", ["sweep-snr", "--fast", "--checkpoint-dir", train]),
        ("sweep_freq", ["sweep-freq", "--fast", "--checkpoint-dir", train]),
        ("shapes", ["shapes", "--checkpoint-dir", train]),
        ("fista_val", ["fista", "--echoes", val]),
        ("fista_val_objective", ["fista", "--echoes", val, "--record-objective"]),
        ("fista_val_20db", ["fista", "--echoes", str(root / "val_20db" / "echoes_val.bin"),
                            "--record-objective"]),
        ("infer_test", ["infer", "--checkpoint", ckpt.format("lfista_resnet"),
                        "--echoes", str(root / "test" / "echoes_test.bin")]),
        ("infer_32ghz", ["infer", "--checkpoint", ckpt.format("fista_resnet"),
                         "--echoes", str(root / "val_32ghz" / "echoes_val.bin")]),
    ]


def artifacts(root: Path) -> dict[str, Path]:
    """Every file under ``root`` but timing files and this script's own."""
    return {
        p.relative_to(root).as_posix(): p
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "timing.txt" and p.parent != root
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(root: Path) -> int:
    root = root.resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    seconds = []
    for name, args in pipeline(root):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "radarqi.cli", *args, "--out-dir", str(root / name)],
            env=env, capture_output=True, text=True,
        )
        seconds.append(f"{name} {time.perf_counter() - start:.2f}")
        if proc.returncode != 0:
            print(f"step {name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
    lines = [f"{sha256(p)}  {rel}" for rel, p in artifacts(root).items()]
    (root / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "steps.txt").write_text("\n".join(seconds) + "\n", encoding="utf-8")
    print(f"{len(lines)} artifacts; manifest sha256 {sha256(root / MANIFEST)}")
    return 0


def largest_differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest |a - b| and largest |a - b| / max(|a|, |b|) (0 where both are 0)."""
    if a.shape != b.shape:
        return float("nan"), float("nan")
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros(diff.shape), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def csv_cells(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


def describe_csv(a: Path, b: Path) -> str:
    rows_a, rows_b = csv_cells(a), csv_cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "tables of another shape"
    x, y, text = [], [], 0
    for cell_a, cell_b in zip(sum(rows_a, []), sum(rows_b, [])):
        if cell_a == cell_b:
            continue
        try:
            x.append(float(cell_a))
            y.append(float(cell_b))
        except ValueError:
            text += 1
    abs_diff, rel_diff = largest_differences(np.array(x), np.array(y))
    note = f", {text} text cells differ" if text else ""
    return f"max abs {abs_diff:.3g}, max rel {rel_diff:.3g}{note}"


def describe_container(a: Path, b: Path) -> str:
    spec = CONTAINERS[a.suffix]
    head_a, arrays_a = read_container(a, *spec)
    head_b, arrays_b = read_container(b, *spec)
    parts = [f"header {sorted(set(head_a) ^ set(head_b))}"] if head_a != head_b else []
    if list(arrays_a) != list(arrays_b):
        parts.append(f"arrays {list(arrays_a)} vs {list(arrays_b)}")
    for name in [name for name in arrays_a if name in arrays_b]:
        abs_diff, rel_diff = largest_differences(arrays_a[name], arrays_b[name])
        if abs_diff:
            parts.append(f"{name} max abs {abs_diff:.3g}, max rel {rel_diff:.3g}")
    return "; ".join(parts) or "same header and arrays"


def describe_pgm(a: Path, b: Path) -> str:
    pixels = []
    for path in (a, b):
        data = path.read_bytes()
        width, height = (int(v) for v in data.split(b"\n")[1].split())
        pixels.append(np.frombuffer(data[-width * height :], dtype=np.uint8).astype(int))
    if pixels[0].shape != pixels[1].shape:
        return "images of another size"
    diff = np.abs(pixels[0] - pixels[1])
    return f"{np.count_nonzero(diff)} pixels differ, by at most {diff.max()} grey levels"


def compare(root_a: Path, root_b: Path) -> int:
    files_a, files_b = artifacts(root_a), artifacts(root_b)
    common = sorted(files_a.keys() & files_b.keys())
    differing = [rel for rel in common if sha256(files_a[rel]) != sha256(files_b[rel])]
    print(f"identical: {len(common) - len(differing)} of {len(files_a.keys() | files_b.keys())} files")
    for rel in sorted(files_a.keys() - files_b.keys()):
        print(f"only in A: {rel}")
    for rel in sorted(files_b.keys() - files_a.keys()):
        print(f"only in B: {rel}")
    describe = {".csv": describe_csv, ".pgm": describe_pgm, **dict.fromkeys(CONTAINERS, describe_container)}
    for rel in differing:
        how = describe.get(Path(rel).suffix)
        print(f"{rel}: {how(files_a[rel], files_b[rel]) if how else 'bytes differ'}")
    return 1 if differing or files_a.keys() != files_b.keys() else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "run":
        return run(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
