"""Self-test of the benchmark: every workload at a tiny scale (side 28 kept).

Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from radarqi import fista, models  # noqa: E402
from radarqi.config import ExperimentConfig  # noqa: E402

import workloads  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def tiny_scale() -> workloads.Scale:
    cfg = ExperimentConfig(
        n_antennas=3,
        n_freqs=10,
        n_blocks=6,
        train_size=24,
        val_size=8,
        test_size=8,
        epochs=1,
        batch_size=8,
        fista_max_iter=50,
    )
    return workloads.Scale(cfg, snr_samples=4, f0_samples=4, b1_calls=3, tol_echoes=2, setup_repeats=2)


def run_tiny(workload, trace, tmp_path):
    return workloads.run(workload, tiny_scale(), 3, 0.1, trace, tmp_path, threads=2)


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(workload, tmp_path):
    result = run_tiny(workload, False, tmp_path)
    assert result.correct, result.errors
    assert {n: unit for n, (_, unit, _) in result.metrics.items()} == declared("end_to_end")
    assert all(np.isfinite(v) and v > 0 for v, _, _ in result.metrics.values())

    traced = run_tiny(workload, True, tmp_path)
    assert traced.correct, traced.errors
    assert {row.name: row.unit for row in traced.layers} == declared("per_layer")
    assert all(np.isfinite(row.value) and row.threads == 2 for row in traced.layers)


def test_non_finite_output_counts_as_failure(tmp_path, monkeypatch):
    def nan_solve(a, echoes, cfg, op=None):
        return np.full((len(echoes), op.n_cells), np.nan)

    monkeypatch.setattr(fista, "fista_solve_many", nan_solve)
    result = run_tiny("reconstruct_fista", False, tmp_path)
    assert not result.correct
    assert result.failed == 1 and result.attempted > 1
    assert result.metrics == {}
    assert any("non-finite" in e for e in result.errors)


def test_batch_one_must_match_batched_output(tmp_path, monkeypatch):
    forward = models.LFistaResNet.forward

    def drifting_forward(self, echoes, op=None):
        out = forward(self, echoes, op)
        return out * (1.0 + 1e-6) if np.ndim(echoes) == 1 else out

    monkeypatch.setattr(models.LFistaResNet, "forward", drifting_forward)
    result = run_tiny("infer_sweep", False, tmp_path)
    assert not result.correct and result.failed == 1
    assert "batch-1 output differs" in result.errors[0]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reconstruct_fista", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
