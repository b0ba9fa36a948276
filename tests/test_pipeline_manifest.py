"""scripts/pipeline_manifest.py: ``compare`` reports and exits 1 on any
artifact that differs or exists on one side only, and ``run`` covers every
subcommand of the CLI."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from radarqi import io as rio
from radarqi.cli import build_parser

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pipeline_manifest.py"


@pytest.fixture(scope="module")
def manifest():
    spec = importlib.util.spec_from_file_location("pipeline_manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root: Path, scale: float, pixel: float, extra: str | None = None) -> Path:
    """One step directory with a CSV, a PGM and an echo container, plus the
    files that run writes at the top level, which compare ignores."""
    step = root / "step"
    step.mkdir(parents=True)
    rio.write_csv(step / "table.csv", ["method", "value"], [("fista", 0.5 * scale), ("dnn", 0.25)])
    rio.write_pgm(step / "image.pgm", np.full((4, 4), 0.5) + np.eye(4) * pixel)
    echoes = np.arange(6, dtype=float).reshape(2, 3) * scale * (1 + 1j)
    rio.save_echoes(step / "echoes.bin", echoes, 30e9, 5e9, 3, 1, None, 0)
    (step / "timing.txt").write_text(f"{scale}\n")
    (root / "steps.txt").write_text(f"step {scale}\n")
    if extra:
        (step / extra).write_text("x\n")
    return root


def test_identical_runs_compare_equal(manifest, tmp_path, capsys):
    a = write_run(tmp_path / "a", 1.0, 0.0)
    b = write_run(tmp_path / "b", 1.0, 0.0)
    assert manifest.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical: 3 of 3 files\n"


def test_differing_runs_are_reported_and_exit_1(manifest, tmp_path, capsys):
    a = write_run(tmp_path / "a", 1.0, 0.0, extra="only_a.txt")
    b = write_run(tmp_path / "b", 2.0, 0.25)
    assert manifest.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identical: 0 of 4 files"
    assert lines[1] == "only in A: step/only_a.txt"
    report = dict(line.split(": ", 1) for line in lines[2:])
    assert report["step/table.csv"] == "max abs 0.5, max rel 0.5"
    assert report["step/image.pgm"] == "4 pixels differ, by at most 63 grey levels"
    assert report["step/echoes.bin"] == "echoes max abs 7.07, max rel 0.5"


def test_a_file_on_one_side_alone_exits_1(manifest, tmp_path, capsys):
    a = write_run(tmp_path / "a", 1.0, 0.0)
    b = write_run(tmp_path / "b", 1.0, 0.0, extra="only_b.txt")
    assert manifest.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["identical: 3 of 4 files", "only in B: step/only_b.txt"]


def test_the_pipeline_runs_every_subcommand(manifest, tmp_path):
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    commands = {args[0] for _, args in manifest.pipeline(tmp_path)}
    assert commands == set(subparsers.choices)
