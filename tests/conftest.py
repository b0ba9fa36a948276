"""Shared test helpers: finite-difference gradients, the production-scale
scene and operator, and a runner for the CLI of this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radarqi.config import ExperimentConfig
from radarqi.fista import ImagingOperator
from radarqi.harness import build_scene


def finite_difference_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return grad


def relative_grad_error(analytic, numeric, floor=1e-10):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture(scope="session")
def table1_scene():
    cfg = ExperimentConfig()
    grid, array, sweep, matrix = build_scene(cfg)
    return cfg, grid, array, sweep, matrix


@pytest.fixture(scope="session")
def table1_op(table1_scene):
    _, _, _, _, matrix = table1_scene
    return ImagingOperator(matrix)


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, cwd):
    """Invoke the CLI of this checkout in a subprocess; returns CompletedProcess.

    The absolute ``src`` path goes first on PYTHONPATH, because a relative
    entry does not resolve from ``cwd``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "radarqi.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )
