"""Experiment configuration: one flat key = value text file.

:class:`ExperimentConfig` is the one home of every hyperparameter's default
and valid range. The solver, the networks, the loss and the schedule are
built from it and take these values as required arguments.

Defaults reproduce the reference desk-scale setup: a 28x28 grid of 1 cm
cells imaged by 4 antennas at 2 m standoff sweeping 50 frequencies over
5 GHz from 30 GHz (200 measurements for 784 unknowns).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class ExperimentConfig:
    # scene geometry
    side_cells: int = 28
    cell_size_m: float = 0.01
    standoff_m: float = 2.0
    n_antennas: int = 4
    # frequency sweep
    f0_hz: float = 30e9
    bandwidth_hz: float = 5e9
    n_freqs: int = 50
    # dataset
    mnist_dir: str = ""
    train_size: int = 800
    val_size: int = 200
    test_size: int = 1000
    seed: int = 0
    # classic solver
    fista_lambda: float = 0.001
    fista_max_iter: int = 2000
    frozen_lambda: float = 0.01
    # network architecture
    n_blocks: int = 20
    res_channels: int = 14
    res_blocks: int = 2
    # training
    batch_size: int = 16
    epochs: int = 100
    learning_rate: float = 0.01
    plateau_factor: float = 0.1
    plateau_patience: int = 10
    loss_lambda1: float = 0.1
    loss_lambda2: float = 0.05

    def __post_init__(self):
        if self.side_cells < 1 or not 0 < self.cell_size_m < math.inf:
            raise ConfigError("side_cells must be >= 1 and cell_size_m finite and > 0")
        if not math.isfinite(self.standoff_m):
            raise ConfigError("standoff_m must be finite")
        if self.n_antennas < 1 or self.n_freqs < 1:
            raise ConfigError("n_antennas and n_freqs must be >= 1")
        if not (0 < self.f0_hz < math.inf and 0 < self.bandwidth_hz < math.inf):
            raise ConfigError("f0_hz and bandwidth_hz must be finite and > 0")
        if min(self.train_size, self.val_size, self.test_size) < 1:
            raise ConfigError("split sizes must be >= 1")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if min(self.n_blocks, self.res_channels, self.fista_max_iter) < 1:
            raise ConfigError("n_blocks, res_channels and fista_max_iter must be >= 1")
        if min(self.res_blocks, self.plateau_patience, self.seed) < 0:
            raise ConfigError("res_blocks, plateau_patience and seed must be >= 0")
        if not all(0 <= w < math.inf for w in (self.fista_lambda, self.loss_lambda1, self.loss_lambda2)):
            raise ConfigError("fista_lambda, loss_lambda1 and loss_lambda2 must be finite and >= 0")
        if not (0 < self.frozen_lambda < math.inf and 0 < self.learning_rate < math.inf):
            raise ConfigError("frozen_lambda and learning_rate must be finite and > 0")
        if not 0 < self.plateau_factor <= 1:
            raise ConfigError("plateau_factor must lie in (0, 1]")
        # a config file holds one stripped value per line
        if self.mnist_dir != self.mnist_dir.strip() or len(self.mnist_dir.splitlines()) > 1:
            raise ConfigError(
                f"mnist_dir must be one line without surrounding whitespace, got {self.mnist_dir!r}"
            )

    @property
    def n_cells(self) -> int:
        return self.side_cells * self.side_cells

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            text = repr(float(value)) if f.type == "float" else str(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

# The fields that fix the sensing matrix. An echo container or checkpoint
# made with other values describes another scene.
SCENE_FIELDS = (
    "side_cells", "cell_size_m", "standoff_m", "n_antennas", "f0_hz", "bandwidth_hz", "n_freqs"
)


def _parse_value(name: str, raw: str):
    ftype = _FIELDS[name].type
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from exc


def config_from_text(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; unknown keys are errors."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return config_from_text(path.read_text(encoding="utf-8"))


def apply_fast_profile(cfg: ExperimentConfig) -> ExperimentConfig:
    """Desk-scale profile for quick runs: 200/50/100 split, 20 epochs."""
    return dataclasses.replace(
        cfg, train_size=200, val_size=50, test_size=100, epochs=20
    )
