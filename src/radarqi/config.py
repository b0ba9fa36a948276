"""Experiment configuration: one flat key = value text file.

:class:`ExperimentConfig` is the one home of every hyperparameter's default
and valid range. The solver, the networks, the loss and the schedule are
built from it and take these values as required arguments.

:data:`RANGES` lists each bounded field once with the values it allows, and
a config outside them raises :class:`~radarqi.errors.ConfigError` reading
``<field> must be <rule>, got <value>``. :func:`parse_value` types a field's
text, for config files and for the echo-container header keys that record
a field (:mod:`radarqi.io`). :func:`format_value` writes every value as
text: config lines, container headers and CSV cells.

Defaults reproduce the reference desk-scale setup: a 28x28 grid of 1 cm
cells imaged by 4 antennas at 2 m standoff sweeping 50 frequencies over
5 GHz from 30 GHz (200 measurements for 784 unknowns).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

# The values each bounded field allows: the rule a rejection states and its
# test. NaN passes none of the tests.
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)
RANGES = {
    "side_cells": _AT_LEAST_1, "cell_size_m": _POSITIVE, "standoff_m": ("finite", math.isfinite),
    "n_antennas": _AT_LEAST_1, "f0_hz": _POSITIVE, "bandwidth_hz": _POSITIVE, "n_freqs": _AT_LEAST_1,
    "train_size": _AT_LEAST_1, "val_size": _AT_LEAST_1, "test_size": _AT_LEAST_1, "seed": _AT_LEAST_0,
    "fista_lambda": _NON_NEGATIVE, "fista_max_iter": _AT_LEAST_1, "frozen_lambda": _POSITIVE,
    "n_blocks": _AT_LEAST_1, "res_channels": _AT_LEAST_1, "res_blocks": _AT_LEAST_0,
    "batch_size": _AT_LEAST_1, "epochs": _AT_LEAST_0, "learning_rate": _POSITIVE,
    "plateau_factor": ("in (0, 1]", lambda v: 0 < v <= 1), "plateau_patience": _AT_LEAST_0,
    "loss_lambda1": _NON_NEGATIVE, "loss_lambda2": _NON_NEGATIVE,
}


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
        for name, (rule, allowed) in RANGES.items():
            value = getattr(self, name)
            if not allowed(value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")
        # a config file holds one stripped value per line
        if self.mnist_dir != self.mnist_dir.strip() or len(self.mnist_dir.splitlines()) > 1:
            raise ConfigError(
                f"mnist_dir must be one line without surrounding whitespace, got {self.mnist_dir!r}"
            )

    @property
    def array_f0_hz(self) -> float:
        """The frequency whose half wavelength spaces the antennas: ``f0_hz``,
        whichever frequency a sweep starts from. Echo containers record it
        under this name."""
        return self.f0_hz

    @property
    def n_cells(self) -> int:
        return self.side_cells * self.side_cells

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float":  # an int given for a float field is written as a float
                value = float(value)
            lines.append(f"{f.name} = {format_value(value)}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

# The fields that fix the sensing matrix. An echo container or checkpoint
# made with other values describes another scene.
SCENE_FIELDS = (
    "side_cells", "cell_size_m", "standoff_m", "n_antennas", "f0_hz", "bandwidth_hz", "n_freqs"
)


def format_value(value) -> str:
    """A config, header or CSV value as text: ``none`` for None, a float as
    its round-tripping ``repr``; :func:`parse_value` reads it back."""
    if value is None:
        return "none"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def parse_value(name: str, raw: str):
    """``raw`` as the type of config field ``name``; a value that does not
    parse raises :class:`ConfigError`."""
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
        values[key] = parse_value(key, raw.strip())
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
