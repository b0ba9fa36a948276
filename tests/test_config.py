import dataclasses
import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarqi.config import RANGES, ExperimentConfig, config_from_text, load_config
from radarqi.datasets import split_dataset
from radarqi.errors import ConfigError
from radarqi.fista import FistaConfig
from radarqi.models import EchoDnn, LFistaResNet
from radarqi.training import PlateauSchedule, hybrid_loss_batch

# Fields that ExperimentConfig bounds; every other field takes any finite value.
POSITIVE_INTS = {"side_cells", "n_antennas", "n_freqs", "train_size", "val_size",
                 "test_size", "batch_size", "n_blocks", "res_channels", "fista_max_iter"}
NON_NEGATIVE_INTS = {"epochs", "res_blocks", "plateau_patience", "seed"}
POSITIVE_FLOATS = {"cell_size_m", "f0_hz", "bandwidth_hz"}
POSITIVE_WEIGHTS = {"frozen_lambda", "learning_rate"}
NON_NEGATIVE_WEIGHTS = {"fista_lambda", "loss_lambda1", "loss_lambda2"}


def field_values(f: dataclasses.Field):
    if f.name in POSITIVE_INTS:
        return st.integers(min_value=1, max_value=2**63)
    if f.name in NON_NEGATIVE_INTS:
        return st.integers(min_value=0, max_value=2**63)
    if f.name in POSITIVE_FLOATS | POSITIVE_WEIGHTS:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if f.name in NON_NEGATIVE_WEIGHTS:
        return st.floats(min_value=0.0, allow_infinity=False)
    if f.name == "plateau_factor":
        return st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    if f.type == "int":
        return st.integers(min_value=-(2**63), max_value=2**63)
    if f.type == "float":
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.text()


def accepted(**values):
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        return None


configs = st.builds(
    accepted, **{f.name: field_values(f) for f in dataclasses.fields(ExperimentConfig)}
).filter(lambda cfg: cfg is not None)


@settings(max_examples=200, deadline=None)
@given(cfg=configs)
def test_text_round_trip(cfg):
    assert config_from_text(cfg.to_text()) == cfg


def test_value_a_config_file_cannot_hold_rejected():
    for mnist_dir in ("a\nb", "a\rb", " a", "a\t"):
        with pytest.raises(ConfigError, match="mnist_dir"):
            ExperimentConfig(mnist_dir=mnist_dir)


@pytest.mark.parametrize("name", sorted(POSITIVE_FLOATS))
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_length_or_frequency_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        ExperimentConfig(**{name: value})


NAN, INF = float("nan"), float("inf")


OUT_OF_RANGE = [
    ("n_blocks", 0), ("res_channels", 0), ("fista_max_iter", 0),
    ("res_blocks", -1), ("plateau_patience", -1), ("seed", -1),
    ("fista_lambda", -0.001), ("fista_lambda", INF), ("fista_lambda", NAN),
    ("loss_lambda1", -0.1), ("loss_lambda2", INF),
    ("frozen_lambda", 0.0), ("frozen_lambda", NAN),
    ("learning_rate", -0.01), ("learning_rate", NAN),
    ("plateau_factor", 0.0), ("plateau_factor", 1.5), ("plateau_factor", NAN),
    ("standoff_m", NAN), ("standoff_m", -INF),
    ("side_cells", 0), ("n_antennas", 0), ("n_freqs", 0),
    ("train_size", 0), ("val_size", 0), ("test_size", 0), ("batch_size", 0),
    ("epochs", -1), ("cell_size_m", 0.0), ("f0_hz", 0.0), ("bandwidth_hz", 0.0),
]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_hyperparameter_rejected(name, value):
    # every rejection reads '<field> must be <rule>, got <value>'
    message = rf"{name} must be .+, got {re.escape(repr(value))}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**{name: value})


def test_every_bounded_field_has_a_rejection_case():
    assert {name for name, _ in OUT_OF_RANGE} == set(RANGES)


def test_the_generated_configs_bound_the_fields_the_table_bounds():
    bounded = POSITIVE_INTS | NON_NEGATIVE_INTS | POSITIVE_FLOATS | POSITIVE_WEIGHTS
    assert bounded | NON_NEGATIVE_WEIGHTS | {"plateau_factor", "standoff_m"} == set(RANGES)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_freqs 10\n", "line 1: expected 'key = value', got 'n_freqs 10'"),
        ("seed = 1\nseed = 2\n", "line 2: duplicate config key 'seed'"),
        ("n_freqs = ten\n", "bad value for n_freqs: 'ten'"),
    ],
    ids=["no_equals", "duplicate", "not_an_int"],
)
def test_config_text_fault_rejected(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_text(text)


def test_comment_and_blank_lines_skipped():
    text = "# the seed\n\n   \n  # indented comment\nseed = 4\n"
    assert config_from_text(text) == ExperimentConfig(seed=4)


def test_missing_config_file_rejected(tmp_path):
    path = tmp_path / "absent.cfg"
    with pytest.raises(ConfigError, match=re.escape(f"config file not found: {path}")):
        load_config(path)


# What the builders below take that no config field holds.
NOT_CONFIG_VALUES = {"record_objective", "rel_tol"}


@pytest.mark.parametrize(
    "built",
    [FistaConfig, LFistaResNet, EchoDnn, PlateauSchedule, split_dataset, hybrid_loss_batch],
    ids=lambda f: f.__name__,
)
def test_no_signature_repeats_a_config_default(built):
    params = inspect.signature(built).parameters
    defaults = {name for name, p in params.items() if p.default is not p.empty}
    assert defaults <= NOT_CONFIG_VALUES
