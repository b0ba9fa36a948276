import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarqi.config import ExperimentConfig, config_from_text
from radarqi.errors import ConfigError

# Fields that ExperimentConfig bounds; every other field takes any value.
POSITIVE_INTS = {"side_cells", "n_antennas", "n_freqs", "train_size", "val_size",
                 "test_size", "batch_size"}
POSITIVE_FLOATS = {"cell_size_m", "f0_hz", "bandwidth_hz"}


def field_values(f: dataclasses.Field):
    if f.name in POSITIVE_INTS:
        return st.integers(min_value=1, max_value=2**63)
    if f.name == "epochs":
        return st.integers(min_value=0, max_value=2**63)
    if f.name in POSITIVE_FLOATS:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
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
