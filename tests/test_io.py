import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarqi.errors import FormatError
from radarqi.io import load_echoes, save_echoes


def write_container(path, n_freqs=3, n_antennas=2, count=4):
    rng = np.random.default_rng(0)
    shape = (count, n_freqs * n_antennas)
    echoes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    save_echoes(path, echoes, 30e9, 5e9, n_freqs, n_antennas, snr_db=None, seed=3)
    return echoes


class TestEchoContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "echoes.bin"
        echoes = write_container(path)
        loaded, meta = load_echoes(path)
        np.testing.assert_array_equal(loaded, echoes)
        assert (meta["count"], meta["length"], meta["n_freqs"], meta["n_antennas"]) == (4, 6, 3, 2)
        assert meta["f0_hz"] == 30e9 and meta["snr_db"] is None and meta["seed"] == 3

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "echoes.bin"
        write_container(path)
        data = path.read_bytes()
        (tmp_path / "short.bin").write_bytes(data[:-8])
        with pytest.raises(FormatError, match="payload"):
            load_echoes(tmp_path / "short.bin")

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "echoes.bin"
        write_container(path)
        data = path.read_bytes().replace(b"radarqi-echoes 1", b"radarqi-echoes 2", 1)
        (tmp_path / "v2.bin").write_bytes(data)
        with pytest.raises(FormatError, match="version"):
            load_echoes(tmp_path / "v2.bin")

    def test_length_must_match_sweep_and_array(self, tmp_path):
        # 6 samples per echo, but the header claims 4 frequencies x 2 antennas
        path = tmp_path / "echoes.bin"
        write_container(path)
        data = path.read_bytes().replace(b"n_freqs = 3", b"n_freqs = 4", 1)
        (tmp_path / "bad.bin").write_bytes(data)
        with pytest.raises(FormatError, match="length"):
            load_echoes(tmp_path / "bad.bin")


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def containers(draw):
    """Echoes with any float64 real and imaginary parts, and header values."""
    n_freqs = draw(st.integers(1, 4))
    n_antennas = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)), n_freqs * n_antennas)
    echoes = np.empty(shape, dtype=np.complex128)
    echoes.real = draw(arrays(np.float64, shape))
    echoes.imag = draw(arrays(np.float64, shape))
    header = {
        "f0_hz": draw(st.floats(allow_nan=False)),
        "bandwidth_hz": draw(st.floats(allow_nan=False)),
        "n_freqs": n_freqs,
        "n_antennas": n_antennas,
        "snr_db": draw(st.none() | st.floats(allow_nan=False)),
        "seed": draw(st.integers(-(2**63), 2**63 - 1)),
    }
    return echoes, header


@settings(max_examples=60, deadline=None)
@given(container=containers())
def test_round_trip_keeps_every_bit(tmp_path_factory, container):
    echoes, header = container
    path = tmp_path_factory.mktemp("hypothesis") / "echoes.bin"
    save_echoes(path, echoes, **header)
    loaded, meta = load_echoes(path)
    assert loaded.dtype == np.complex128 and loaded.flags.writeable
    np.testing.assert_array_equal(loaded.view(np.uint64), echoes.view(np.uint64))
    assert (meta["count"], meta["length"]) == echoes.shape
    for key in ("f0_hz", "bandwidth_hz"):
        assert same_bits(meta[key], header[key])
    if header["snr_db"] is None:
        assert meta["snr_db"] is None
    else:
        assert same_bits(meta["snr_db"], header["snr_db"])
    for key in ("n_freqs", "n_antennas", "seed"):
        assert meta[key] == header[key]
