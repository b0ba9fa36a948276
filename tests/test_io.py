import numpy as np
import pytest

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
