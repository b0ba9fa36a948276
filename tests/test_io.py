import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarqi.config import ExperimentConfig
from radarqi.errors import FormatError
from radarqi.io import (
    ECHO_MAGIC,
    ECHO_VERSION,
    curve_raster,
    load_echoes,
    save_echoes,
    to_gray_bytes,
    write_pgm,
)
from radarqi.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)


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
        assert not {"split", "side_cells", "cell_size_m", "standoff_m", "array_f0_hz"} & set(meta)

    def test_split_round_trips(self, tmp_path):
        path = tmp_path / "echoes.bin"
        echoes = np.ones((2, 6), dtype=np.complex128)
        save_echoes(path, echoes, 30e9, 5e9, 3, 2, None, 3, split="val")
        assert load_echoes(path)[1]["split"] == "val"

    def test_scene_fields_round_trip(self, tmp_path):
        path = tmp_path / "echoes.bin"
        echoes = np.ones((2, 6), dtype=np.complex128)
        scene = {"side_cells": 28, "cell_size_m": 0.01, "standoff_m": 1.5, "array_f0_hz": 24e9}
        save_echoes(path, echoes, 30e9, 5e9, 3, 2, None, 3, **scene)
        _, meta = load_echoes(path)
        assert {key: meta[key] for key in scene} == scene
        assert type(meta["side_cells"]) is int and "split" not in meta

    @pytest.mark.parametrize(
        "old, new, message",
        [(b"seed = 3\n", b"", "'seed'"), (b"n_freqs = 3\n", b"n_freqs = ten\n", "'ten'")],
        ids=["no_seed", "n_freqs_ten"],
    )
    def test_bad_header_value_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "echoes.bin"
        write_container(path)
        data = path.read_bytes()
        assert old in data
        (tmp_path / "bad.bin").write_bytes(data.replace(old, new, 1))
        with pytest.raises(FormatError, match=rf"bad echo container header \(.*{re.escape(message)}"):
            load_echoes(tmp_path / "bad.bin")

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"snr_db = none\n", b"snr_db = loud\n"),
            (b"array_f0_hz = 24000000000.0\n", b"array_f0_hz = fast\n"),
        ],
        ids=["snr_db", "array_f0_hz"],
    )
    def test_bad_header_value_names_the_key(self, tmp_path, old, new):
        path = tmp_path / "echoes.bin"
        save_echoes(path, np.ones((2, 6)), 30e9, 5e9, 3, 2, None, 3, array_f0_hz=24e9)
        data = path.read_bytes()
        assert old in data
        (tmp_path / "bad.bin").write_bytes(data.replace(old, new, 1))
        key, _, value = new.decode().strip().partition(" = ")
        message = f"bad echo container header (bad value for key {key}: {value!r})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_echoes(tmp_path / "bad.bin")

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
        current = f"{ECHO_MAGIC} {ECHO_VERSION}".encode()
        later = f"{ECHO_MAGIC} {ECHO_VERSION + 1}".encode()
        (tmp_path / "later.bin").write_bytes(path.read_bytes().replace(current, later, 1))
        with pytest.raises(FormatError, match="version"):
            load_echoes(tmp_path / "later.bin")

    @pytest.mark.parametrize("manifest", ["echoes 24", "echoes 4,6\nextra 0"], ids=["1d", "extra"])
    def test_one_2d_echoes_array_required(self, tmp_path, manifest):
        path = tmp_path / "echoes.bin"
        write_container(path)
        head, _, tail = path.read_bytes().partition(b"echoes 4,6\n")
        (tmp_path / "bad.bin").write_bytes(head + manifest.encode() + b"\n" + tail)
        with pytest.raises(FormatError, match="expected one 2-D echoes array"):
            load_echoes(tmp_path / "bad.bin")

    def test_container_without_echoes_rejected(self, tmp_path):
        path = tmp_path / "echoes.bin"
        write_container(path, count=0)
        with pytest.raises(FormatError, match="holds no echoes"):
            load_echoes(path)

    def test_length_must_match_sweep_and_array(self, tmp_path):
        # 6 samples per echo, but the header claims 4 frequencies x 2 antennas
        path = tmp_path / "echoes.bin"
        write_container(path)
        data = path.read_bytes().replace(b"n_freqs = 3", b"n_freqs = 4", 1)
        (tmp_path / "bad.bin").write_bytes(data)
        with pytest.raises(FormatError, match="length"):
            load_echoes(tmp_path / "bad.bin")


def write_checkpoint(path):
    params = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(1)}
    save_checkpoint(path, Checkpoint("dnn", ExperimentConfig(), params, 1, 0.5))


@pytest.mark.parametrize(
    "write, load, magic, version",
    [
        (write_container, load_echoes, ECHO_MAGIC, ECHO_VERSION),
        (write_checkpoint, load_checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
    ],
    ids=["echoes", "checkpoint"],
)
@pytest.mark.parametrize(
    "damage, message",
    [
        ("separator", "missing \\[binary\\] separator"),
        ("magic", "not a radarqi"),
        ("version", "unsupported .* version"),
        ("encoding", "not UTF-8"),
        ("arrays", "missing \\[arrays\\] section"),
    ],
)
def test_damaged_framing_rejected(tmp_path, write, load, magic, version, damage, message):
    path = tmp_path / "good"
    write(path)
    head = f"{magic} {version}".encode()
    old, new = {
        "separator": (b"\n[binary]\n", b"\n[binery]\n"),
        "magic": (head, b"radarqi-other 1"),
        "version": (head, head + b"0"),
        "encoding": (head, head + b"\n\xff"),
        "arrays": (b"\n[arrays]\n", b"\n[arrayz]\n"),
    }[damage]
    (tmp_path / "bad").write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(FormatError, match=message):
        load(tmp_path / "bad")


@pytest.mark.parametrize(
    "write, load, itemsize",
    [(write_container, load_echoes, 16), (write_checkpoint, load_checkpoint, 8)],
    ids=["echoes", "checkpoint"],
)
@pytest.mark.parametrize(
    "manifest, n_items, message",
    [
        ("a -2,3", 0, "negative dimension"),
        ("a 2\na 2", 4, "array a is listed twice"),
        # 2**80 elements: a wrapped int64 size would read as 0 bytes
        ("a 1099511627776,1099511627776", 0, "needs bytes up to [1-9][0-9]{24,}, payload has 0"),
        ("a 2 0", 2, "bad array manifest line 'a 2 0'"),
        ("a 2,", 2, "bad array manifest line"),
        ("a 2\nb 2", 3, "array b needs bytes up to"),
        ("a 2", 3, "bytes past the last array"),
    ],
    ids=["negative", "listed_twice", "overflow", "malformed", "empty_dim", "past_the_end", "trailing"],
)
def test_damaged_manifest_rejected(tmp_path, write, load, itemsize, manifest, n_items, message):
    """Every manifest fault is a FormatError of read_container in both formats;
    the payload holds ``n_items`` elements of the format's dtype."""
    path = tmp_path / "good"
    write(path)
    data = path.read_bytes()
    head = data[: data.index(b"\n[arrays]\n") + len(b"\n[arrays]\n")]
    body = f"{manifest}\n[binary]\n".encode() + bytes(n_items * itemsize)
    (tmp_path / "bad").write_bytes(head + body)
    with pytest.raises(FormatError, match=message):
        load(tmp_path / "bad")


ECHO_V1 = (
    "radarqi-echoes 1\ncount = 1\nlength = 2\nf0_hz = 30000000000.0\n"
    "bandwidth_hz = 5000000000.0\nn_freqs = 2\nn_antennas = 1\nsnr_db = none\nseed = 0\n"
    "[binary]\n"
)
CHECKPOINT_V2 = (
    "radarqi-checkpoint 2\nkind = dnn\nepoch = 1\nbest_val_loss = 0.5\n"
    f"[config]\n{ExperimentConfig().to_text()}[arrays]\nparam.w 2 0\nparam.b 1 16\n[binary]\n"
)


@pytest.mark.parametrize(
    "header, n_bytes, load, message",
    [
        (ECHO_V1, 32, load_echoes, "unsupported echo container version '1'"),
        (CHECKPOINT_V2, 24, load_checkpoint, "unsupported checkpoint version '2'"),
    ],
    ids=["echoes_v1", "checkpoint_v2"],
)
def test_layout_before_the_array_manifest_rejected(tmp_path, header, n_bytes, load, message):
    """Files in the layouts before the shared ``<name> <dims>`` manifest:
    echoes with ``count``/``length`` header lines, a checkpoint with
    ``param.<name> <shape> <offset>`` lines."""
    path = tmp_path / "old"
    path.write_bytes(header.encode() + bytes(n_bytes))
    with pytest.raises(FormatError, match=message):
        load(path)


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


@pytest.mark.parametrize(
    "xs, ys", [([10.0, float("inf")], [0.2, 0.3]), ([10.0, 20.0], [0.2, float("nan")])]
)
def test_curve_with_a_non_finite_point_rejected(xs, ys):
    with pytest.raises(ValueError, match="finite"):
        curve_raster(xs, ys)


def test_gray_bytes_round_half_up_and_leave_the_input_alone():
    rng = np.random.default_rng(8)
    img = rng.uniform(-0.2, 1.2, size=(3, 28, 28))
    img.flat[:4] = (0.5 / 255.0, 1.5 / 255.0, 1.0, 0.0)
    before = img.copy()
    want = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    np.testing.assert_array_equal(to_gray_bytes(img), want)
    np.testing.assert_array_equal(img, before)


def test_write_pgm_rejects_a_1d_image(tmp_path):
    path = tmp_path / "row.pgm"
    with pytest.raises(ValueError, match=re.escape("expected a 2-D image, got shape (4,)")):
        write_pgm(path, np.zeros(4))
    assert not path.exists()
