import gzip
import re
import struct

import numpy as np
import pytest
from scipy import ndimage

from radarqi.datasets import (
    _DIGIT_GLYPHS,
    IDX_IMAGE_MAGIC,
    _glyph_array,
    load_digit_rasters,
    read_idx_images,
    shape_rasters,
    split_dataset,
    synthetic_digit_rasters,
)
from radarqi.errors import FormatError
from radarqi.io import to_gray_bytes


def write_idx_images(path, images: np.ndarray) -> None:
    """Write (count, 28, 28) uint8 rasters in IDX format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, len(images), 28, 28) + images.tobytes())


class TestIdxFormat:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(12, 28, 28)).astype(np.uint8)
        path = tmp_path / "imgs.idx3-ubyte"
        write_idx_images(path, images)
        np.testing.assert_array_equal(read_idx_images(path), images)

    def test_header_count_defines_length(self, tmp_path):
        images = np.zeros((7, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.bin"
        write_idx_images(path, images)
        assert len(read_idx_images(path)) == 7

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack(">iiii", 0x00000802, 1, 28, 28) + b"\0" * 784)
        with pytest.raises(FormatError, match="magic"):
            read_idx_images(path)

    def test_zero_image_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_idx_images(path, np.zeros((0, 28, 28), dtype=np.uint8))
        assert read_idx_images(path).shape == (0, 28, 28)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 28, 28) + b"\0" * 100)
        with pytest.raises(FormatError, match="offset 116"):
            read_idx_images(path)

    def test_corrupt_count_reports_truncation(self, tmp_path):
        # a count of 2**31 - 1 over 100 bytes must not size a 1.7 TB read
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, 2**31 - 1, 28, 28) + b"\0" * 100)
        with pytest.raises(FormatError, match="truncated at byte offset 116"):
            read_idx_images(path)

    def test_trailing_bytes_ignored(self, tmp_path):
        images = np.full((2, 28, 28), 7, dtype=np.uint8)
        path = tmp_path / "long.bin"
        write_idx_images(path, images)
        path.write_bytes(path.read_bytes() + b"\1" * 50)
        np.testing.assert_array_equal(read_idx_images(path), images)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "negative.bin"
        path.write_bytes(struct.pack(">iiii", IDX_IMAGE_MAGIC, -1, 28, 28))
        with pytest.raises(FormatError, match="negative image count -1 at byte offset 4"):
            read_idx_images(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "odd.bin"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 1, 14, 14) + b"\0" * 196)
        with pytest.raises(FormatError, match="dimension"):
            read_idx_images(path)


class TestMnistDir:
    """``--mnist-dir`` reads the training-image IDX file, plain or gzipped,
    under either of its two usual names."""

    @pytest.mark.parametrize(
        "name", ["train-images-idx3-ubyte", "train-images.idx3-ubyte.gz"], ids=["plain", "gzip"]
    )
    def test_reads_the_training_images(self, tmp_path, name):
        images = np.random.default_rng(3).integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
        plain = tmp_path / "plain.idx"
        write_idx_images(plain, images)
        data = plain.read_bytes()
        (tmp_path / name).write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        np.testing.assert_array_equal(load_digit_rasters(tmp_path, 100, 0), images)

    def test_a_directory_without_the_file_is_a_format_error(self, tmp_path):
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte", np.zeros((1, 28, 28)))
        message = f"no MNIST training-image IDX file found under {tmp_path}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_digit_rasters(tmp_path, 10, 0)


class TestSplit:
    def test_sizes_and_disjointness(self):
        rasters = np.zeros((2500, 28, 28), dtype=np.uint8)
        train, val, test = split_dataset(rasters, seed=3, sizes=(800, 200, 1000))
        assert (len(train), len(val), len(test)) == (800, 200, 1000)
        union = set(train) | set(val) | set(test)
        assert len(union) == 2000

    def test_deterministic_per_seed(self):
        rasters = np.zeros((2500, 28, 28), dtype=np.uint8)
        a = split_dataset(rasters, seed=11, sizes=(800, 200, 1000))
        b = split_dataset(rasters, seed=11, sizes=(800, 200, 1000))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_seeds_differ(self):
        rasters = np.zeros((2500, 28, 28), dtype=np.uint8)
        for seed in range(5):
            a = split_dataset(rasters, seed=seed, sizes=(800, 200, 1000))
            b = split_dataset(rasters, seed=seed + 100, sizes=(800, 200, 1000))
            assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_insufficient_rasters(self):
        with pytest.raises(ValueError, match="at least 2000"):
            split_dataset(np.zeros((100, 28, 28), dtype=np.uint8), seed=0, sizes=(800, 200, 1000))

    def test_custom_sizes(self):
        rasters = np.zeros((400, 28, 28), dtype=np.uint8)
        train, val, test = split_dataset(rasters, seed=0, sizes=(200, 50, 100))
        assert (len(train), len(val), len(test)) == (200, 50, 100)


class TestSyntheticDigits:
    def test_shape_and_dtype(self):
        rasters = synthetic_digit_rasters(20, seed=0)
        assert rasters.shape == (20, 28, 28)
        assert rasters.dtype == np.uint8

    def test_deterministic(self):
        np.testing.assert_array_equal(
            synthetic_digit_rasters(10, seed=5), synthetic_digit_rasters(10, seed=5)
        )

    def test_visible_and_sparse(self):
        rasters = synthetic_digit_rasters(50, seed=1)
        for r in rasters:
            assert r.max() >= 150  # a clearly visible stroke
            assert np.count_nonzero(r) < 0.5 * r.size  # spatially sparse


def per_digit_rasters(count: int, seed: int) -> np.ndarray:
    """The corpus built one raster at a time, each glyph array rebuilt per
    digit and each canvas converted on its own: the reference for
    synthetic_digit_rasters."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD161]))
    out = np.zeros((count, 28, 28), dtype=np.uint8)
    for i in range(count):
        big = _glyph_array(_DIGIT_GLYPHS[int(rng.integers(0, 10))])
        canvas = np.zeros((28, 28))
        r0 = int(rng.integers(2, 6))
        c0 = int(rng.integers(2, 12))
        canvas[r0 : r0 + 21, c0 : c0 + 15] = big
        canvas = ndimage.gaussian_filter(canvas, sigma=float(rng.uniform(0.5, 0.9)))
        peak = canvas.max()
        if peak > 0:
            canvas *= float(rng.uniform(0.75, 1.0)) / peak
        canvas[canvas < 0.06] = 0.0
        out[i] = to_gray_bytes(canvas)
    return out


@pytest.mark.parametrize(
    "count, seed", [(0, 0), (1, 1), (350, 0), (350, 7), (350, 1501), (2000, 0)]
)
def test_synthetic_digits_match_the_per_digit_loop(count, seed):
    np.testing.assert_array_equal(synthetic_digit_rasters(count, seed), per_digit_rasters(count, seed))


class TestShapeRasters:
    def test_gallery(self):
        gallery = shape_rasters()
        assert {"rectangle", "cross", "ring"} <= set(gallery)
        assert any(name.startswith("letter_") for name in gallery)
        for name, raster in gallery.items():
            assert raster.shape == (28, 28), name
            assert raster.dtype == np.uint8
            assert raster.max() == 255
