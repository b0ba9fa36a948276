"""Target datasets: IDX ingestion, train/val/test splits, built-in rasters.

Real MNIST IDX files are used when available (``--mnist-dir``); otherwise a
procedurally generated digit corpus with the same 28x28 byte-raster format
stands in, so the full pipeline runs self-contained.

Every raster here is 28x28 bytes, whatever the imaging grid. Reflectivity
maps follow ``side_cells``: :func:`radarqi.geometry.rasters_to_maps` turns
rasters into maps on the configured grid.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .io import to_gray_bytes
from .metrics import filter_matrices

IDX_IMAGE_MAGIC = 0x00000803

MNIST_IMAGE_FILES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")

# 5x7 digit glyphs; '#' marks a lit cell.
_DIGIT_GLYPHS = {
    0: (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    1: ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    2: (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    3: (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    4: ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    5: ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    6: (".###.", "#....", "####.", "#...#", "#...#", "#...#", ".###."),
    7: ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    8: (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    9: (".###.", "#...#", "#...#", ".####", "....#", "....#", ".###."),
}


def _take(data: bytes, n: int, offset: int, path) -> bytes:
    """The first ``n`` bytes of ``data``, which was read from byte ``offset``
    of ``path``; a shorter ``data`` raises FormatError."""
    if len(data) < n:
        raise FormatError(
            f"{path}: truncated at byte offset {offset + len(data)}, "
            f"expected {n} more bytes"
        )
    return data[:n]


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a (count, 28, 28) uint8 array.

    Raises
    ------
    FormatError
        On a wrong magic number, non-28x28 dimensions, or a truncated file;
        the message carries the byte offset of the problem.
    """
    with _open_maybe_gzip(path) as f:
        header = _take(f.read(16), 16, 0, path)
        magic, count, rows, cols = struct.unpack(">iiii", header)
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{path}: bad magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        if count < 0:
            raise FormatError(f"{path}: negative image count {count} at byte offset 4")
        if (rows, cols) != (28, 28):
            raise FormatError(
                f"{path}: dimension mismatch {rows}x{cols} at byte offset 8, "
                "expected 28x28"
            )
        # the rest of the file, so a corrupt count cannot size the read
        data = _take(f.read(), count * rows * cols, 16, path)
    return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)


def split_dataset(
    rasters: np.ndarray, seed: int, sizes: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomly select disjoint train/val/test index sets of the given sizes.

    Deterministic for a fixed seed. Requires at least sum(sizes) rasters.
    """
    n_train, n_val, n_test = sizes
    total = n_train + n_val + n_test
    if len(rasters) < total:
        raise ValueError(
            f"need at least {total} rasters for split sizes {sizes}, "
            f"got {len(rasters)}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5711]))
    perm = rng.permutation(len(rasters))
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val : total],
    )


def _glyph_array(rows) -> np.ndarray:
    """A 5x7 glyph ('#' lit) scaled x3 into a 21x15 array of 0.0 and 1.0."""
    glyph = np.array([[c == "#" for c in row] for row in rows], dtype=np.float64)
    return np.kron(glyph, np.ones((3, 3)))


def _blur_taps(sigmas: np.ndarray) -> np.ndarray:
    """One row of Gaussian taps per sigma, by the rule of
    ``scipy.ndimage.gaussian_filter``: radius ``int(4 sigma + 0.5)`` and
    taps ``exp(-x^2 / 2 sigma^2)`` over their sum. The rows share the widest
    radius; a narrower one's outer taps are 0."""
    radii = (4.0 * sigmas + 0.5).astype(int)
    widest = int(radii.max(initial=0))
    x = np.arange(-widest, widest + 1)
    taps = np.exp(-0.5 / (sigmas * sigmas)[:, None] * x**2)
    taps[np.abs(x) > radii[:, None]] = 0.0
    return taps / taps.sum(axis=1, keepdims=True)


def synthetic_digit_rasters(count: int, seed: int) -> np.ndarray:
    """Generate an MNIST-like corpus of 28x28 uint8 digit rasters.

    Each raster is a 5x7 glyph scaled x3, jittered in position, lightly
    blurred, and amplitude-scaled. Deterministic for a fixed seed.

    The draws run canvas by canvas, in the order that fixes the corpus.
    The blur is then two batched products, ``B @ canvases @ B^T``, with
    each canvas's Gaussian as a reflect-padded matrix ``B``. Every glyph
    has a lit cell, so every blurred canvas has a positive peak to scale
    to its amplitude.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD161]))
    glyphs = [_glyph_array(_DIGIT_GLYPHS[digit]) for digit in range(10)]
    canvases = np.zeros((count, 28, 28))
    sigmas = np.empty(count)
    amplitudes = np.empty(count)
    for i, canvas in enumerate(canvases):
        big = glyphs[int(rng.integers(0, 10))]
        r0 = int(rng.integers(2, 6))
        c0 = int(rng.integers(2, 12))
        canvas[r0 : r0 + 21, c0 : c0 + 15] = big
        sigmas[i] = rng.uniform(0.5, 0.9)
        amplitudes[i] = rng.uniform(0.75, 1.0)
    blur = filter_matrices(_blur_taps(sigmas), 28)
    np.matmul(blur @ canvases, blur.transpose(0, 2, 1), out=canvases)
    canvases *= (amplitudes / canvases.max(axis=(1, 2)))[:, None, None]
    canvases[canvases < 0.06] = 0.0  # hard-zero background, like real scans
    return to_gray_bytes(canvases)


def load_digit_rasters(mnist_dir, minimum: int, seed: int) -> np.ndarray:
    """Load the digit corpus from IDX files, or synthesize one.

    Looks for a training-image IDX file (optionally gzipped) under
    ``mnist_dir``; when ``mnist_dir`` is falsy or no file is found, returns
    ``synthetic_digit_rasters(minimum, seed)``.
    """
    if mnist_dir:
        base = Path(mnist_dir)
        for name in MNIST_IMAGE_FILES:
            for candidate in (base / name, base / (name + ".gz")):
                if candidate.exists():
                    return read_idx_images(candidate)
        raise FormatError(
            f"no MNIST training-image IDX file found under {base} "
            f"(looked for {', '.join(MNIST_IMAGE_FILES)}; optionally .gz)"
        )
    return synthetic_digit_rasters(minimum, seed)


# ---------------------------------------------------------------------------
# Built-in evaluation targets (shapes and letters unseen during training)
# ---------------------------------------------------------------------------

_LETTER_GLYPHS = {
    "T": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."),
    "L": ("#....", "#....", "#....", "#....", "#....", "#....", "#####"),
    "E": ("#####", "#....", "#....", "####.", "#....", "#....", "#####"),
    "H": ("#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
}


def _letter_raster(letter: str) -> np.ndarray:
    canvas = np.zeros((28, 28))
    canvas[3:24, 6:21] = _glyph_array(_LETTER_GLYPHS[letter])
    return to_gray_bytes(canvas)


def shape_rasters() -> dict[str, np.ndarray]:
    """Built-in 28x28 test targets: solid rectangle, cross, ring, letters."""
    yy, xx = np.mgrid[0:28, 0:28]

    rectangle = np.zeros((28, 28))
    rectangle[9:19, 6:22] = 1.0

    cross = np.zeros((28, 28))
    cross[12:16, 5:23] = 1.0
    cross[5:23, 12:16] = 1.0

    r = np.sqrt((yy - 13.5) ** 2 + (xx - 13.5) ** 2)
    ring = ((r >= 6.0) & (r <= 9.0)).astype(np.float64)

    shapes = {
        "rectangle": rectangle,
        "cross": cross,
        "ring": ring,
    }
    out = {name: to_gray_bytes(arr) for name, arr in shapes.items()}
    for letter in _LETTER_GLYPHS:
        out[f"letter_{letter}"] = _letter_raster(letter)
    return out
