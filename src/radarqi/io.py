"""On-disk artifact formats: the array container shared by echo files and
checkpoints, PGM images, CSV tables.

A container is one layout for both formats::

    <magic> <version>
    <header lines>
    [arrays]
    <name> <d0,d1,...>        one line per array
    [binary]
    <each array's little-endian bytes, back to back in manifest order>

:func:`write_container` writes it and :func:`read_container` alone reads
it: every byte offset and size is computed there, and every framing or
manifest fault raises :class:`~radarqi.errors.FormatError`.
:func:`header_fields` reads ``key = value`` header lines and rejects a key
listed twice. Echo containers (version 2, here) hold one ``echoes`` array
of ``<c16`` and their synthesis metadata as header keys:

- always ``f0_hz`` (where the sweep starts), ``bandwidth_hz``, ``n_freqs``,
  ``n_antennas``, ``snr_db`` (``none`` for noise-free echoes) and ``seed``;
- where recorded, ``split`` (the dataset split the echoes come from),
  ``side_cells``, ``cell_size_m``, ``standoff_m``, and ``array_f0_hz``, the
  config's ``f0_hz`` that spaces the antennas, which ``f0_hz`` differs from
  when ``synth --f0-ghz`` moved the sweep.

:func:`load_echoes` parses each key that holds a config field's value with
:func:`~radarqi.config.parse_value`. Checkpoints (version 3,
:mod:`radarqi.training`) hold their metadata and config, and ``<f8``
parameters in model order.

Everything written here is byte-deterministic given identical inputs:
:func:`~radarqi.config.format_value` writes every header and CSV value,
floats with round-tripping ``repr``; arrays are little-endian binary64 and
images binary PGM (P5).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .config import format_value, parse_value
from .errors import ConfigError, FormatError

ECHO_MAGIC = "radarqi-echoes"
ECHO_VERSION = 2


# ---------------------------------------------------------------------------
# Array container
# ---------------------------------------------------------------------------


def write_container(path, magic: str, version: int, header_lines, arrays: dict, dtype: str) -> None:
    """Write ``<magic> <version>``, the header lines, the ``[arrays]``
    manifest of ``<name> <d0,d1,...>`` lines, ``[binary]``, then each array
    as ``dtype`` bytes in the dict's order."""
    manifest = [f"{name} {','.join(map(str, arr.shape))}" for name, arr in arrays.items()]
    text = "".join(
        f"{line}\n"
        for line in [f"{magic} {version}", *header_lines, "[arrays]", *manifest, "[binary]"]
    )
    with open(path, "wb") as f:
        f.write(text.encode("utf-8"))
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_container(path, magic: str, version: int, what: str, dtype: str) -> tuple[list[str], dict]:
    """The header lines after the magic line, and ``{name: array}`` in
    manifest order; each array is a writable copy in native byte order.

    Raises :class:`FormatError` naming ``what`` (e.g. "echo container") when
    the separator, the magic or the ``[arrays]`` section is missing, the
    version is not ``version``, a manifest line is malformed, has a negative
    dimension or repeats a name, an array runs past the end of the payload,
    or bytes follow the last array.
    """
    raw = Path(path).read_bytes()
    sep = b"\n[binary]\n"
    pos = raw.find(sep)
    if pos < 0:
        raise FormatError(f"{path}: missing [binary] separator")
    try:
        lines = raw[:pos].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} header is not UTF-8 ({exc})") from exc
    if not lines or not lines[0].startswith(magic):
        raise FormatError(f"{path}: not a radarqi {what}")
    found = lines[0][len(magic) :].strip()
    if found != str(version):
        raise FormatError(f"{path}: unsupported {what} version {found!r}")
    if "[arrays]" not in lines:
        raise FormatError(f"{path}: missing [arrays] section")
    at = lines.index("[arrays]")

    payload = memoryview(raw)[pos + len(sep) :]
    item = np.dtype(dtype)
    arrays: dict = {}
    end = 0
    for line in lines[at + 1 :]:
        try:
            name, dims = line.split()
            shape = tuple(int(d) for d in dims.split(","))
        except ValueError as exc:
            raise FormatError(f"{path}: bad array manifest line {line!r}") from exc
        if min(shape) < 0:
            raise FormatError(f"{path}: negative dimension in manifest line {line!r}")
        if name in arrays:
            raise FormatError(f"{path}: array {name} is listed twice")
        start, end = end, end + math.prod(shape) * item.itemsize
        if end > len(payload):
            raise FormatError(
                f"{path}: array {name} needs bytes up to {end}, payload has {len(payload)}"
            )
        data = np.frombuffer(payload[start:end], dtype=item).reshape(shape)
        arrays[name] = data.astype(item.newbyteorder("="))
    if len(payload) > end:
        raise FormatError(
            f"{path}: {len(payload) - end} bytes past the last array, which ends at "
            f"payload byte {end}"
        )
    return lines[1:at], arrays


def header_fields(lines, path) -> dict[str, str]:
    """Stripped ``key = value`` pairs of the header lines of the file at
    ``path``; blank lines are skipped, and a key listed twice raises
    :class:`FormatError`."""
    fields = {}
    for line in lines:
        if line.strip():
            key, _, value = (part.strip() for part in line.partition("="))
            if key in fields:
                raise FormatError(f"{path}: header key {key!r} is listed twice")
            fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# Echo container: ``key = value`` header + one (count, length) ``echoes`` array
# ---------------------------------------------------------------------------


def save_echoes(
    path,
    echoes: np.ndarray,
    f0_hz: float,
    bandwidth_hz: float,
    n_freqs: int,
    n_antennas: int,
    snr_db: float | None,
    seed: int,
    *,
    split: str | None = None,
    side_cells: int | None = None,
    cell_size_m: float | None = None,
    standoff_m: float | None = None,
    array_f0_hz: float | None = None,
) -> None:
    """Write (count, length) complex echoes with their synthesis metadata;
    ``split`` names the dataset split the echoes were made from, and a
    container of echoes from no split records none. The grid and standoff
    of the scene, and the array's design frequency (the config's ``f0_hz``,
    which ``f0_hz`` differs from when the sweep starts elsewhere), are
    recorded where given."""
    header = {
        "f0_hz": f0_hz, "bandwidth_hz": bandwidth_hz, "n_freqs": n_freqs, "n_antennas": n_antennas,
        "snr_db": snr_db, "seed": seed,
    }
    optional = {
        "split": split, "side_cells": side_cells, "cell_size_m": cell_size_m,
        "standoff_m": standoff_m, "array_f0_hz": array_f0_hz,
    }
    header.update((key, value) for key, value in optional.items() if value is not None)
    lines = [f"{key} = {format_value(value)}" for key, value in header.items()]
    arrays = {"echoes": np.atleast_2d(np.asarray(echoes, dtype=np.complex128))}
    write_container(path, ECHO_MAGIC, ECHO_VERSION, lines, arrays, "<c16")


def _echo_header_value(key: str, raw: str):
    """The value of echo header key ``key``: ``snr_db`` holds ``none`` or a
    float, and every other key a config field's value (``array_f0_hz`` one
    of ``f0_hz``)."""
    if key == "snr_db":
        return None if raw == "none" else float(raw)
    return parse_value(key.removeprefix("array_"), raw)


def load_echoes(path) -> tuple[np.ndarray, dict]:
    """Read an echo container; returns (echoes, header-metadata dict), the
    dict with ``count`` and ``length`` from the echoes' shape. ``split``,
    ``side_cells``, ``cell_size_m``, ``standoff_m`` and ``array_f0_hz`` are
    each parsed when the header records them and absent when it does not.
    A missing key or a value that does not parse raises
    :class:`FormatError` naming the header key."""
    lines, arrays = read_container(path, ECHO_MAGIC, ECHO_VERSION, "echo container", "<c16")
    shapes = {name: arr.shape for name, arr in arrays.items()}
    if list(shapes) != ["echoes"] or len(shapes["echoes"]) != 2:
        raise FormatError(f"{path}: expected one 2-D echoes array, found {shapes}")
    echoes = arrays["echoes"]
    meta: dict = header_fields(lines, path)
    required = ("f0_hz", "bandwidth_hz", "n_freqs", "n_antennas", "snr_db", "seed")
    optional = ("side_cells", "cell_size_m", "standoff_m", "array_f0_hz")
    for key in required + optional:
        if key not in meta:
            if key in optional:
                continue
            raise FormatError(f"{path}: bad echo container header (missing key {key!r})")
        try:
            meta[key] = _echo_header_value(key, meta[key])
        except (ValueError, ConfigError) as exc:
            raise FormatError(
                f"{path}: bad echo container header (bad value for key {key}: {meta[key]!r})"
            ) from exc
    meta["count"], meta["length"] = echoes.shape
    if meta["count"] == 0:
        raise FormatError(f"{path}: the echo container holds no echoes")
    if meta["length"] != meta["n_freqs"] * meta["n_antennas"]:
        raise FormatError(
            f"{path}: echo length {meta['length']} is not n_freqs * n_antennas = "
            f"{meta['n_freqs']} * {meta['n_antennas']}"
        )
    return echoes, meta


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def to_gray_bytes(img: np.ndarray) -> np.ndarray:
    """Clamp [0, 1] floats to uint8 with round-half-up, through one float
    copy of ``img``."""
    scaled = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    scaled *= 255.0
    scaled += 0.5
    return np.floor(scaled, out=scaled).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-D float image in [0, 1] as binary PGM (P5, maxval 255)."""
    data = to_gray_bytes(img)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def image_grid(rows: list[list[np.ndarray]]) -> np.ndarray:
    """Compose equally-sized tiles into one image with 1-pixel mid-gray
    separators."""
    tile_h, tile_w = rows[0][0].shape
    n_rows = len(rows)
    n_cols = max(len(r) for r in rows)
    out = np.full((n_rows * tile_h + n_rows + 1, n_cols * tile_w + n_cols + 1), 0.5)
    for i, row in enumerate(rows):
        for j, tile in enumerate(row):
            top = 1 + i * (tile_h + 1)
            left = 1 + j * (tile_w + 1)
            out[top : top + tile_h, left : left + tile_w] = tile
    return out


def curve_raster(xs, ys) -> np.ndarray:
    """Render a polyline as a 240x320 white-background raster with a
    20-pixel margin (basic sweep plot); a non-finite point raises ValueError."""
    width, height, margin = 320, 240, 20
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"curve points must be finite, got x {xs} and y {ys}")
    img = np.ones((height, width))
    img[margin, margin : width - margin] = 0.6
    img[height - margin, margin : width - margin] = 0.6
    img[margin : height - margin + 1, margin] = 0.6
    img[margin : height - margin + 1, width - margin] = 0.6

    def scale(v, lo, hi, out_lo, out_hi):
        if hi == lo:
            return np.full_like(v, (out_lo + out_hi) / 2.0)
        return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)

    px = scale(xs, xs.min(), xs.max(), margin + 2, width - margin - 2).astype(int)
    py = scale(ys, ys.min(), ys.max(), height - margin - 2, margin + 2).astype(int)
    for k in range(len(px) - 1):
        x0, y0, x1, y1 = px[k], py[k], px[k + 1], py[k + 1]
        steps = max(abs(x1 - x0), abs(y1 - y0), 1)
        for t in range(steps + 1):
            x = int(round(x0 + (x1 - x0) * t / steps))
            y = int(round(y0 + (y1 - y0) * t / steps))
            img[y, x] = 0.0
    for x, y in zip(px, py):
        img[max(y - 1, 0) : y + 2, max(x - 1, 0) : x + 2] = 0.0
    return img


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def write_csv(path, columns: list[str], rows: list[tuple], comments: list[str] | None = None) -> None:
    """Write a deterministic CSV: optional '#' comment lines, header, rows."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
