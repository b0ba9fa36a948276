"""On-disk artifact formats: echo containers, PGM images, CSV tables.

Everything written here is byte-deterministic given identical inputs:
floats are serialized with round-tripping ``repr``, arrays as little-endian
binary64, images as binary PGM (P5).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError

ECHO_MAGIC = "radarqi-echoes"
ECHO_VERSION = 1


def fmt_float(x) -> str:
    """Round-trip decimal representation of a binary64 value."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Echo container: textual header + interleaved re/im binary64
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
) -> None:
    """Write (count, length) complex echoes with their synthesis metadata."""
    echoes = np.atleast_2d(np.asarray(echoes, dtype=np.complex128))
    count, length = echoes.shape
    header = (
        f"{ECHO_MAGIC} {ECHO_VERSION}\n"
        f"count = {count}\n"
        f"length = {length}\n"
        f"f0_hz = {fmt_float(f0_hz)}\n"
        f"bandwidth_hz = {fmt_float(bandwidth_hz)}\n"
        f"n_freqs = {n_freqs}\n"
        f"n_antennas = {n_antennas}\n"
        f"snr_db = {'none' if snr_db is None else fmt_float(snr_db)}\n"
        f"seed = {seed}\n"
        "[binary]\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        f.write(echoes.astype("<c16").tobytes())


def load_echoes(path) -> tuple[np.ndarray, dict]:
    """Read an echo container; returns (echoes, header-metadata dict)."""
    raw = Path(path).read_bytes()
    sep = b"[binary]\n"
    pos = raw.find(sep)
    if pos < 0:
        raise FormatError(f"{path}: missing [binary] separator")
    lines = raw[:pos].decode("utf-8").splitlines()
    if not lines or not lines[0].startswith(ECHO_MAGIC):
        raise FormatError(f"{path}: not an echo container")
    version = lines[0][len(ECHO_MAGIC) :].strip()
    if version != str(ECHO_VERSION):
        raise FormatError(f"{path}: unsupported echo container version {version!r}")
    meta: dict = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    try:
        count = int(meta["count"])
        length = int(meta["length"])
        meta["f0_hz"] = float(meta["f0_hz"])
        meta["bandwidth_hz"] = float(meta["bandwidth_hz"])
        meta["n_freqs"] = int(meta["n_freqs"])
        meta["n_antennas"] = int(meta["n_antennas"])
        meta["snr_db"] = None if meta["snr_db"] == "none" else float(meta["snr_db"])
        meta["seed"] = int(meta["seed"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad echo container header ({exc})") from exc
    if length != meta["n_freqs"] * meta["n_antennas"]:
        raise FormatError(
            f"{path}: echo length {length} is not n_freqs * n_antennas = "
            f"{meta['n_freqs']} * {meta['n_antennas']}"
        )
    payload = raw[pos + len(sep) :]
    expected = count * length * 2 * 8
    if len(payload) != expected:
        raise FormatError(
            f"{path}: binary payload is {len(payload)} bytes at offset "
            f"{pos + len(sep)}, expected {expected}"
        )
    echoes = np.frombuffer(payload, dtype="<c16").reshape(count, length)
    meta["count"] = count
    meta["length"] = length
    return echoes.astype(np.complex128), meta


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def to_gray_bytes(img: np.ndarray) -> np.ndarray:
    """Clamp [0, 1] floats to uint8 with round-half-up."""
    img = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    return np.floor(img * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-D float image in [0, 1] as binary PGM (P5, maxval 255)."""
    data = to_gray_bytes(img)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def image_grid(rows: list[list[np.ndarray]], pad: int = 1, pad_value: float = 0.5) -> np.ndarray:
    """Compose equally-sized tiles into one image with thin separators."""
    tile_h, tile_w = rows[0][0].shape
    n_rows = len(rows)
    n_cols = max(len(r) for r in rows)
    out = np.full(
        (n_rows * tile_h + (n_rows + 1) * pad, n_cols * tile_w + (n_cols + 1) * pad),
        pad_value,
    )
    for i, row in enumerate(rows):
        for j, tile in enumerate(row):
            top = pad + i * (tile_h + pad)
            left = pad + j * (tile_w + pad)
            out[top : top + tile_h, left : left + tile_w] = np.clip(tile, 0.0, 1.0)
    return out


def curve_raster(
    xs,
    ys,
    width: int = 320,
    height: int = 240,
    margin: int = 20,
) -> np.ndarray:
    """Render a polyline as a white-background raster (basic sweep plot)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
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


def format_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def write_csv(path, columns: list[str], rows: list[tuple], comments: list[str] | None = None) -> None:
    """Write a deterministic CSV: optional '#' comment lines, header, rows."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
