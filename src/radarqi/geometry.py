"""Scene geometry: imaging grid, antenna array, frequency sweep, target maps.

The scene is three plain float64 arrays:

* cell centers, shape (P, 2), in metres, from :func:`build_doi_grid`. The
  domain of interest (DOI) is a square grid of ``side_cells`` x
  ``side_cells`` cells centered on the origin, so P = ``side_cells**2``.
  Cells are stored row-major with ``p = row * side_cells + col``; row 0
  sits at the largest y coordinate, so a 28x28 image renders with its top
  row facing the antenna array.
* antenna positions, shape (K, 2), in metres, from :func:`build_ula`: a
  uniform linear array on the line ``y = standoff``, parallel to the x axis,
  centered on ``x = 0`` and ordered by increasing x.
* frequencies, shape (Nf,), in Hz, from :func:`build_sweep`: strictly
  increasing, starting at ``f0``.

Reflectivity (RCS) maps are plain float64 vectors of length
``side_cells**2`` with values in [0, 1].
"""

from __future__ import annotations

import numpy as np

# Radar convention: keeps c/(2*f0) antenna spacing and round-trip phases on
# exact decimal values (e.g. 5 mm spacing at 30 GHz).
SPEED_OF_LIGHT = 3.0e8  # m/s


def build_doi_grid(side_cells: int, cell_size: float) -> np.ndarray:
    """The (side_cells**2, 2) cell centers [m] of a centered square grid.

    Parameters
    ----------
    side_cells : int
        Cells per side, >= 1.
    cell_size : float
        Cell pitch [m], > 0.
    """
    if side_cells < 1:
        raise ValueError(f"side_cells must be >= 1, got {side_cells}")
    if cell_size <= 0:
        raise ValueError(f"cell_size must be > 0, got {cell_size}")
    half = (side_cells - 1) / 2.0
    rows, cols = np.mgrid[0:side_cells, 0:side_cells]
    x = (cols.ravel() - half) * cell_size
    y = (half - rows.ravel()) * cell_size
    return np.column_stack([x, y])


def build_ula(k: int, f0: float, standoff: float) -> np.ndarray:
    """The (k, 2) positions [m] of a uniform linear array with
    half-wavelength spacing c/(2*f0), on ``y = standoff`` and centered on
    ``x = 0``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")
    spacing = SPEED_OF_LIGHT / (2.0 * f0)
    x = (np.arange(k) - (k - 1) / 2.0) * spacing
    y = np.full(k, standoff, dtype=float)
    return np.column_stack([x, y])


def distances(positions: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Euclidean distances R[k, p] [m] from antenna k of (K, 2) positions to
    cell p of (P, 2) centers; shape (K, P)."""
    diff = positions[:, None, :] - centers[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def build_sweep(f0: float, bandwidth: float, n_freqs: int) -> np.ndarray:
    """The (n_freqs,) stepped-sweep frequencies [Hz]
    f_n = f0 + (bandwidth / n_freqs) * n, n = 0..n_freqs-1."""
    if not (0 < f0 < np.inf and 0 < bandwidth < np.inf) or n_freqs < 1:
        raise ValueError("sweep requires finite f0 > 0 and bandwidth > 0, n_freqs >= 1")
    step = bandwidth / n_freqs
    return f0 + step * np.arange(n_freqs)


def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) weights: the share of output cell j's span covered by
    input pixel i, with both spans laid over the same extent.

    Edges are compared in units of 1 / (n_in * n_out) of the extent, so the
    overlaps are exact integers; each row sums to 1.
    """
    cells = np.arange(n_out)[:, None]
    pixels = np.arange(n_in)[None, :]
    overlap = np.minimum((cells + 1) * n_in, (pixels + 1) * n_out) - np.maximum(
        cells * n_in, pixels * n_out
    )
    return np.maximum(overlap, 0) / n_in


def rasters_to_maps(rasters: np.ndarray, side_cells: int) -> np.ndarray:
    """Convert (n, H, W) byte rasters into (n, side_cells**2) reflectivity maps.

    The raster is laid over the whole DOI and resampled by area averaging:
    each cell gets the mean of the raster area it covers, pixels cut by a
    cell edge counting by the share they cover. Amplitude is then byte / 255,
    flattened row-major with p = row * side_cells + col. Every cell is a
    convex combination of pixels, so values stay in [0, 1] and each map's
    mean equals its raster's mean / 255 up to rounding. When H == W ==
    side_cells the weights are the identity and the result is exactly
    ``raster / 255``.
    """
    rasters = np.asarray(rasters)
    if rasters.ndim != 3:
        raise ValueError(f"expected rasters of shape (n, H, W), got {rasters.shape}")
    n, h, w = rasters.shape
    rows = _area_weights(h, side_cells)
    cols = _area_weights(w, side_cells)
    cells = rows @ rasters.astype(np.float64) @ cols.T
    return cells.reshape(n, side_cells * side_cells) / 255.0

