"""Image-quality metrics: mean squared error and structural similarity.

Both score over the last two axes: one image pair gives a float, a stack of
pairs gives one value per pair.

SSIM filters with the window as two small matrix products, one per image
axis: ``W_h @ moments @ W_w.T``. ``W_n`` is the n x n matrix of the 1-D
Gaussian taps under reflective padding (:func:`filter_matrices`). An index
past the border folds modulo ``2n``, so an image side below the window
radius reflects as often as it takes. Each matrix is built once per image
side and cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _per_image_mean(x: np.ndarray):
    out = np.mean(x, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def mse(a: np.ndarray, b: np.ndarray):
    """Mean of squared differences per image."""
    a, b = _pair(a, b)
    return _per_image_mean((a - b) ** 2)


def _gaussian_taps() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def filter_matrices(taps: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrices that correlate a length-``n`` signal with each
    row of ``taps`` (odd length, centred): ``(..., k)`` taps give
    ``(..., n, n)`` matrices. The borders are padded by reflection, which
    repeats the edge sample (``d c b a | a b c d | d c b a``); an index
    folds modulo ``2n``, so it reflects as often as the taps reach."""
    k = taps.shape[-1]
    folded = np.mod(np.arange(n)[:, None] + np.arange(k) - k // 2, 2 * n)
    cols = np.where(folded < n, folded, 2 * n - 1 - folded)
    scatter = np.zeros((k, n, n))
    scatter[np.arange(k), np.arange(n)[:, None], cols] = 1.0
    return (taps @ scatter.reshape(k, n * n)).reshape(*taps.shape[:-1], n, n)


@lru_cache(maxsize=None)
def _window_matrix(n: int) -> np.ndarray:
    """The SSIM window's matrix for an image axis of length ``n``."""
    window = filter_matrices(_gaussian_taps(), n)
    window.flags.writeable = False
    return window


def ssim(a: np.ndarray, b: np.ndarray):
    """Mean local structural similarity over an 11x11 Gaussian window.

    Window sigma 1.5, stabilizers K1 = 0.01 and K2 = 0.03 on a dynamic
    range of 1, reflective padding at the borders. Callers should clamp
    images into [0, 1] first. The window is the outer product of a
    normalised 1-D Gaussian with itself and reflection pads each axis alone,
    so one 1-D pass along each image axis applies the same window.
    """
    a, b = _pair(a, b)
    # Two products per image filter all five local moments at once; each
    # image gets its own products, so a stack scores as its pairs do.
    moments = np.stack([a, b, a * a, b * b, a * b])
    rows = moments @ _window_matrix(a.shape[-1]).T
    mu_a, mu_b, e_aa, e_bb, e_ab = _window_matrix(a.shape[-2]) @ rows
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b

    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return _per_image_mean(num / den)


def image_quality(truth: np.ndarray, recon: np.ndarray, side: int):
    """Per-image (mse, ssim) arrays of (n, side**2) maps, with the
    reconstructions clamped into [0, 1] first."""
    truth = np.asarray(truth).reshape(-1, side, side)
    recon = np.clip(recon, 0.0, 1.0).reshape(-1, side, side)
    return mse(truth, recon), ssim(truth, recon)
