"""Image-quality metrics: mean squared error and structural similarity.

Both score over the last two axes: one image pair gives a float, a stack of
pairs gives one value per pair.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

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


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    window = np.outer(g, g)
    return window / window.sum()


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = 1.0):
    """Mean local structural similarity over an 11x11 Gaussian window.

    Window sigma 1.5, stabilizers K1 = 0.01 and K2 = 0.03 on the given
    dynamic range, reflective padding at the borders. Callers should clamp
    images into [0, data_range] first.
    """
    a, b = _pair(a, b)
    # A window of one along the stacking axes keeps images apart.
    window = _gaussian_window().reshape((1,) * (a.ndim - 2) + (SSIM_WINDOW, SSIM_WINDOW))
    filt = lambda img: ndimage.correlate(img, window, mode="reflect")

    mu_a = filt(a)
    mu_b = filt(b)
    var_a = filt(a * a) - mu_a**2
    var_b = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b

    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return _per_image_mean(num / den)


def image_quality(truth: np.ndarray, recon: np.ndarray, side: int):
    """Per-image (mse, ssim) arrays of (n, side**2) maps, with the
    reconstructions clamped into [0, 1] first."""
    truth = np.asarray(truth).reshape(-1, side, side)
    recon = np.clip(recon, 0.0, 1.0).reshape(-1, side, side)
    return mse(truth, recon), ssim(truth, recon)
