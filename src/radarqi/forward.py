"""Frequency-domain echo model for the sparse-sampled stepped-FMCW setup.

The measurement of antenna k at frequency f_n is the coherent sum of
round-trip phase terms over all grid cells,

    s(n, k) = sum_p eps_p * exp(-j * 4 * pi * f_n * R_{k,p} / c),

which stacks into ``s = A @ eps`` with one Nf x P block per antenna. ``A``
is a plain complex (Nf*K, P) array, and every function here takes it as one.
Echoes are always batches of shape (n, Nf*K); a single echo is a batch of
one. Measurement noise, where wanted, is complex AWGN added to such a batch
at a per-echo SNR by :func:`noisy_echoes`.
"""

from __future__ import annotations

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, DoiGrid, FrequencySweep, distances


def build_sensing_matrix(
    sweep: FrequencySweep, array: ArrayGeometry, grid: DoiGrid
) -> np.ndarray:
    """Assemble the (Nf*K, P) matrix A with entries exp(-j * 4 * pi * f_n * R_{k,p} / c).

    Rows are antenna-major: row i belongs to antenna ``i // Nf`` and
    frequency index ``i % Nf``. Every entry has unit modulus.
    """
    r = distances(array, grid)  # (K, P)
    # (K, Nf, P) phases, then stacked antenna-major into (Nf*K, P).
    phase = (
        4.0 * np.pi / SPEED_OF_LIGHT * sweep.freqs[None, :, None] * r[:, None, :]
    )
    return np.exp(-1j * phase).reshape(-1, grid.n_cells)


def synthesize_echoes(a, maps: np.ndarray) -> np.ndarray:
    """Batched noise-free synthesis: (n, P) maps -> (n, Nf*K) complex echoes."""
    m = np.asarray(a)
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 2 or maps.shape[1] != m.shape[1]:
        raise ValueError(f"expected maps of shape (n, {m.shape[1]}), got {maps.shape}")
    return maps @ m.T


def noisy_echoes(echoes: np.ndarray, snr_db: float | None, seed: int) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise to (n, m) echoes.

    Each echo gets noise variance mean(|s|^2) / 10^(snr_db / 10) per sample,
    split evenly between real and imaginary parts. Deterministic per seed.
    ``snr_db`` of None returns the echoes unchanged.
    """
    if snr_db is None:
        return echoes
    power = np.mean(np.abs(echoes) ** 2, axis=1, keepdims=True)
    if np.any(power == 0):
        raise ValueError("cannot set a finite SNR on an all-zero echo")
    sigma2 = power / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB47C]))
    scale = np.sqrt(sigma2 / 2.0)
    noise = scale * (
        rng.standard_normal(echoes.shape) + 1j * rng.standard_normal(echoes.shape)
    )
    return echoes + noise
