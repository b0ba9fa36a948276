"""Frequency-domain echo model for the sparse-sampled stepped-FMCW setup.

The measurement of antenna k at frequency f_n is the coherent sum of
round-trip phase terms over all grid cells,

    s(n, k) = sum_p eps_p * exp(-j * 4 * pi * f_n * R_{k,p} / c),

which stacks into ``s = A @ eps`` with one Nf x P block per antenna. The
scene enters as the plain arrays of :mod:`radarqi.geometry`: frequencies
(Nf,) in Hz, antenna positions (K, 2) and cell centers (P, 2) in metres.
``A`` is a plain complex (Nf*K, P) array, and every function here takes it
as one. Maps are real (n, P) batches; echoes are always complex batches of
shape (n, Nf*K), and a single echo is a batch of one. Measurement noise,
where wanted, is complex AWGN added to such a batch at a per-echo SNR by
:func:`noisy_echoes`.
"""

from __future__ import annotations

import numpy as np

from .geometry import SPEED_OF_LIGHT, distances


def build_sensing_matrix(freqs: np.ndarray, positions: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Assemble the (Nf*K, P) matrix A with entries exp(-j * 4 * pi * f_n * R_{k,p} / c)
    from (Nf,) frequencies [Hz], (K, 2) antenna positions and (P, 2) cell
    centers [m].

    Rows are antenna-major: row i belongs to antenna ``i // Nf`` and
    frequency index ``i % Nf``. Every entry has unit modulus. A scene whose
    phases leave the float range (a standoff of 1e300 m, say) raises
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # out of range: an inf or nan phase
        r = distances(positions, centers)  # (K, P)
        # (K, Nf, P) phases, then stacked antenna-major into (Nf*K, P).
        phase = 4.0 * np.pi / SPEED_OF_LIGHT * freqs[None, :, None] * r[:, None, :]
    if not np.all(np.isfinite(phase)):
        raise ValueError("scene gives a round-trip phase beyond the float range")
    return np.exp(-1j * phase).reshape(-1, len(centers))


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
    ``snr_db`` of None returns the echoes unchanged. A non-finite one raises
    ValueError, and so does one that gives an echo a noise variance that is
    not finite and > 0: an all-zero echo, or an SNR beyond the float range.
    """
    if snr_db is None:
        return echoes
    if not np.isfinite(snr_db):
        raise ValueError(f"SNR must be a finite number of dB, got {snr_db}")
    power = np.mean(np.abs(echoes) ** 2, axis=1, keepdims=True)
    with np.errstate(over="ignore", divide="ignore"):  # out of range: a variance of inf or 0
        sigma2 = power / np.float64(10.0) ** (snr_db / 10.0)
    if not np.all((sigma2 > 0) & (sigma2 < np.inf)):
        raise ValueError(f"SNR {snr_db} dB gives an echo a noise variance not finite and > 0")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB47C]))
    scale = np.sqrt(sigma2 / 2.0)
    noise = scale * (
        rng.standard_normal(echoes.shape) + 1j * rng.standard_normal(echoes.shape)
    )
    return echoes + noise
