import numpy as np
import pytest

from radarqi.config import ExperimentConfig
from radarqi.forward import build_sensing_matrix, noisy_echoes, synthesize_echoes
from radarqi.geometry import (
    SPEED_OF_LIGHT,
    build_doi_grid,
    build_sweep,
    build_ula,
    distances,
)
from radarqi.harness import build_scene


def toy_scene(n_antennas=3, n_freqs=5, side=3):
    grid = build_doi_grid(side, 0.03)
    array = build_ula(n_antennas, 30e9, 2.0)
    sweep = build_sweep(30e9, 5e9, n_freqs)
    return grid, array, sweep


def brute_force_echo(sweep, array, grid, eps):
    """Direct double loop over antennas and frequencies, summing the phase
    contribution of every grid cell; independent of the matrix path."""
    r = distances(array, grid)
    out = np.zeros(len(array) * len(sweep), dtype=np.complex128)
    i = 0
    for k in range(len(array)):
        for n in range(len(sweep)):
            f = 30e9 + 5e9 / len(sweep) * n  # toy_scene's sweep start and bandwidth
            acc = 0.0 + 0.0j
            for p in range(len(grid)):
                acc += eps[p] * np.exp(-1j * 2 * np.pi * f * 2 * r[k, p] / SPEED_OF_LIGHT)
            out[i] = acc
            i += 1
    return out


class TestSensingMatrix:
    def test_phase_spot_check_integer_cycles(self):
        # 30 GHz at R = 2.0 m: round-trip phase 4*pi*f*R/c = 800*pi -> 1 + 0j
        grid = build_doi_grid(1, 0.01)
        array = build_ula(1, 30e9, 2.0)
        sweep = build_sweep(30e9, 5e9, 1)
        a = build_sensing_matrix(sweep, array, grid)
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_phase_spot_check_quarter_cycle(self):
        # R = 2.00125 m adds half a pi: entry -1j
        grid = build_doi_grid(1, 0.01)
        array = np.array([[0.0, 2.00125]])
        sweep = build_sweep(30e9, 5e9, 1)
        a = build_sensing_matrix(sweep, array, grid)
        assert a[0, 0] == pytest.approx(0.0 - 1.0j, abs=1e-12)

    def test_unit_modulus(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_block_structure(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        r = distances(array, grid)
        for i in range(a.shape[0]):
            k, n = divmod(i, len(sweep))
            f = sweep[n]
            expected = np.exp(-1j * 4 * np.pi * f * r[k] / SPEED_OF_LIGHT)
            np.testing.assert_allclose(a[i], expected, atol=1e-12)

    @pytest.mark.parametrize("standoff", [1e160, 1e300])
    def test_phase_beyond_the_float_range_rejected(self, standoff):
        grid, _, sweep = toy_scene()
        with pytest.raises(ValueError, match="scene"):
            build_sensing_matrix(sweep, build_ula(3, 30e9, standoff), grid)


def test_build_scene_returns_the_arrays_and_their_matrix():
    cfg = ExperimentConfig(side_cells=4, n_antennas=3, n_freqs=5)
    centers, positions, freqs, matrix = build_scene(cfg, f0_hz=32e9)
    assert centers.shape == (16, 2) and positions.shape == (3, 2) and freqs.shape == (5,)
    assert freqs[0] == 32e9
    np.testing.assert_array_equal(positions, build_ula(3, cfg.f0_hz, cfg.standoff_m))
    assert matrix.shape == (15, 16) and matrix.dtype == np.complex128
    np.testing.assert_array_equal(matrix, build_sensing_matrix(freqs, positions, centers))


def synthesize_one(a, eps):
    """One echo, synthesized as a batch of one."""
    return synthesize_echoes(a, np.asarray(eps)[None])[0]


class TestSynthesizeEcho:
    def test_zero_map_zero_echo(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        assert np.all(synthesize_one(a, np.zeros(len(grid))) == 0)

    def test_unit_cell_selects_column(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        eps = np.zeros(len(grid))
        eps[4] = 1.0
        np.testing.assert_allclose(synthesize_one(a, eps), a[:, 4])

    def test_matches_double_loop_oracle(self):
        grid, array, sweep = toy_scene(3, 5, 3)
        a = build_sensing_matrix(sweep, array, grid)
        rng = np.random.default_rng(0)
        eps = rng.uniform(0, 1, len(grid))
        got = synthesize_one(a, eps)
        want = brute_force_echo(sweep, array, grid, eps)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_additivity(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        eps1 = np.zeros(len(grid))
        eps2 = np.zeros(len(grid))
        eps1[[0, 3, 7]] = (0.2, 0.9, 0.5)
        eps2[[1, 3]] = (0.4, 0.1)
        s12 = synthesize_one(a, eps1 + eps2)
        np.testing.assert_allclose(
            s12, synthesize_one(a, eps1) + synthesize_one(a, eps2), atol=1e-10
        )

    def test_real_scaling_exact(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        rng = np.random.default_rng(1)
        eps = rng.uniform(0, 1, len(grid))
        np.testing.assert_array_equal(
            synthesize_one(a, 2.0 * eps), 2.0 * synthesize_one(a, eps)
        )

    def test_dimension_mismatch(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        with pytest.raises(ValueError):
            synthesize_one(a, np.zeros(len(grid) + 1))
        with pytest.raises(ValueError):
            synthesize_echoes(a, np.zeros(len(grid)))

    def test_batch_matches_single(self):
        grid, array, sweep = toy_scene()
        a = build_sensing_matrix(sweep, array, grid)
        rng = np.random.default_rng(2)
        maps = rng.uniform(0, 1, (4, len(grid)))
        batch = synthesize_echoes(a, maps)
        for i in range(4):
            np.testing.assert_allclose(batch[i], synthesize_one(a, maps[i]))


class TestAwgn:
    def _unit_power_echoes(self, n=200):
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, 2 * np.pi, (1, n))
        return np.exp(1j * phases)

    def test_none_passthrough(self):
        echoes = self._unit_power_echoes()
        assert noisy_echoes(echoes, None, seed=0) is echoes

    def test_noise_power_within_15_percent(self):
        echoes = self._unit_power_echoes(200)
        noise = noisy_echoes(echoes, 10.0, seed=0) - echoes
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(0.1, rel=0.15)

    def test_noise_power_is_per_echo(self):
        echoes = self._unit_power_echoes(400).reshape(2, 200) * np.array([[1.0], [10.0]])
        noise = noisy_echoes(echoes, 10.0, seed=0) - echoes
        measured = np.mean(np.abs(noise) ** 2, axis=1)
        np.testing.assert_allclose(measured, [0.1, 10.0], rtol=0.15)

    def test_deterministic_per_seed(self):
        echoes = self._unit_power_echoes()
        a = noisy_echoes(echoes, 5.0, seed=42)
        b = noisy_echoes(echoes, 5.0, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        echoes = self._unit_power_echoes()
        a = noisy_echoes(echoes, 5.0, seed=1)
        b = noisy_echoes(echoes, 5.0, seed=2)
        assert not np.array_equal(a, b)

    def test_zero_echo_rejected(self):
        echoes = np.stack([self._unit_power_echoes(8)[0], np.zeros(8, dtype=complex)])
        with pytest.raises(ValueError):
            noisy_echoes(echoes, 10.0, seed=0)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR must be a finite number"):
            noisy_echoes(self._unit_power_echoes(), snr_db, seed=0)

    @pytest.mark.parametrize("snr_db", [5000.0, -5000.0])
    def test_snr_beyond_the_float_range_rejected(self, snr_db):
        # the noise variance would be 0 or inf; warnings are errors here
        with pytest.raises(ValueError, match="noise variance"):
            noisy_echoes(self._unit_power_echoes(), snr_db, seed=0)
