import numpy as np
import pytest

from radarqi.geometry import (
    SPEED_OF_LIGHT,
    build_doi_grid,
    build_sweep,
    build_ula,
    distances,
    rasters_to_maps,
)
from radarqi.io import to_gray_bytes


def one_map(raster):
    """The native-grid map of one 28x28 byte raster."""
    return rasters_to_maps(raster[None], 28)[0]


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda: build_doi_grid(5, 0.02), (25, 2)),
        (lambda: build_ula(3, 30e9, 2.0), (3, 2)),
        (lambda: build_sweep(30e9, 5e9, 7), (7,)),
    ],
    ids=["centers", "positions", "freqs"],
)
def test_builders_return_plain_float64_arrays(build, shape):
    out = build()
    assert type(out) is np.ndarray
    assert out.dtype == np.float64
    assert out.shape == shape


class TestDoiGrid:
    def test_default_grid_span(self):
        grid = build_doi_grid(28, 0.01)
        assert len(grid) == 784
        # centers at (col - 13.5) * 0.01 horizontally, mirrored vertically
        assert grid[:, 0].min() == pytest.approx(-0.135, abs=1e-15)
        assert grid[:, 0].max() == pytest.approx(+0.135, abs=1e-15)
        assert grid[:, 1].min() == pytest.approx(-0.135, abs=1e-15)
        assert grid[:, 1].max() == pytest.approx(+0.135, abs=1e-15)
        # row-major indexing: p = row * 28 + col, row 0 at maximum y
        p = 2 * 28 + 5
        assert grid[p, 0] == pytest.approx((5 - 13.5) * 0.01)
        assert grid[p, 1] == pytest.approx((13.5 - 2) * 0.01)

    def test_single_cell_at_origin(self):
        grid = build_doi_grid(1, 0.01)
        np.testing.assert_allclose(grid, [[0.0, 0.0]])

    def test_two_by_two_enumeration(self):
        grid = build_doi_grid(2, 0.02)
        expected = [(-0.01, 0.01), (0.01, 0.01), (-0.01, -0.01), (0.01, -0.01)]
        np.testing.assert_allclose(grid, expected, atol=1e-15)

    def test_symmetric_about_origin(self):
        grid = build_doi_grid(6, 0.03)
        flipped = {(-round(x, 12), -round(y, 12)) for x, y in grid}
        original = {(round(x, 12), round(y, 12)) for x, y in grid}
        assert flipped == original

    def test_adjacent_centers_differ_by_cell_size(self):
        grid = build_doi_grid(5, 0.02)
        c = grid.reshape(5, 5, 2)
        np.testing.assert_allclose(c[:, 1:, 0] - c[:, :-1, 0], 0.02)
        np.testing.assert_allclose(c[1:, :, 1] - c[:-1, :, 1], -0.02)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_doi_grid(28, 0.0)
        with pytest.raises(ValueError):
            build_doi_grid(0, 0.01)


class TestUla:
    def test_four_antennas_at_30ghz(self):
        arr = build_ula(4, 30e9, 2.0)
        # spacing c / (2 f0) = 5 mm, centered on x = 0
        np.testing.assert_allclose(
            arr[:, 0], [-7.5e-3, -2.5e-3, 2.5e-3, 7.5e-3], atol=1e-15
        )
        np.testing.assert_allclose(arr[:, 1], 2.0)

    def test_single_antenna_centered(self):
        arr = build_ula(1, 30e9, 2.0)
        np.testing.assert_allclose(arr, [[0.0, 2.0]])

    def test_two_antennas_at_15ghz(self):
        arr = build_ula(2, 15e9, 2.0)
        np.testing.assert_allclose(arr[:, 0], [-5e-3, 5e-3], atol=1e-15)

    def test_spacing_invariant(self):
        for k, f0 in [(4, 30e9), (7, 12e9), (2, 94e9)]:
            arr = build_ula(k, f0, 2.0)
            gaps = np.diff(arr[:, 0])
            np.testing.assert_allclose(gaps, SPEED_OF_LIGHT / (2 * f0), atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_ula(0, 30e9, 2.0)
        with pytest.raises(ValueError):
            build_ula(4, 0.0, 2.0)


class TestDistances:
    def test_known_values(self):
        arr = np.array([[0.0, 2.0]])
        grid = build_doi_grid(1, 0.01)
        assert distances(arr, grid)[0, 0] == pytest.approx(2.0)

    def test_pythagoras(self):
        arr = np.array([[0.0, 2.0]])
        centers = np.array([[0.03, 0.04]])
        r = np.sqrt((0.0 - 0.03) ** 2 + (2.0 - 0.04) ** 2)
        assert r == pytest.approx(1.96022957, abs=1e-8)
        assert distances(arr, centers)[0, 0] == pytest.approx(r, abs=1e-15)

    def test_symmetric_points_equal_distance(self):
        arr = np.array([[0.0, 2.0]])
        grid = build_doi_grid(4, 0.02)
        r = distances(arr, grid)[0].reshape(4, 4)
        np.testing.assert_allclose(r, r[:, ::-1])

    def test_bounds_against_brute_force(self):
        # every distance within (standoff - diag/2, standoff + diag)
        arr = build_ula(3, 30e9, 2.0)
        grid = build_doi_grid(4, 0.05)
        r = distances(arr, grid)
        brute = np.array(
            [
                [np.hypot(ax - px, ay - py) for (px, py) in grid]
                for (ax, ay) in arr
            ]
        )
        np.testing.assert_allclose(r, brute, atol=1e-15)
        diag = np.sqrt(2) * 4 * 0.05
        assert np.all(r > 2.0 - diag / 2)
        assert np.all(r < 2.0 + diag)
        assert np.all(r > 0)


class TestMnistToRcs:
    """One 28x28 byte raster on the native 28x28 grid, and back to bytes."""

    def test_zero_raster(self):
        assert np.all(one_map(np.zeros((28, 28), dtype=np.uint8)) == 0.0)

    def test_single_corner_byte(self):
        img = np.zeros((28, 28), dtype=np.uint8)
        img[0, 0] = 255
        eps = one_map(img)
        assert eps[0] == 1.0
        assert np.count_nonzero(eps) == 1

    def test_row_major_index(self):
        img = np.zeros((28, 28), dtype=np.uint8)
        img[2, 3] = 128
        eps = one_map(img)
        assert eps[2 * 28 + 3] == pytest.approx(128 / 255)
        assert np.count_nonzero(eps) == 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            rasters_to_maps(np.zeros((27, 28), dtype=np.uint8), 28)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(28, 28)).astype(np.uint8)
        np.testing.assert_array_equal(to_gray_bytes(one_map(img).reshape(28, 28)), img)


class TestRastersToMaps:
    @staticmethod
    def _rasters(count=5, side=28, seed=3):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(count, side, side)).astype(np.uint8)

    def test_native_grid_is_exact(self):
        rasters = self._rasters()
        expected = rasters.reshape(len(rasters), -1).astype(np.float64) / 255.0
        maps = rasters_to_maps(rasters, 28)
        assert maps.dtype == np.float64
        assert maps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", [14, 8, 56])
    def test_resampled_range_and_mean(self, side):
        rasters = self._rasters()
        maps = rasters_to_maps(rasters, side)
        assert maps.shape == (len(rasters), side * side)
        assert np.all(maps >= 0.0) and np.all(maps <= 1.0)
        np.testing.assert_allclose(
            maps.mean(axis=1), rasters.mean(axis=(1, 2)) / 255.0, rtol=0, atol=1e-12
        )

    def test_block_mean_when_side_divides(self):
        rasters = self._rasters(count=2)
        maps = rasters_to_maps(rasters, 14).reshape(2, 14, 14)
        blocks = rasters.reshape(2, 14, 2, 14, 2).mean(axis=(2, 4)) / 255.0
        np.testing.assert_allclose(maps, blocks, rtol=0, atol=1e-15)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            rasters_to_maps(np.zeros((28, 28), dtype=np.uint8), 28)


class TestSweep:
    def test_table_values(self):
        sw = build_sweep(30e9, 5e9, 50)
        assert sw.shape == (50,)
        assert sw[0] == 30e9
        assert np.all(np.diff(sw) > 0)
        np.testing.assert_allclose(np.diff(sw), 5e9 / 50)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_sweep(0.0, 5e9, 50)

    @pytest.mark.parametrize("f0, bandwidth", [(np.nan, 5e9), (np.inf, 5e9), (30e9, np.nan)])
    def test_non_finite_rejected(self, f0, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            build_sweep(f0, bandwidth, 50)
