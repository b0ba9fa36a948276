import numpy as np
import pytest
from scipy import ndimage

from radarqi.metrics import image_quality, mse, ssim


def window_2d_ssim(a, b):
    """SSIM of one pair with the full 11x11 Gaussian window (sigma 1.5)."""
    coords = np.arange(11) - 5.0
    g = np.exp(-(coords**2) / (2.0 * 1.5**2))
    window = np.outer(g, g)
    window /= window.sum()
    filt = lambda img: ndimage.correlate(img, window, mode="reflect")
    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a**2
    var_b = filt(b * b) - mu_b**2
    cov = filt(a * b) - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def image_pairs(n, side, seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0, 1, (n, side, side)) * (rng.uniform(size=(n, side, side)) < 0.3)
    recon = np.clip(truth + rng.normal(0, 0.2, truth.shape), 0, 1)
    return truth, recon


class TestStackedScores:
    @pytest.mark.parametrize("side", [5, 8, 10, 28, 33])
    def test_stack_equals_per_pair_bit_for_bit(self, side):
        truth, recon = image_pairs(6, side)
        np.testing.assert_array_equal(
            ssim(truth, recon), [ssim(t, r) for t, r in zip(truth, recon)]
        )
        np.testing.assert_array_equal(
            mse(truth, recon), [mse(t, r) for t, r in zip(truth, recon)]
        )

    def test_pair_gives_float_stack_gives_array(self):
        truth, recon = image_pairs(1, 8)
        assert isinstance(ssim(truth[0], recon[0]), float)
        assert isinstance(mse(truth[0], recon[0]), float)
        assert ssim(truth, recon).shape == (1,)
        assert mse(truth, recon).shape == (1,)

    def test_identical_images_score_perfectly(self):
        truth, _ = image_pairs(3, 10)
        np.testing.assert_allclose(ssim(truth, truth), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(mse(truth, truth), 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 4)))


class TestSsimWindow:
    @pytest.mark.parametrize("side", [3, 5, 8, 11, 28, 33])
    def test_separable_passes_match_2d_window(self, side):
        truth, recon = image_pairs(4, side, seed=side)
        expected = [window_2d_ssim(t, r) for t, r in zip(truth, recon)]
        np.testing.assert_allclose(ssim(truth, recon), expected, rtol=0, atol=1e-14)


class TestImageQuality:
    def test_clamps_and_reshapes_flat_maps(self):
        truth, recon = image_pairs(4, 8, seed=1)
        wild = recon * 3.0 - 1.0  # values outside [0, 1]
        mses, ssims = image_quality(truth.reshape(4, 64), wild.reshape(4, 64), 8)
        clamped = np.clip(wild, 0.0, 1.0)
        np.testing.assert_array_equal(mses, [mse(t, r) for t, r in zip(truth, clamped)])
        np.testing.assert_array_equal(ssims, [ssim(t, r) for t, r in zip(truth, clamped)])
