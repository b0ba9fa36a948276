import tracemalloc

import numpy as np
import pytest

from radarqi.config import ExperimentConfig
from radarqi.datasets import synthetic_digit_rasters
from radarqi.errors import DivergedError
from radarqi.fista import (
    FistaConfig,
    ImagingOperator,
    energy,
    fista_iterates,
    fista_solve,
    fista_solve_many,
    momentum_coeffs,
    nonneg_shrink,
    soft_threshold,
)
from radarqi.forward import synthesize_echoes
from radarqi.geometry import rasters_to_maps
from radarqi.harness import F0_GRID_GHZ, build_scene
from radarqi.nn_ops import relu


class TestSoftThreshold:
    def test_hand_values(self):
        assert soft_threshold(np.array([1.2]), 0.5)[0] == pytest.approx(0.7)
        assert soft_threshold(np.array([-1.2]), 0.5)[0] == pytest.approx(-0.7)

    def test_zero_threshold_is_identity(self):
        x = np.array([0.3, -2.0, 0.0, 5.5])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_below_threshold_zeroed(self):
        assert soft_threshold(np.array([0.3]), 0.5)[0] == 0.0
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_equals_the_sign_times_shrunk_magnitude(self, theta):
        rng = np.random.default_rng(17)
        special = [theta, -theta, 0.0, -0.0, np.inf, -np.inf, np.nan, 0.5 * theta]
        x = rng.permutation(np.concatenate([special, rng.normal(size=232)])).reshape(6, 40)
        want = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
        np.testing.assert_array_equal(soft_threshold(x, theta), want)
        out = np.full_like(x, 7.0)
        assert soft_threshold(x, theta, out=out) is out
        np.testing.assert_array_equal(out, want)

    def test_nonexpansive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            theta = float(rng.uniform(0, 2))
            lhs = np.linalg.norm(soft_threshold(a, theta) - soft_threshold(b, theta))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestNonnegShrink:
    def test_is_relu_of_the_shifted_input_bit_for_bit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 30))
        theta = np.float64(0.37)
        want = relu(x - theta)
        np.testing.assert_array_equal(nonneg_shrink(x, theta), want)
        out = np.full_like(x, np.nan)
        assert nonneg_shrink(x, theta, out=out) is out
        np.testing.assert_array_equal(out, want)


class TestLipschitzConstant:
    def test_identity(self):
        assert ImagingOperator(np.eye(4)).lmax == pytest.approx(1.0)

    def test_scalar_matrix(self):
        assert ImagingOperator(np.array([[2.0]])).lmax == pytest.approx(4.0)
        # so the derived step is 1/4

    def test_against_dense_eigensolver_on_submatrix(self, table1_scene):
        _, _, _, _, matrix = table1_scene
        sub = matrix[:, :20]
        dense = np.linalg.eigvalsh(sub.conj().T @ sub)[-1]
        assert ImagingOperator(sub).lmax == pytest.approx(dense, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            ImagingOperator(np.zeros((3, 3)))

    def test_bounds_rayleigh_quotients(self, table1_scene, table1_op):
        _, _, _, _, matrix = table1_scene
        rng = np.random.default_rng(12)
        shape = (50, matrix.shape[1])
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        av = v @ matrix.T
        quotients = np.sum(np.abs(av) ** 2, axis=1) / np.sum(np.abs(v) ** 2, axis=1)
        assert np.all(quotients <= table1_op.lmax)


class TestMomentum:
    def test_t_sequence_values(self):
        # independent recurrence: t0=1, t_{i+1} = (1 + sqrt(1 + 4 t_i^2)) / 2
        t = [1.0]
        for _ in range(3):
            t.append((1.0 + np.sqrt(1.0 + 4.0 * t[-1] ** 2)) / 2.0)
        assert t[1] == pytest.approx(1.618033988749895, abs=1e-12)
        assert t[2] == pytest.approx(2.193527085331054, abs=1e-12)
        coeffs = momentum_coeffs(3)
        assert coeffs[0] == 0.0
        assert coeffs[1] == pytest.approx((t[1] - 1.0) / t[2], abs=1e-15)
        assert coeffs[2] == pytest.approx((t[2] - 1.0) / t[3], abs=1e-15)


class TestEnergy:
    def test_zero_estimate(self):
        a = np.eye(3)
        s = np.array([1.0, 2.0, 2.0])
        assert energy(ImagingOperator(a), s, np.zeros(3), 0.5) == pytest.approx(4.5)

    def test_zero_residual(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(4)
        eps = np.zeros(len(grid))
        eps[rng.integers(0, len(grid), 10)] = rng.uniform(0, 1, 10)
        s = synthesize_echoes(matrix, eps[None])[0]
        assert energy(table1_op, s, eps, 0.01) == pytest.approx(0.01 * np.sum(np.abs(eps)))

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = rng.normal(size=9)
        lam = 0.3
        op = ImagingOperator(a)
        residual = s - a @ eps
        dense = 0.5 * np.sum(np.abs(residual) ** 2) + lam * np.sum(np.abs(eps))
        # s has 12 real coordinates in the range of A; real maps reach 9
        dropped = 0.5 * (np.sum(np.abs(s) ** 2) - np.sum(op.coords(s) ** 2))
        assert dropped > 0
        assert energy(op, s, eps, lam) == pytest.approx(dense - dropped, abs=1e-12)

    def test_batch_rows_match_single_echo(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(13)
        maps = rng.uniform(0, 1, (4, len(grid))) * (rng.uniform(size=(4, len(grid))) < 0.1)
        echoes = synthesize_echoes(matrix, maps) + rng.normal(size=(4, matrix.shape[0]))
        batch = energy(table1_op, echoes, maps, 0.01)
        assert batch.shape == (4,)
        single = [energy(table1_op, s, eps, 0.01) for s, eps in zip(echoes, maps)]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_matches_the_dense_objective_on_noise_free_echoes(self, table1_scene, table1_op):
        cfg, _, _, _, matrix = table1_scene
        maps = rasters_to_maps(synthetic_digit_rasters(6, 0), cfg.side_cells)
        echoes = synthesize_echoes(matrix, maps[:3])
        residual = echoes - maps[3:] @ matrix.T
        dense = 0.5 * np.sum(np.abs(residual) ** 2, axis=1) + 0.01 * np.sum(maps[3:], axis=1)
        np.testing.assert_allclose(energy(table1_op, echoes, maps[3:], 0.01), dense, rtol=1e-12)

    def test_drops_a_constant_per_noisy_echo(self, table1_scene, table1_op):
        # The full objective less 0.5 * (||s||^2 - ||z||^2), whatever the
        # estimate, up to A eps on the dropped eigenvectors: at most
        # d = sqrt(eps * lmax) * ||eps||, which moves the value by at most
        # ||s|| d + d^2 / 2.
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(15)
        s = rng.normal(size=matrix.shape[0]) + 1j * rng.normal(size=matrix.shape[0])
        offset = 0.5 * (np.sum(np.abs(s) ** 2) - np.sum(table1_op.coords(s) ** 2))
        assert offset > 1.0
        for eps in (np.zeros(len(grid)), rng.uniform(0, 0.01, len(grid))):
            dense = 0.5 * np.sum(np.abs(s - matrix @ eps) ** 2) + 0.01 * np.sum(eps)
            d = np.sqrt(np.finfo(np.float64).eps * table1_op.lmax) * np.linalg.norm(eps)
            bound = np.linalg.norm(s) * d + d * d / 2 + 1e-12 * dense
            assert abs(energy(table1_op, s, eps, 0.01) - (dense - offset)) <= bound


class TestFistaSolve:
    def test_identity_closed_form(self):
        # minimizer of 0.5||s - x||^2 + 0.5||x||_1 is the soft threshold of s
        a = np.eye(4)
        s = np.array([1.0, 0.2, -0.8, 0.0])
        cfg = FistaConfig(lam=0.5, max_iter=500)
        result = fista_solve(a, s, cfg)
        np.testing.assert_allclose(result.estimate, [0.5, 0.0, -0.3, 0.0], atol=1e-4)
        assert result.iterations_run == 500

    def test_zero_echo_zero_solution(self):
        a = np.eye(4)
        result = fista_solve(a, np.zeros(4), FistaConfig(lam=0.1, max_iter=50))
        np.testing.assert_array_equal(result.estimate, 0.0)

    def test_single_point_scene_recovered(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        eps = np.zeros(len(grid))
        eps[300] = 1.0
        s = synthesize_echoes(matrix, eps[None])[0]
        cfg = FistaConfig(lam=0.001, max_iter=300)
        result = fista_solve(matrix, s, cfg, op=table1_op)
        assert int(np.argmax(result.estimate)) == 300

    def test_objective_trace_and_endpoint_decrease(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(10, 25)) + 1j * rng.normal(size=(10, 25))
        truth = np.zeros(25)
        truth[[3, 17]] = (1.0, 0.6)
        s = a @ truth
        cfg = FistaConfig(lam=0.01, max_iter=120, record_objective=True)
        result = fista_solve(a, s, cfg)
        assert len(result.objective_trace) == result.iterations_run + 1
        assert result.objective_trace[-1] < result.objective_trace[0]

    def test_relative_tolerance_stops_early(self):
        a = np.eye(4)
        s = np.array([1.0, 0.5, 0.0, -0.2])
        cfg = FistaConfig(lam=0.01, max_iter=5000, rel_tol=1e-8, record_objective=True)
        result = fista_solve(a, s, cfg)
        assert result.iterations_run < 5000
        assert len(result.objective_trace) == result.iterations_run + 1

    def test_divergence_names_iteration(self):
        a = np.eye(3)
        s = np.array([1.0, np.nan, 1.0])
        cfg = FistaConfig(lam=0.0, max_iter=50)
        with pytest.raises(DivergedError, match="iteration"):
            fista_solve(a, s, cfg)

    def test_batch_matches_single(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(7)
        maps = rng.uniform(0, 1, (3, len(grid))) * (
            rng.uniform(size=(3, len(grid))) < 0.1
        )
        echoes = maps @ matrix.T
        cfg = FistaConfig(lam=0.001, max_iter=60)
        batch = fista_solve_many(matrix, echoes, cfg, op=table1_op)
        for i in range(3):
            single = fista_solve(matrix, echoes[i], cfg, op=table1_op)
            np.testing.assert_allclose(batch[i], single.estimate, atol=1e-12)

    def test_fista_solve_on_a_batch_matches_each_echo(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(14)
        maps = rng.uniform(0, 1, (3, len(grid))) * (rng.uniform(size=(3, len(grid))) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        cfg = FistaConfig(lam=0.001, max_iter=60, record_objective=True)
        batch = fista_solve(matrix, echoes, cfg, op=table1_op)
        assert batch.estimate.shape == (3, len(grid))
        assert batch.objective_trace.shape == (3, 61)
        assert batch.iterations_run == 60
        for i in range(3):
            single = fista_solve(matrix, echoes[i], cfg, op=table1_op)
            assert single.objective_trace.shape == (61,)
            np.testing.assert_allclose(batch.estimate[i], single.estimate, atol=1e-12)
            np.testing.assert_allclose(batch.objective_trace[i], single.objective_trace, rtol=1e-10)

    def test_batch_of_one_bit_identical(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(10)
        eps = rng.uniform(0, 1, len(grid)) * (rng.uniform(size=len(grid)) < 0.1)
        s = synthesize_echoes(matrix, eps[None])[0]
        cfg = FistaConfig(lam=0.001, max_iter=80)
        single = fista_solve(matrix, s, cfg, op=table1_op)
        batch = fista_solve_many(matrix, s[None], cfg, op=table1_op)
        np.testing.assert_array_equal(batch[0], single.estimate)

    def test_batch_stops_when_every_column_converged(self):
        # the zero echo meets rel_tol at once; the batch runs on until the
        # other column meets it too, and no further
        rng = np.random.default_rng(11)
        a = rng.normal(size=(10, 25)) + 1j * rng.normal(size=(10, 25))
        echoes = np.stack([np.zeros(10), a @ rng.uniform(0, 1, 25)])
        op = ImagingOperator(a)
        cfg = FistaConfig(lam=0.01, max_iter=5000, rel_tol=1e-6)
        k = fista_solve(a, echoes[1], cfg, op).iterations_run
        assert 1 < k < 5000
        stopped = fista_solve_many(a, echoes, cfg, op)
        fixed = fista_solve_many(a, echoes, FistaConfig(lam=0.01, max_iter=k), op)
        np.testing.assert_array_equal(stopped, fixed)

    def test_endpoint_energy_decrease_sweep(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(8)
        for lam in (0.001, 0.01):
            eps = np.zeros(len(grid))
            eps[rng.integers(0, len(grid), 12)] = rng.uniform(0.2, 1, 12)
            s = synthesize_echoes(matrix, eps[None])[0]
            cfg = FistaConfig(lam=lam, max_iter=100)
            result = fista_solve(matrix, s, cfg, op=table1_op)
            e0 = energy(table1_op, s, np.zeros(len(grid)), lam)
            assert energy(table1_op, s, result.estimate, lam) < e0

    def test_matches_a_dense_gram_fista(self, table1_scene, table1_op):
        # Straight-line FISTA on the dense Re(A^H A). On these digit echoes a
        # factor cut at P * eps * lmax (144 rows, not 176-178) moves the estimates
        # by about 3e-8 at 1,000 iterations; the kept rows by under 1e-9.
        cfg, _, _, _, matrix = table1_scene
        echoes = synthesize_echoes(matrix, rasters_to_maps(synthetic_digit_rasters(4, 0), cfg.side_cells))
        lam, n_iter = 0.001, 1000
        gram = (matrix.conj().T @ matrix).real
        b = (echoes.conj() @ matrix).real
        mu = 1.0 / np.linalg.eigvalsh(matrix @ matrix.conj().T)[-1]
        x_prev = x = np.zeros_like(b)
        t = 1.0
        for _ in range(n_iter):
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x + (t - 1.0) / t_next * (x - x_prev)
            z = y - mu * (y @ gram - b)
            x_prev, x = x, np.sign(z) * np.maximum(np.abs(z) - lam * mu, 0.0)
            t = t_next
        got = fista_solve(matrix, echoes, FistaConfig(lam=lam, max_iter=n_iter), table1_op)
        assert np.max(np.abs(got.estimate - x)) <= 1e-8

    def test_iterations_allocate_no_rows(self, table1_scene, table1_op):
        # At the peak the solve holds four (n, P) float buffers (the iterate,
        # the one before it, which becomes y, and the last two clipped
        # offsets, one of which first takes mid C), two (n, P) boolean masks
        # (the changed offsets and the finiteness check), five (n, r) arrays
        # (z, the carried coordinates of x and x_prev, their d C^T, and mid)
        # and the sparse update's gather and scatter, which together hold at
        # most one more: about 5.5 rows at n = 100. One more (n, P) temporary
        # per iteration would pass six rows; a kept one would make 2,000
        # iterations peak higher than 20 by more than the O(iterations)
        # momentum vector.
        cfg, _, _, _, matrix = table1_scene
        echoes = synthesize_echoes(matrix, rasters_to_maps(synthetic_digit_rasters(100, 0), cfg.side_cells))
        rows = echoes.shape[0] * matrix.shape[1] * 8
        peaks = {}
        for n_iter in (20, 2000):
            tracemalloc.start()
            try:
                fista_solve_many(matrix, echoes, FistaConfig(lam=0.001, max_iter=n_iter), table1_op)
                peaks[n_iter] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20] < 6 * rows
        assert peaks[2000] <= peaks[20] + 3 * 8 * 2000

    def test_matches_the_two_product_iteration(self, table1_scene, table1_op, monkeypatch):
        # The solver carries x C^T instead of forming y C^T. After the first
        # iterations, where many clipped offsets change, it runs no
        # (n, P) @ (P, r) product but every RESYNC_ITERS-th iteration's.
        # Without those resets the carried coordinates drift: on these
        # digits (seed 1) the estimates moved by 2.3e-8 of their scale.
        cfg, _, _, _, matrix = table1_scene
        echoes = synthesize_echoes(matrix, rasters_to_maps(synthetic_digit_rasters(100, 1), cfg.side_cells))
        lam, n_iter = 0.001, 2000
        steps = np.full(n_iter, 1.0 / table1_op.lmax)
        for want, _ in fista_iterates(table1_op, echoes, steps, lam * steps, soft_threshold):
            pass
        n, (r, p) = len(echoes), table1_op.factor.shape
        matmul = np.matmul
        calls = {"mid C": 0}
        full = set()  # iterations (counted by their mid C product) running one

        def spy(a, b, *args, **kwargs):
            if a.shape == (n, r) and b.shape == (r, p):
                calls["mid C"] += 1
            elif a.shape == (n, p) and b.shape == (p, r):
                full.add(calls["mid C"])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = fista_solve_many(matrix, echoes, FistaConfig(lam=lam, max_iter=n_iter), table1_op)
        monkeypatch.undo()
        assert calls["mid C"] == n_iter
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
        late = [i for i in full if i >= 500]
        assert len(late) < 0.1 * (n_iter - 500)

    @pytest.mark.parametrize("scale, iteration", [(1e308, 1), (0.75e308, 2)])
    def test_an_overflow_that_the_range_residual_misses_is_named(self, scale, iteration):
        # A = H_4 / 2 is orthogonal, so the step is 1 and the first iterate
        # is about A^T s. The four equal entries of s add up in its first
        # entry: 2e308 overflows at once; 1.5e308 stays finite, and the
        # momentum step of iteration 2 overflows. The range residual stays
        # finite either way, since the clip maps +-inf to +-theta, so only
        # the check on the iterate itself can name the iteration.
        a = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        s = np.full(4, scale)
        op = ImagingOperator(a)
        assert op.lmax == 1.0
        assert np.isfinite(op.coords(s)).all()
        with pytest.raises(DivergedError, match=f"at iteration {iteration}$"):
            fista_solve(a, s, FistaConfig(lam=0.001, max_iter=10), op)

    def test_an_empty_batch_gives_no_estimates(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        echoes = np.zeros((0, matrix.shape[0]), dtype=complex)
        cfg = FistaConfig(lam=0.001, max_iter=2000)
        assert fista_solve_many(matrix, echoes, cfg, table1_op).shape == (0, len(grid))

    @pytest.mark.parametrize(
        "lam, max_iter", [(float("nan"), 10), (float("inf"), 10), (-0.1, 10), (0.01, 0)]
    )
    def test_settings_the_config_rejects_are_rejected(self, lam, max_iter):
        with pytest.raises(ValueError, match="lam must|max_iter must"):
            FistaConfig(lam=lam, max_iter=max_iter)


class TestGradientStepOperator:
    def test_spectral_radius_on_submatrix(self, table1_scene):
        # with mu = 1/lmax(A^H A), eigs of I - mu * Re(A^H A) stay in [-1, 1]
        _, _, _, _, matrix = table1_scene
        sub = matrix[:, :20]
        mu = 1.0 / ImagingOperator(sub).lmax
        gram = (sub.conj().T @ sub).real
        eigs = np.linalg.eigvalsh(np.eye(20) - mu * gram)
        assert np.max(np.abs(eigs)) <= 1.0 + 1e-9


class TestImagingOperator:
    def test_coords_single_and_batch(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(9)
        s = rng.normal(size=matrix.shape[0]) + 1j * rng.normal(
            size=matrix.shape[0]
        )
        single = table1_op.coords(s)
        assert single.shape == (len(table1_op.factor),)
        batch = table1_op.coords(np.stack([s, 2 * s]))
        np.testing.assert_allclose(batch[0], single, atol=1e-12)
        np.testing.assert_allclose(batch[1], 2 * single, atol=1e-12)

    def test_coords_give_the_dense_rhs_of_synthesized_echoes(self, table1_scene, table1_op):
        cfg, _, _, _, matrix = table1_scene
        echoes = synthesize_echoes(matrix, rasters_to_maps(synthetic_digit_rasters(5, 0), cfg.side_cells))
        dense = (echoes @ matrix.conj()).real
        got = table1_op.coords(echoes) @ table1_op.factor
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("f0_ghz", F0_GRID_GHZ)
    def test_coords_miss_only_the_dropped_eigenvectors(self, f0_ghz):
        # Re(A^H s) loses at most the part of s on eigenvectors below
        # eps * lmax, whose singular values are at most sqrt(eps * lmax)
        matrix = build_scene(ExperimentConfig(f0_hz=f0_ghz * 1e9))[3]
        op = ImagingOperator(matrix)
        rng = np.random.default_rng(16)
        s = rng.normal(size=(4, matrix.shape[0])) + 1j * rng.normal(size=(4, matrix.shape[0]))
        error = np.linalg.norm(op.coords(s) @ op.factor - (s @ matrix.conj()).real, axis=1)
        bound = np.sqrt(np.finfo(np.float64).eps * op.lmax) * np.linalg.norm(s, axis=1)
        assert np.all(error <= bound)

    def test_normal_applies_the_real_gram(self, table1_scene, table1_op):
        _, _, _, _, matrix = table1_scene
        rows = np.random.default_rng(13).normal(size=(5, matrix.shape[1]))
        gram = (matrix.conj().T @ matrix).real
        for y in (rows, rows[0]):
            dense = y @ gram
            assert np.max(np.abs(table1_op.normal(y) - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("f0_ghz", F0_GRID_GHZ)
    def test_factor_is_thinner_than_the_grid(self, f0_ghz):
        # the grid includes the paper's 30 GHz
        matrix = build_scene(ExperimentConfig(f0_hz=f0_ghz * 1e9))[3]
        factor = ImagingOperator(matrix).factor
        assert factor.flags["C_CONTIGUOUS"]
        assert factor.shape[0] < factor.shape[1] == matrix.shape[1]
        assert factor.shape[0] <= 2 * matrix.shape[0]

    @pytest.mark.parametrize("f0_ghz", F0_GRID_GHZ)
    def test_factor_keeps_orthogonal_rows_that_real_maps_reach(self, f0_ghz):
        # of the 2k rows of [Re U_k^H A; Im U_k^H A], only those on C C^T
        # eigenvalues above eps times the largest one stay
        matrix = build_scene(ExperimentConfig(f0_hz=f0_ghz * 1e9))[3]
        w = np.linalg.eigvalsh(matrix @ matrix.conj().T)
        k = int(np.sum(w > np.finfo(np.float64).eps * w[-1]))
        factor = ImagingOperator(matrix).factor
        rows = factor @ factor.T
        off = rows - np.diag(np.diag(rows))
        assert np.max(np.abs(off)) <= 1e-13 * np.max(np.abs(rows))
        assert len(factor) < 2 * k
        assert len(factor) <= factor.shape[1]

    def test_spectrum_is_the_factor_row_gram_spectrum(self, table1_op):
        # the paper geometry's lmax(C C^T), half of lmax
        want = np.linalg.eigvalsh(table1_op.factor @ table1_op.factor.T)
        assert table1_op.spectrum.shape == (len(table1_op.factor),)
        assert np.max(np.abs(table1_op.spectrum - want)) <= 1e-12 * want[-1]
        assert table1_op.spectrum.max() == pytest.approx(7769, rel=1e-3)

    def test_holds_no_array_of_the_grid_squared(self, table1_op):
        sizes = [v.size for v in vars(table1_op).values() if isinstance(v, np.ndarray)]
        assert sizes and max(sizes) < table1_op.n_cells**2

    @pytest.mark.parametrize("name", ["identity", "scalar", "submatrix"])
    def test_normal_on_small_operators(self, name, table1_scene):
        matrix = {
            "identity": np.eye(4),
            "scalar": np.array([[2.0]]),
            "submatrix": table1_scene[4][:, :20],
        }[name]
        op = ImagingOperator(matrix)
        y = np.random.default_rng(14).normal(size=(3, matrix.shape[1]))
        dense = y @ (matrix.conj().T @ matrix).real
        assert np.max(np.abs(op.normal(y) - dense)) <= 1e-12 * np.max(np.abs(dense))
        # real maps of P cells reach at most P range coordinates, so the
        # factor of 200 echoes of 20 cells keeps at most 20 rows
        assert op.factor.shape[0] <= matrix.shape[1]

    def test_column_norm_lower_bound(self, table1_scene, table1_op):
        # columns of A have norm sqrt(m) so lmax >= m
        _, _, _, _, matrix = table1_scene
        assert table1_op.lmax >= matrix.shape[0]
        assert np.isfinite(table1_op.lmax)
