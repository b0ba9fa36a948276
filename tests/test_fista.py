import numpy as np
import pytest

from radarqi.errors import DivergedError
from radarqi.fista import (
    FistaConfig,
    ImagingOperator,
    energy,
    fista_solve,
    fista_solve_many,
    momentum_coeffs,
    soft_threshold,
)
from radarqi.forward import synthesize_echoes
from radarqi.geometry import build_doi_grid, build_sweep, build_ula


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

    def test_nonexpansive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            theta = float(rng.uniform(0, 2))
            lhs = np.linalg.norm(soft_threshold(a, theta) - soft_threshold(b, theta))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


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
        assert energy(a, s, np.zeros(3), 0.5) == pytest.approx(4.5)

    def test_zero_residual(self, table1_scene):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(4)
        eps = np.zeros(grid.n_cells)
        eps[rng.integers(0, grid.n_cells, 10)] = rng.uniform(0, 1, 10)
        s = synthesize_echoes(matrix, eps[None])[0]
        assert energy(matrix, s, eps, 0.01) == pytest.approx(0.01 * np.sum(np.abs(eps)))

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        eps = rng.normal(size=9)
        lam = 0.3
        residual = s - a @ eps
        expected = 0.5 * np.sum(np.abs(residual) ** 2) + lam * np.sum(np.abs(eps))
        assert energy(a, s, eps, lam) == pytest.approx(expected, abs=1e-12)

    def test_batch_rows_match_single_echo(self, table1_scene):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(13)
        maps = rng.uniform(0, 1, (4, grid.n_cells)) * (rng.uniform(size=(4, grid.n_cells)) < 0.1)
        echoes = synthesize_echoes(matrix, maps) + rng.normal(size=(4, matrix.shape[0]))
        batch = energy(matrix, echoes, maps, 0.01)
        assert batch.shape == (4,)
        single = [energy(matrix, s, eps, 0.01) for s, eps in zip(echoes, maps)]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-12)


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
        eps = np.zeros(grid.n_cells)
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
        s = np.array([1.0, 1.0, 1.0]) * 1e200
        cfg = FistaConfig(lam=0.0, max_iter=50, mu=1e250)
        with pytest.raises(DivergedError, match="iteration"):
            fista_solve(a, s, cfg)

    def test_batch_matches_single(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(7)
        maps = rng.uniform(0, 1, (3, grid.n_cells)) * (
            rng.uniform(size=(3, grid.n_cells)) < 0.1
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
        maps = rng.uniform(0, 1, (3, grid.n_cells)) * (rng.uniform(size=(3, grid.n_cells)) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        cfg = FistaConfig(lam=0.001, max_iter=60, record_objective=True)
        batch = fista_solve(matrix, echoes, cfg, op=table1_op)
        assert batch.estimate.shape == (3, grid.n_cells)
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
        eps = rng.uniform(0, 1, grid.n_cells) * (rng.uniform(size=grid.n_cells) < 0.1)
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
            eps = np.zeros(grid.n_cells)
            eps[rng.integers(0, grid.n_cells, 12)] = rng.uniform(0.2, 1, 12)
            s = synthesize_echoes(matrix, eps[None])[0]
            cfg = FistaConfig(lam=lam, max_iter=100)
            result = fista_solve(matrix, s, cfg, op=table1_op)
            e0 = energy(matrix, s, np.zeros(grid.n_cells), lam)
            assert energy(matrix, s, result.estimate, lam) < e0


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
    def test_rhs_single_and_batch(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(9)
        s = rng.normal(size=matrix.shape[0]) + 1j * rng.normal(
            size=matrix.shape[0]
        )
        single = table1_op.rhs(s)
        batch = table1_op.rhs(np.stack([s, 2 * s]))
        np.testing.assert_allclose(batch[0], single, atol=1e-12)
        np.testing.assert_allclose(batch[1], 2 * single, atol=1e-12)

    def test_gram_is_contiguous_symmetric_real_part(self, table1_scene, table1_op):
        _, _, _, _, matrix = table1_scene
        gram = table1_op.gram
        assert gram.dtype == np.float64
        assert gram.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(gram, gram.T)
        dense = (matrix.conj().T @ matrix).real
        assert np.max(np.abs(gram - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_column_norm_lower_bound(self, table1_scene, table1_op):
        # columns of A have norm sqrt(m) so lmax >= m
        _, _, _, _, matrix = table1_scene
        assert table1_op.lmax >= matrix.shape[0]
        assert np.isfinite(table1_op.lmax)
