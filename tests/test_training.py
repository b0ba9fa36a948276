import dataclasses

import numpy as np
import pytest

from conftest import finite_difference_grad, relative_grad_error
from radarqi.config import ExperimentConfig
from radarqi.errors import FormatError
from radarqi.fista import ImagingOperator
from radarqi.forward import noisy_echoes, synthesize_echoes
from radarqi.harness import build_scene, load_trained_model, prepare_dataset, unseen_shape_eval
from radarqi.models import EchoDnn, LFistaResNet, build_model
from radarqi.training import (
    AdamState,
    Checkpoint,
    LossWeights,
    PlateauSchedule,
    TrainingData,
    adam_step,
    fit,
    hybrid_loss_batch,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)


def loss_one(eps_true, eps_hat, s, a, w):
    """Loss value and gradient for one sample, as a batch of one."""
    value, grad = hybrid_loss_batch(
        np.asarray(eps_true)[None], np.asarray(eps_hat)[None], np.asarray(s)[None], a, w
    )
    return value, grad[0]


class TestHybridLoss:
    def test_zero_at_perfect_prediction(self, table1_scene):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(0)
        eps = rng.uniform(0, 1, grid.n_cells) * (rng.uniform(size=grid.n_cells) < 0.2)
        s = synthesize_echoes(matrix, eps[None])[0]
        value, grad = loss_one(eps, eps, s, matrix, LossWeights())
        assert value < 1e-10
        # away from the data term everything cancels; only L1 ties remain at 0
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_zero_prediction_zero_truth(self):
        a = np.eye(4)
        s = np.array([1.0, 2.0, 0.0, 0.0])
        w = LossWeights(lambda1=0.1, lambda2=0.05)
        value, _ = loss_one(np.zeros(4), np.zeros(4), s, a, w)
        assert value == pytest.approx(0.05 * 5.0)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        truth = rng.uniform(0, 1, 9)
        pred = rng.uniform(0, 1, 9)
        s = a @ truth
        w = LossWeights(lambda1=0.1, lambda2=0.05)
        value, _ = loss_one(truth, pred, s, a, w)
        diff = truth - pred
        expected = (
            np.sum(diff**2)
            + 0.1 * np.sum(np.abs(diff))
            + 0.05 * np.sum(np.abs(s - a @ pred) ** 2)
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        truth = rng.uniform(0, 1, 9)
        pred = truth + rng.uniform(0.05, 0.3, 9) * rng.choice([-1, 1], 9)
        s = a @ truth
        w = LossWeights()
        _, grad = loss_one(truth, pred, s, a, w)
        fd = finite_difference_grad(lambda v: loss_one(truth, v, s, a, w)[0], pred.copy())
        assert relative_grad_error(grad, fd) < 1e-4

    def test_decomposition(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        truth = rng.uniform(0, 1, 8)
        pred = rng.uniform(0, 1, 8)
        s = a @ truth
        mse_term = loss_one(truth, pred, s, a, LossWeights(0.0, 0.0))[0]
        l1_term = loss_one(truth, pred, s, a, LossWeights(1.0, 0.0))[0] - mse_term
        phys_term = loss_one(truth, pred, s, a, LossWeights(0.0, 1.0))[0] - mse_term
        total = loss_one(truth, pred, s, a, LossWeights(0.1, 0.05))[0]
        assert total == pytest.approx(mse_term + 0.1 * l1_term + 0.05 * phys_term, abs=1e-12)

    def test_physics_term_equals_injected_noise_power(self, table1_scene):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(4)
        eps = rng.uniform(0, 1, grid.n_cells) * (rng.uniform(size=grid.n_cells) < 0.2)
        clean = synthesize_echoes(matrix, eps[None])
        noisy = noisy_echoes(clean, 10.0, seed=7)
        w = LossWeights(lambda1=0.0, lambda2=1.0)
        value, _ = loss_one(eps, eps, noisy[0], matrix, w)
        injected = np.sum(np.abs(noisy - clean) ** 2)
        assert value == pytest.approx(injected, rel=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        truth = rng.uniform(0, 1, (3, 8))
        pred = rng.uniform(0, 1, (3, 8))
        echoes = truth @ a.T
        w = LossWeights()
        mean, grad = hybrid_loss_batch(truth, pred, echoes, a, w)
        singles = [loss_one(truth[i], pred[i], echoes[i], a, w) for i in range(3)]
        assert mean == pytest.approx(np.mean([v for v, _ in singles]), abs=1e-12)
        for i in range(3):
            np.testing.assert_allclose(grad[i], singles[i][1] / 3.0, atol=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params, ["w"], lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([3.0, -0.5, 1e-12])
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params, ["w"], lr=0.01)
        adam_step(params, {"w": g.copy()}, state)
        # first bias-corrected step: -lr * g / (|g| + eps-scale)
        expected = -0.01 * g / (np.abs(g) + state.eps)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)
        assert abs(params["w"][0]) == pytest.approx(0.01, rel=1e-6)

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": rng.normal(size=5)}
            state = AdamState.for_params(params, ["w"], lr=0.05)
            for _ in range(20):
                grad = {"w": params["w"] * 2 + 1}
                adam_step(params, grad, state)
            return params["w"]

        np.testing.assert_array_equal(run(), run())


class TestPlateauSchedule:
    def test_eleven_stale_epochs_trigger_one_drop(self):
        sched = PlateauSchedule(1e-2, factor=0.1, patience=10)
        sched.update(1.0)  # new best
        lrs = [sched.update(2.0) for _ in range(11)]
        assert lrs[-2] == pytest.approx(1e-2)
        assert lrs[-1] == pytest.approx(1e-3)
        # counter reset: ten more stale epochs do not drop again yet
        for _ in range(10):
            assert sched.update(2.0) == pytest.approx(1e-3)
        assert sched.update(2.0) == pytest.approx(1e-4)

    def test_improvement_resets_counter(self):
        sched = PlateauSchedule(1e-2, patience=10)
        sched.update(1.0)
        for _ in range(10):
            sched.update(2.0)
        sched.update(0.5)  # new best
        for _ in range(10):
            assert sched.update(2.0) == pytest.approx(1e-2)

    def test_lr_non_increasing_and_exact_factor(self):
        sched = PlateauSchedule(1e-2, factor=0.1, patience=2)
        seen = [sched.lr]
        vals = [1.0] + [2.0] * 20
        for v in vals:
            seen.append(sched.update(v))
        assert all(b <= a for a, b in zip(seen, seen[1:]))
        drops = [(a, b) for a, b in zip(seen, seen[1:]) if b < a]
        assert drops and all(b == pytest.approx(a * 0.1) for a, b in drops)


def tiny_training_setup(kind="lfista_resnet", epochs=2):
    cfg = ExperimentConfig(
        side_cells=8,
        cell_size_m=0.01,
        n_antennas=2,
        n_freqs=12,
        n_blocks=4,
        res_channels=3,
        res_blocks=1,
        train_size=16,
        val_size=6,
        test_size=4,
        epochs=epochs,
        batch_size=8,
        seed=1,
    )
    _, _, _, matrix = build_scene(cfg)
    op = ImagingOperator(matrix)
    bundle = prepare_dataset(cfg, matrix)
    data = TrainingData(
        bundle.train_maps, bundle.train_echoes, bundle.val_maps, bundle.val_echoes
    )
    model = build_model(kind, op, cfg, cfg.seed)
    return cfg, op, data, model


class TestFit:
    def test_log_and_checkpoint(self, tmp_path):
        cfg, op, data, model = tiny_training_setup()
        log = tmp_path / "log.csv"
        ckpt = fit(model, op, data, cfg, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss,val_mse,val_ssim"
        assert len(lines) == 1 + cfg.epochs + 1  # header + epoch 0 + epochs
        assert ckpt.kind == "lfista_resnet"
        assert ckpt.epoch >= 1
        assert np.isfinite(ckpt.best_val_loss)

    def test_frozen_blocks_stay_bit_identical(self, tmp_path):
        cfg, op, data, model = tiny_training_setup(kind="fista_resnet")
        before_mu = model.params["block_mu_raw"].copy()
        before_theta = model.params["block_theta_raw"].copy()
        fit(model, op, data, cfg)
        np.testing.assert_array_equal(model.params["block_mu_raw"], before_mu)
        np.testing.assert_array_equal(model.params["block_theta_raw"], before_theta)

    def test_two_fits_identical(self, tmp_path):
        results = []
        for run in ("a", "b"):
            cfg, op, data, model = tiny_training_setup()
            ckpt = fit(model, op, data, cfg, log_path=tmp_path / f"{run}.csv")
            results.append(ckpt)
        for name in results[0].params:
            np.testing.assert_array_equal(results[0].params[name], results[1].params[name])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_mse_only_gradients_end_to_end(self):
        # lambda1 = lambda2 = 0 reduces training to plain MSE regression;
        # verify the full chain loss -> model parameters by finite differences
        cfg, op, data, model = tiny_training_setup()
        w = LossWeights(0.0, 0.0)
        echoes = data.train_echoes[:2]
        truth = data.train_maps[:2]
        out, cache = model.forward_cached(echoes, op)
        _, dout = hybrid_loss_batch(truth, out, echoes, op.matrix, w)
        grads = model.backward(cache, dout)

        def loss(_):
            pred = model.forward(echoes, op)
            return float(np.mean(np.sum((pred - truth) ** 2, axis=1)))

        for name in ("block_mu_raw", "head_kernel", "tail_bias"):
            fd = finite_difference_grad(loss, model.params[name])
            assert relative_grad_error(grads[name], fd) < 1e-4, name


class TestCheckpointIO:
    def _checkpoint(self):
        cfg, op, data, model = tiny_training_setup(epochs=1)
        return cfg, op, fit(model, op, data, cfg)

    def test_round_trip_bit_exact(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.kind == ckpt.kind
        assert loaded.epoch == ckpt.epoch
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert loaded.param_order == ckpt.param_order
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        for name in ckpt.adam_m:
            np.testing.assert_array_equal(loaded.adam_m[name], ckpt.adam_m[name])
        # saving the loaded checkpoint reproduces identical bytes
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        (tmp_path / "short.ckpt").write_bytes(data[: len(data) - 50])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "short.ckpt")

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        (tmp_path / "long.ckpt").write_bytes(path.read_bytes() + bytes(32))
        with pytest.raises(FormatError, match="32 bytes past the last array"):
            load_checkpoint(tmp_path / "long.ckpt")

    def test_negative_offset_or_dimension_rejected(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        pos = data.index(b"\n[binary]\n")
        line = data[data.rindex(b"\n", 0, pos) + 1 : pos]
        name, shape, _ = line.split()
        for bad in (b"%s %s -80" % (name, shape), b"%s -%s 0" % (name, shape)):
            (tmp_path / "bad.ckpt").write_bytes(data[: pos - len(line)] + bad + data[pos:])
            with pytest.raises(FormatError, match="negative"):
                load_checkpoint(tmp_path / "bad.ckpt")

    def test_unknown_version_rejected(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data = path.read_bytes().replace(b"radarqi-checkpoint 1", b"radarqi-checkpoint 9", 1)
        (tmp_path / "v9.ckpt").write_bytes(data)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "v9.ckpt")

    def test_shape_mismatch_on_restore(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        other_cfg = ExperimentConfig(
            side_cells=6, n_antennas=2, n_freqs=12, n_blocks=4, res_channels=3, res_blocks=1
        )
        _, _, _, matrix = build_scene(other_cfg)
        other = build_model("lfista_resnet", ImagingOperator(matrix), other_cfg, 0)
        with pytest.raises(FormatError, match="mismatch|unknown"):
            restore_model(other, ckpt)

    def test_kind_mismatch_on_restore(self):
        _, op, ckpt = self._checkpoint()
        dnn = EchoDnn(op.matrix.shape[0], op.n_cells)
        with pytest.raises(FormatError, match="kind"):
            restore_model(dnn, ckpt)

    def test_measurement_mismatch_on_restore(self):
        cfg, _, ckpt = self._checkpoint()
        other_cfg = ExperimentConfig(
            side_cells=cfg.side_cells,
            cell_size_m=cfg.cell_size_m,
            n_antennas=cfg.n_antennas,
            n_freqs=cfg.n_freqs - 2,
            n_blocks=cfg.n_blocks,
            res_channels=cfg.res_channels,
            res_blocks=cfg.res_blocks,
        )
        _, _, _, matrix = build_scene(other_cfg)
        other = build_model("lfista_resnet", ImagingOperator(matrix), other_cfg, 0)
        with pytest.raises(FormatError, match="measurement count mismatch"):
            restore_model(other, ckpt)

    def test_same_geometry_restores(self):
        cfg, op, ckpt = self._checkpoint()
        fresh = build_model("lfista_resnet", op, cfg, cfg.seed + 1)
        restore_model(fresh, ckpt)
        for name in ckpt.params:
            np.testing.assert_array_equal(fresh.params[name], ckpt.params[name])


class TestLoadTrainedModel:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("side_cells", 6),
            ("cell_size_m", 0.02),
            ("standoff_m", 1.0),
            ("n_antennas", 3),
            ("f0_hz", 32e9),
            ("bandwidth_hz", 4e9),
            ("n_freqs", 10),
        ],
    )
    def test_checkpoint_from_another_scene_rejected(self, tmp_path, field, value):
        cfg, op, data, model = tiny_training_setup(epochs=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fit(model, op, data, cfg))
        other = dataclasses.replace(cfg, **{field: value})
        with pytest.raises(FormatError, match=field):
            load_trained_model(other, op, model.kind, path)

    def test_same_scene_loads(self, tmp_path):
        cfg, op, data, model = tiny_training_setup(epochs=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fit(model, op, data, cfg))
        other = dataclasses.replace(cfg, seed=cfg.seed + 1, epochs=3)
        loaded = load_trained_model(other, op, model.kind, path)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])


class TestUnseenShapesOffNativeGrid:
    def test_reports_finite_at_side_8(self, tmp_path):
        cfg, op, _, model = tiny_training_setup(epochs=0)
        reports = unseen_shape_eval(cfg, op, {model.kind: model}, tmp_path)
        assert set(reports) == {"fista", model.kind}
        for rep in reports.values():
            assert len(rep.per_sample_mse) == 7
            assert np.all(np.isfinite(rep.per_sample_mse))
            assert np.all(np.isfinite(rep.per_sample_ssim))
        assert (tmp_path / "shapes.csv").exists()
