import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import finite_difference_grad, relative_grad_error
from radarqi.config import ExperimentConfig
from radarqi.datasets import synthetic_digit_rasters
from radarqi import training
from radarqi.errors import DivergedError, FormatError
from radarqi.fista import FistaConfig, ImagingOperator, fista_solve_many
from radarqi.forward import noisy_echoes, synthesize_echoes
from radarqi.geometry import rasters_to_maps
from radarqi.harness import (
    NETWORK_KINDS,
    _runners,
    build_operator,
    build_scene,
    compare_methods,
    f0_conditions,
    load_trained_model,
    prepare_dataset,
    run_methods,
    snr_conditions,
    sweep,
    unseen_shape_eval,
)
from radarqi.models import EchoDnn, build_model, predict_maps
from radarqi.training import (
    CHECKPOINT_VERSION,
    AdamState,
    Checkpoint,
    PlateauSchedule,
    TrainingData,
    adam_step,
    fit,
    hybrid_loss_batch,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)


def loss_one(eps_true, eps_hat, s, op, lambda1, lambda2):
    """Loss value and gradient for one sample, as a batch of one."""
    value, grad = hybrid_loss_batch(
        np.asarray(eps_true)[None], np.asarray(eps_hat)[None], np.asarray(s)[None], op,
        lambda1, lambda2,
    )
    return value, grad[0]


class TestHybridLoss:
    def test_zero_at_perfect_prediction(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(0)
        eps = rng.uniform(0, 1, len(grid)) * (rng.uniform(size=len(grid)) < 0.2)
        s = synthesize_echoes(matrix, eps[None])[0]
        value, grad = loss_one(eps, eps, s, table1_op, 0.1, 0.05)
        assert value < 1e-10
        # away from the data term everything cancels; only L1 ties remain at 0
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_zero_prediction_zero_truth(self):
        a = np.eye(4)
        s = np.array([1.0, 2.0, 0.0, 0.0])
        w = (0.1, 0.05)
        value, _ = loss_one(np.zeros(4), np.zeros(4), s, ImagingOperator(a), *w)
        assert value == pytest.approx(0.05 * 5.0)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        truth = rng.uniform(0, 1, 9)
        pred = rng.uniform(0, 1, 9)
        s = a @ truth
        w = (0.1, 0.05)
        value, _ = loss_one(truth, pred, s, ImagingOperator(a), *w)
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
        op = ImagingOperator(a)
        truth = rng.uniform(0, 1, 9)
        pred = truth + rng.uniform(0.05, 0.3, 9) * rng.choice([-1, 1], 9)
        s = a @ truth
        w = (0.1, 0.05)
        _, grad = loss_one(truth, pred, s, op, *w)
        fd = finite_difference_grad(lambda v: loss_one(truth, v, s, op, *w)[0], pred.copy())
        assert relative_grad_error(grad, fd) < 1e-4

    def test_gradient_matches_finite_differences_on_noisy_echoes_of_a_compressive_operator(self):
        # rank 3 of m = 6 echoes for P = 9 cells: the noise leaves the range,
        # and real maps reach a 3-dimensional part of it
        rng = np.random.default_rng(6)
        a = (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))) @ rng.normal(size=(3, 9))
        op = ImagingOperator(a)
        assert len(op.factor) == 3
        truth = rng.uniform(0, 1, 9)
        pred = truth + rng.uniform(0.05, 0.3, 9) * rng.choice([-1, 1], 9)
        s = noisy_echoes((a @ truth)[None], 10.0, seed=3)[0]
        w = (0.1, 0.05)
        _, grad = loss_one(truth, pred, s, op, *w)
        fd = finite_difference_grad(lambda v: loss_one(truth, v, s, op, *w)[0], pred.copy())
        assert relative_grad_error(grad, fd) < 1e-4

    def test_decomposition(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        op = ImagingOperator(a)
        truth = rng.uniform(0, 1, 8)
        pred = rng.uniform(0, 1, 8)
        s = a @ truth
        mse_term = loss_one(truth, pred, s, op, 0.0, 0.0)[0]
        l1_term = loss_one(truth, pred, s, op, 1.0, 0.0)[0] - mse_term
        phys_term = loss_one(truth, pred, s, op, 0.0, 1.0)[0] - mse_term
        total = loss_one(truth, pred, s, op, 0.1, 0.05)[0]
        assert total == pytest.approx(mse_term + 0.1 * l1_term + 0.05 * phys_term, abs=1e-12)

    def test_physics_term_equals_injected_noise_power(self, table1_scene, table1_op):
        # at the true map the term is the noise on the range coordinates that
        # real maps reach, not the full noise power
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(4)
        eps = rng.uniform(0, 1, len(grid)) * (rng.uniform(size=len(grid)) < 0.2)
        clean = synthesize_echoes(matrix, eps[None])
        noisy = noisy_echoes(clean, 10.0, seed=7)
        w = (0.0, 1.0)
        value, _ = loss_one(eps, eps, noisy[0], table1_op, *w)
        injected = np.sum(((noisy - clean) @ table1_op.basis.conj()).real ** 2)
        assert value == pytest.approx(injected, rel=1e-12)

    def test_matches_the_dense_loss_on_noise_free_echoes(self, table1_scene, table1_op):
        cfg, _, _, _, matrix = table1_scene
        maps = rasters_to_maps(synthetic_digit_rasters(8, 0), cfg.side_cells)
        truth, pred = maps[:4], maps[4:]
        echoes = synthesize_echoes(matrix, truth)
        w = (0.1, 0.05)
        value, grad = hybrid_loss_batch(truth, pred, echoes, table1_op, *w)
        diff = pred - truth
        residual = echoes - pred @ matrix.T
        dense_value = np.mean(
            np.sum(diff**2, axis=1)
            + w[0] * np.sum(np.abs(diff), axis=1)
            + w[1] * np.sum(np.abs(residual) ** 2, axis=1)
        )
        dense_grad = (
            2.0 * diff + w[0] * np.sign(diff) - 2.0 * w[1] * (residual @ matrix.conj()).real
        ) / len(truth)
        assert value == pytest.approx(dense_value, rel=1e-12)
        assert np.max(np.abs(grad - dense_grad)) <= 1e-12 * np.max(np.abs(dense_grad))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        op = ImagingOperator(a)
        truth = rng.uniform(0, 1, (3, 8))
        pred = rng.uniform(0, 1, (3, 8))
        echoes = truth @ a.T
        w = (0.1, 0.05)
        mean, grad = hybrid_loss_batch(truth, pred, echoes, op, *w)
        singles = [loss_one(truth[i], pred[i], echoes[i], op, *w) for i in range(3)]
        assert mean == pytest.approx(np.mean([v for v, _ in singles]), abs=1e-12)
        for i in range(3):
            np.testing.assert_allclose(grad[i], singles[i][1] / 3.0, atol=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params, lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([3.0, -0.5, 1e-12])
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, {"w": g.copy()}, state)
        # first bias-corrected step: -lr * g / (|g| + eps-scale)
        expected = -0.01 * g / (np.abs(g) + state.eps)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)
        assert abs(params["w"][0]) == pytest.approx(0.01, rel=1e-6)

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": rng.normal(size=5)}
            state = AdamState.for_params(params, lr=0.05)
            for _ in range(20):
                grad = {"w": params["w"] * 2 + 1}
                adam_step(params, grad, state)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_moments_update_in_place_as_the_textbook_formula(self):
        rng = np.random.default_rng(12)
        params = {"w": rng.normal(size=(3, 4))}
        state = AdamState.for_params(params, lr=0.05)
        m, v = state.m["w"], state.v["w"]
        want_m, want_v = m.copy(), v.copy()
        for _ in range(5):
            g = rng.normal(size=(3, 4))
            want_m = state.beta1 * want_m + (1.0 - state.beta1) * g
            want_v = state.beta2 * want_v + (1.0 - state.beta2) * g * g
            adam_step(params, {"w": g}, state)
        assert state.m["w"] is m and state.v["w"] is v
        np.testing.assert_array_equal(m, want_m)
        np.testing.assert_array_equal(v, want_v)


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
        sched = PlateauSchedule(1e-2, factor=0.1, patience=10)
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
        # fista_resnet holds no block parameters: fit cannot move its scalars
        cfg, op, data, model = tiny_training_setup(kind="fista_resnet")
        fit(model, op, data, cfg)
        mu, theta = model.block_scalars(op)
        np.testing.assert_array_equal(mu, np.full(cfg.n_blocks, 1.0 / op.lmax))
        np.testing.assert_allclose(theta, cfg.frozen_lambda / op.lmax, rtol=1e-15, atol=0)

    def test_two_fits_identical(self, tmp_path):
        results = []
        for run in ("a", "b"):
            cfg, op, data, model = tiny_training_setup()
            ckpt = fit(model, op, data, cfg, log_path=tmp_path / f"{run}.csv")
            results.append(ckpt)
        for name in results[0].params:
            np.testing.assert_array_equal(results[0].params[name], results[1].params[name])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_a_non_finite_training_loss_names_the_epoch_and_batch(self, monkeypatch):
        cfg, op, data, model = tiny_training_setup()  # 16 echoes: 2 batches per epoch
        train_calls = []

        def poisoned(truth, *args):
            loss, grad = hybrid_loss_batch(truth, *args)
            if truth is not data.val_maps:
                train_calls.append(truth)
                if len(train_calls) == 4:
                    loss = float("nan")
            return loss, grad

        monkeypatch.setattr(training, "hybrid_loss_batch", poisoned)
        with pytest.raises(DivergedError, match="^non-finite training loss at epoch 2, batch 1$"):
            fit(model, op, data, cfg)

    def test_a_non_finite_validation_map_names_the_epoch(self, monkeypatch):
        cfg, op, data, model = tiny_training_setup(kind="dnn")  # 2 batches per epoch
        steps = []

        def poisoned(params, grads, state):
            adam_step(params, grads, state)
            steps.append(state.step)
            if len(steps) == 4:  # the last batch of epoch 2
                for arr in params.values():
                    arr[...] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned)
        with pytest.raises(
            DivergedError, match="^non-finite map from echo 0 of the validation split at epoch 2$"
        ):
            fit(model, op, data, cfg)

    @pytest.mark.parametrize("kind", ["dnn", "lfista_resnet", "fista_resnet"])
    def test_the_initialization_is_kept_when_no_epoch_beats_it(self, kind, tmp_path):
        # ascending the loss: every trained epoch validates worse than epoch 0
        cfg, op, data, model = tiny_training_setup(kind=kind, epochs=3)
        init = {name: arr.copy() for name, arr in model.params.items()}
        backward = model.backward
        model.backward = lambda cache, dout: {n: -g for n, g in backward(cache, dout).items()}
        log = tmp_path / "log.csv"
        ckpt = fit(model, op, data, cfg, log_path=log)
        val_loss = [float(line.split(",")[3]) for line in log.read_text().splitlines()[1:]]
        assert min(val_loss[1:]) > val_loss[0]
        assert ckpt.epoch == 0
        assert ckpt.best_val_loss == val_loss[0]
        assert list(ckpt.params) == list(init)
        for name in init:
            np.testing.assert_array_equal(ckpt.params[name], init[name])

    def test_mse_only_gradients_end_to_end(self):
        # lambda1 = lambda2 = 0 reduces training to plain MSE regression;
        # verify the full chain loss -> model parameters by finite differences
        cfg, op, data, model = tiny_training_setup()
        w = (0.0, 0.0)
        echoes = data.train_echoes[:2]
        truth = data.train_maps[:2]
        out, cache = model.forward_cached(echoes, op)
        _, dout = hybrid_loss_batch(truth, out, echoes, op, *w)
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
        assert list(loaded.params) == list(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
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

    def test_unknown_version_rejected(self, tmp_path):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        current = f"radarqi-checkpoint {CHECKPOINT_VERSION}".encode()
        data = path.read_bytes().replace(current, b"radarqi-checkpoint 9", 1)
        (tmp_path / "v9.ckpt").write_bytes(data)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "v9.ckpt")

    def test_version_1_rejected(self, tmp_path):
        # the version-1 layout: an adam_step field and Adam moment arrays
        header = (
            "radarqi-checkpoint 1\nkind = dnn\nepoch = 1\nbest_val_loss = 0.5\nadam_step = 3\n"
            f"[config]\n{ExperimentConfig().to_text()}[arrays]\n"
            "param.w 2 0\nadam_m.w 2 16\nadam_v.w 2 32\n[binary]\n"
        )
        path = tmp_path / "v1.ckpt"
        path.write_bytes(header.encode() + np.arange(6.0).astype("<f8").tobytes())
        with pytest.raises(FormatError, match="unsupported checkpoint version '1'"):
            load_checkpoint(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint("resnet9000", ExperimentConfig(), {"w": np.zeros(2)}, 0, 0.5))
        with pytest.raises(FormatError, match="unknown model kind 'resnet9000'"):
            load_checkpoint(path)

    def test_shape_mismatch_on_restore(self, tmp_path):
        # no LFistaResNet parameter depends on the grid: check_scene rejects it
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        other_cfg = ExperimentConfig(
            side_cells=6, n_antennas=2, n_freqs=12, n_blocks=4, res_channels=3, res_blocks=1
        )
        other_op = build_operator(other_cfg)
        with pytest.raises(FormatError, match="side_cells"):
            load_trained_model(other_cfg, other_op, "lfista_resnet", path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (rb"\n\[config\]\n", b"\n", "missing [config] section"),
            (rb"\nepoch = \d+\n", b"\nepoch = x\n", "bad checkpoint metadata"),
        ],
        ids=["no_config_section", "epoch_x"],
    )
    def test_bad_metadata_rejected(self, tmp_path, old, new, message):
        _, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data, n = re.subn(old, new, path.read_bytes(), count=1)
        assert n == 1
        (tmp_path / "bad.ckpt").write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_parameter_of_another_shape_on_restore(self):
        cfg, op, ckpt = self._checkpoint()
        shape = ckpt.params["tail_kernel"].shape
        ckpt.params["tail_kernel"] = np.zeros((1, *shape))
        fresh = build_model("lfista_resnet", op, cfg, cfg.seed)
        expected = f"shape mismatch for 'tail_kernel': checkpoint {(1, *shape)}, model {shape}"
        with pytest.raises(FormatError, match=re.escape(expected)):
            restore_model(fresh, ckpt)

    def test_kind_mismatch_on_restore(self):
        _, op, ckpt = self._checkpoint()
        dnn = EchoDnn(op.matrix.shape[0], op.n_cells, 0)
        with pytest.raises(FormatError, match="kind"):
            restore_model(dnn, ckpt)

    def test_measurement_mismatch_on_restore(self, tmp_path):
        # no LFistaResNet parameter depends on m: check_scene rejects it
        cfg, _, ckpt = self._checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        other_cfg = ExperimentConfig(
            side_cells=cfg.side_cells,
            cell_size_m=cfg.cell_size_m,
            n_antennas=cfg.n_antennas,
            n_freqs=cfg.n_freqs - 2,
            n_blocks=cfg.n_blocks,
            res_channels=cfg.res_channels,
            res_blocks=cfg.res_blocks,
        )
        other_op = build_operator(other_cfg)
        with pytest.raises(FormatError, match="n_freqs"):
            load_trained_model(other_cfg, other_op, "lfista_resnet", path)

    def test_missing_parameter_on_restore(self):
        cfg, op, ckpt = self._checkpoint()
        del ckpt.params["tail_kernel"]
        fresh = build_model("lfista_resnet", op, cfg, cfg.seed + 1)
        with pytest.raises(FormatError, match=r"missing \['tail_kernel'\]"):
            restore_model(fresh, ckpt)

    def test_same_geometry_restores(self):
        cfg, op, ckpt = self._checkpoint()
        fresh = build_model("lfista_resnet", op, cfg, cfg.seed + 1)
        restore_model(fresh, ckpt)
        for name in ckpt.params:
            np.testing.assert_array_equal(fresh.params[name], ckpt.params[name])


@st.composite
def checkpoints(draw):
    """Checkpoints whose parameters hold any float64 bit pattern."""
    names = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12)
    params = {}
    for name in draw(st.lists(names, min_size=1, max_size=5, unique=True)):
        shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
        bits = arrays(np.uint64, shape).map(lambda a: a.view(np.float64))
        params[name] = draw(arrays(np.float64, shape) | bits)
    return Checkpoint(
        kind=draw(st.sampled_from(("fista_resnet", "lfista_resnet", "dnn"))),
        config=ExperimentConfig(seed=draw(st.integers(0, 2**63 - 1))),
        params=params,
        epoch=draw(st.integers(0, 2**63 - 1)),
        best_val_loss=draw(st.floats(allow_nan=False)),
    )


@settings(max_examples=60, deadline=None)
@given(ckpt=checkpoints())
def test_checkpoint_round_trip_keeps_every_bit(tmp_path_factory, ckpt):
    path = tmp_path_factory.mktemp("hypothesis") / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert (loaded.kind, loaded.config, loaded.epoch) == (ckpt.kind, ckpt.config, ckpt.epoch)
    assert struct.pack("<d", loaded.best_val_loss) == struct.pack("<d", ckpt.best_val_loss)
    assert list(loaded.params) == list(ckpt.params)
    for name, arr in ckpt.params.items():
        assert loaded.params[name].shape == arr.shape
        np.testing.assert_array_equal(loaded.params[name].view(np.uint64), arr.view(np.uint64))
    again = path.with_name("again.ckpt")
    save_checkpoint(again, loaded)
    assert again.read_bytes() == path.read_bytes()


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


class TestCompareMethods:
    def test_reports_carry_each_methods_maps(self, tmp_path):
        cfg, op, data, _ = tiny_training_setup(epochs=0)
        kinds = ("fista_resnet", "lfista_resnet", "dnn")
        models = {k: build_model(k, op, cfg, cfg.seed) for k in kinds}
        maps, echoes = data.val_maps, data.val_echoes
        reports = compare_methods(cfg, op, models, maps, echoes, tmp_path)
        assert list(reports) == ["fista", "fista_resnet", "lfista_resnet", "dnn"]
        solver_cfg = FistaConfig(lam=cfg.fista_lambda, max_iter=cfg.fista_max_iter)
        np.testing.assert_array_equal(
            reports["fista"].maps, fista_solve_many(op.matrix, echoes, solver_cfg, op)
        )
        for kind, model in models.items():
            np.testing.assert_array_equal(reports[kind].maps, predict_maps(model, echoes, op))


class TestSweep:
    @pytest.mark.parametrize("task", ["snr", "f0"])
    def test_each_condition_scores_like_run_methods(self, tmp_path, task):
        """Condition k of the SNR task re-noises with seed + k (None first);
        each condition of the f0 task rebuilds the operator and its echoes."""
        cfg, op, data, _ = tiny_training_setup(epochs=0)
        models = {k: build_model(k, op, cfg, cfg.seed) for k in NETWORK_KINDS}
        truth, echoes = data.val_maps, data.val_echoes
        if task == "snr":
            xs = [None, 10.0, 10.0, 0.0]
            conditions = snr_conditions(op, echoes, xs[1:], cfg.seed)
            expected = [(op, noisy_echoes(echoes, x, cfg.seed + k)) for k, x in enumerate(xs)]
        else:
            xs = [29.0, 31.0]
            conditions = f0_conditions(cfg, truth, xs)
            ops = [build_operator(cfg, f0_hz=x * 1e9) for x in xs]
            expected = [(o, synthesize_echoes(o.matrix, truth)) for o in ops]
        results = sweep(cfg, models, truth, conditions, "x", "sweep_x", tmp_path)
        assert [x for x, _ in results] == xs
        methods = ["fista", *NETWORK_KINDS]
        for (_, reports), (op_k, echoes_k) in zip(results, expected):
            want = run_methods(_runners(cfg, models), op_k, truth, echoes_k)
            assert list(reports) == methods
            for m in methods:
                np.testing.assert_array_equal(reports[m].maps, want[m].maps)
                np.testing.assert_array_equal(reports[m].per_sample_ssim, want[m].per_sample_ssim)
        lines = (tmp_path / "sweep_x.csv").read_text().splitlines()
        assert len(lines) == 2 + len(xs) * len(methods)
        curves = sorted(path.name for path in tmp_path.glob("*.pgm"))
        assert curves == sorted(f"sweep_x_ssim_{m}.pgm" for m in methods)
