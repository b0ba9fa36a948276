import tracemalloc

import numpy as np
import pytest

from conftest import finite_difference_grad, relative_grad_error
from radarqi import models
from radarqi.config import ExperimentConfig
from radarqi.fista import ImagingOperator, fista_iterates, nonneg_shrink
from radarqi.forward import synthesize_echoes
from radarqi.models import EchoDnn, LFistaResNet, build_model, predict_maps
from radarqi.nn_ops import conv2d_3x3_backward, conv2d_3x3_cached, softplus_inv
from radarqi.training import AdamState, adam_step, hybrid_loss_batch

from test_nn_ops import naive_conv, ring_is_zero


def small_op(seed=0, m=10, p=16):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
    return ImagingOperator(a)


def small_model(seed=0, frozen=False, n_blocks=3, channels=2, res_blocks=1):
    """A 4 x 4 network and the operator its forward calls take."""
    cfg = ExperimentConfig(
        side_cells=4, n_blocks=n_blocks, res_channels=channels, res_blocks=res_blocks
    )
    op = small_op(seed)
    return LFistaResNet(op, cfg, frozen, seed), op


def relu_fista_oracle(matrix, s, mu, theta, n_iters):
    """Straight-line unrolled iteration with a shifted-ReLU shrinkage."""
    gram = (matrix.conj().T @ matrix).real
    b = (matrix.conj().T @ s).real
    x_prev = np.zeros(matrix.shape[1])
    x = np.zeros(matrix.shape[1])
    t = 1.0
    for _ in range(n_iters):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev = x
        x = np.maximum(y - mu * (gram @ y - b) - theta, 0.0)
        t = t_next
    return x


def n_params(model) -> int:
    return sum(arr.size for arr in model.params.values())


class TestParameterBudgets:
    def test_lfista_resnet_total(self, table1_op):
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        assert n_params(model) == 7419

    def test_frozen_variant_trainable(self, table1_op):
        model = LFistaResNet(table1_op, ExperimentConfig(), True, 0)
        assert n_params(model) == 7379
        assert not [name for name in model.params if name.startswith("block_")]

    def test_dnn_total(self):
        model = EchoDnn(200, 784, 0)
        assert n_params(model) == 12634
        # 400*10 + 10 + 10*784 + 784
        assert n_params(model) == 400 * 10 + 10 + 10 * 784 + 784

    def test_side_must_square_to_the_cell_count(self):
        with pytest.raises(ValueError, match="side 5 does not square to 16 cells"):
            LFistaResNet(small_op(), ExperimentConfig(side_cells=5), False, 0)

    def test_head_parameter_count(self, table1_op):
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        head = sum(
            v.size for k, v in model.params.items() if not k.startswith("block_")
        )
        assert head == 7379


class TestUnrolledForward:
    def test_zero_echo_zero_output(self):
        model, op = small_model()
        out = model.forward(np.zeros(10, dtype=complex), op)
        np.testing.assert_array_equal(
            model.lfista_stage(np.zeros(10, dtype=complex), op)[0], 0.0
        )
        assert np.all(np.isfinite(out))

    def test_single_block_identity_step(self):
        # mu = 1, theta = 0, identity operator: one block reproduces the echo
        op4 = ImagingOperator(np.eye(4))
        cfg = ExperimentConfig(side_cells=2, n_blocks=1, res_channels=2, res_blocks=1)
        model = LFistaResNet(op4, cfg, False, 0)
        model.params["block_mu_raw"][:] = softplus_inv(1.0)
        model.params["block_theta_raw"][:] = softplus_inv(1e-300)
        s = np.array([0.5, 0.0, 1.2, 0.3])
        np.testing.assert_allclose(model.lfista_stage(s, op4)[0], s, atol=1e-12)

    def test_twenty_blocks_match_relu_fista_oracle(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        # init: mu = 1/lmax, theta = 0.01 * mu
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        rng = np.random.default_rng(0)
        eps = np.zeros(len(grid))
        eps[rng.integers(0, len(grid), 20)] = rng.uniform(0.2, 1.0, 20)
        s = synthesize_echoes(matrix, eps[None])[0]
        mu = 1.0 / table1_op.lmax
        want = relu_fista_oracle(matrix, s, mu, 0.01 * mu, 20)
        got = model.lfista_stage(s, table1_op)[0]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_frozen_stage_is_the_fista_iteration(self, table1_scene, table1_op):
        # the frozen blocks are the first n_blocks FISTA iterations with the
        # nonnegative shrink, step 1/lmax and threshold frozen_lambda/lmax
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(2)
        maps = rng.uniform(0, 1, (3, len(grid))) * (rng.uniform(size=(3, len(grid))) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        cfg = ExperimentConfig()
        model = LFistaResNet(table1_op, cfg, True, 0)
        mu = np.full(cfg.n_blocks, 1.0 / table1_op.lmax)
        for x, _ in fista_iterates(table1_op, echoes, mu, cfg.frozen_lambda * mu, nonneg_shrink):
            pass
        np.testing.assert_array_equal(model.lfista_stage(echoes, table1_op), x)

    def test_forward_deterministic(self):
        model, op = small_model(seed=3)
        rng = np.random.default_rng(1)
        echoes = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        np.testing.assert_array_equal(model.forward(echoes, op), model.forward(echoes, op))


class TestRefinementHead:
    def test_zero_input_zero_biases_zero_output(self):
        model, _ = small_model(seed=1)
        out = model._head(np.zeros((2, 16)), collect=False)[0]
        np.testing.assert_array_equal(out, 0.0)

    def test_zeroed_res_kernels_reduce_to_skip(self):
        # with zero res-block kernels/biases the block is ReLU of its input,
        # so the head collapses to tail(conv(head)) on a nonnegative path
        model, _ = small_model(seed=2, channels=3)
        for name in list(model.params):
            if name.startswith("res"):
                model.params[name][:] = 0.0
        rng = np.random.default_rng(3)
        coarse = rng.uniform(0, 1, (2, 16))
        p = model.params
        img = coarse.reshape(2, 4, 4, 1)
        h0 = np.maximum(naive_conv(img, p["head_kernel"], p["head_bias"]), 0.0)
        want = naive_conv(h0, p["tail_kernel"], p["tail_bias"]).reshape(2, 16)
        np.testing.assert_allclose(model._head(coarse, collect=False)[0], want, atol=1e-12)

    def test_matches_straight_line_reimplementation(self, table1_op):
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 11)
        rng = np.random.default_rng(4)
        coarse = rng.uniform(0, 1, (2, 784))
        p = model.params
        h = np.maximum(
            naive_conv(coarse.reshape(2, 28, 28, 1), p["head_kernel"], p["head_bias"]),
            0.0,
        )
        for rb in (1, 2):
            u = np.maximum(
                naive_conv(h, p[f"res{rb}_conv1_kernel"], p[f"res{rb}_conv1_bias"]), 0.0
            )
            u = naive_conv(u, p[f"res{rb}_conv2_kernel"], p[f"res{rb}_conv2_bias"])
            h = np.maximum(u + h, 0.0)
        want = naive_conv(h, p["tail_kernel"], p["tail_bias"]).reshape(2, 784)
        np.testing.assert_allclose(model._head(coarse, collect=False)[0], want, atol=1e-10)


class TestModelForward:
    def test_composition_equals_stages(self):
        model, op = small_model(seed=5)
        rng = np.random.default_rng(5)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        np.testing.assert_array_equal(
            model.forward(echoes, op), model._head(model.lfista_stage(echoes, op), collect=False)[0]
        )

    def test_untrained_point_target_is_finite(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        eps = np.zeros(len(grid))
        eps[100] = 1.0
        s = synthesize_echoes(matrix, eps[None])[0]
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        out = model.forward(s, table1_op)
        assert out.shape == (784,)
        assert np.all(np.isfinite(out))

    def test_single_echo_matches_its_batch_row(self, table1_scene, table1_op):
        # a single echo runs the gram product as gemv, a batch as gemm; the
        # two sum in different orders, so compare against the output's scale
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(13)
        maps = rng.uniform(0, 1, (4, len(grid))) * (rng.uniform(size=(4, len(grid))) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        for frozen in (False, True):
            model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
            batched = model.forward(echoes, table1_op)
            for echo, row in zip(echoes, batched):
                assert np.max(np.abs(model.forward(echo, table1_op) - row)) <= 1e-12 * np.max(np.abs(row))

    @pytest.mark.parametrize("frozen", [False, True])
    def test_forward_equals_the_cached_forward(self, table1_scene, table1_op, frozen):
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(16)
        maps = rng.uniform(0, 1, (23, len(grid))) * (rng.uniform(size=(23, len(grid))) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
        np.testing.assert_array_equal(
            model.forward(echoes, table1_op), model.forward_cached(echoes, table1_op)[0]
        )

    @pytest.mark.parametrize("kind", ["lfista_resnet", "fista_resnet", "dnn"])
    def test_predict_maps_is_one_forward(self, kind):
        model, op = small_model(seed=6, frozen=kind == "fista_resnet")
        if kind == "dnn":
            model = EchoDnn(10, 16, 6)
        rng = np.random.default_rng(6)
        echoes = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
        np.testing.assert_array_equal(predict_maps(model, echoes, op), model.forward(echoes, op))

    @pytest.mark.parametrize("kind", ["lfista_resnet", "fista_resnet", "dnn"])
    def test_an_empty_batch_gives_no_maps(self, table1_scene, table1_op, kind):
        _, grid, _, _, matrix = table1_scene
        model = build_model(kind, table1_op, ExperimentConfig(), seed=0)
        echoes = np.zeros((0, matrix.shape[0]), dtype=complex)
        assert model.forward(echoes, table1_op).shape == (0, len(grid))
        assert predict_maps(model, echoes, table1_op).shape == (0, len(grid))


def tile_caches(caches):
    """The conv inputs and the masks of every tile's head cache."""
    inputs, masks = [], []
    for tile in caches:
        inputs += [tile["head"][0][0], tile["tail"][0]]
        masks.append(tile["head"][1])
        for name in tile:
            if name.startswith("res"):
                c1, m1, c2, m_sum = tile[name]
                inputs += [c1[0], c2[0]]
                masks += [m1, m_sum]
    return inputs, masks


class TestBorderedHead:
    """The head runs on (n, 30, 30, c) images whose outer ring stays 0."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_every_head_activation_keeps_a_zero_ring(self, monkeypatch, table1_op, frozen):
        model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
        n = model.tile_images(np.float64) + 2  # two tiles
        rng = np.random.default_rng(19)
        echoes = rng.normal(size=(n, 200)) + 1j * rng.normal(size=(n, 200))
        outputs, upstream = [], []

        def forward_recording(x, kernel, bias):
            out, cache = conv2d_3x3_cached(x, kernel, bias)
            outputs.append(ring_is_zero(out))
            return out, cache

        def backward_recording(cache, dout, input_grad=True):
            upstream.append(ring_is_zero(dout))
            dx, dk, db = conv2d_3x3_backward(cache, dout, input_grad)
            upstream.append(dx is None or ring_is_zero(dx))
            return dx, dk, db

        monkeypatch.setattr(models, "conv2d_3x3_cached", forward_recording)
        monkeypatch.setattr(models, "conv2d_3x3_backward", backward_recording)
        _, cache = model.forward_cached(echoes, table1_op)
        model.backward(cache, rng.normal(size=(n, 784)))
        assert len(cache["head"]) == 2
        assert outputs == [True] * 12 and upstream == [True] * 24
        inputs, masks = tile_caches(cache["head"])
        assert len(inputs) == 12 and len(masks) == 10
        for arr in inputs + masks:
            assert arr.shape[1:3] == (30, 30) and ring_is_zero(arr)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_float32_stays_float32_through_the_convs(self, table1_op, frozen):
        model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
        model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
        n = model.tile_images(np.float32) + 2  # two tiles
        coarse = np.random.default_rng(20).uniform(0, 1, (n, 784)).astype(np.float32)
        out, caches = model._head(coarse, collect=True)
        assert out.dtype == np.float32 and len(caches) == 2
        inputs, _ = tile_caches(caches)
        assert [x.dtype for x in inputs] == [np.float32] * 12


class TestHeadTiles:
    """The head runs depth-first over tiles of images; a batch of two full
    tiles and a part tile gives what its images give one by one."""

    @pytest.fixture
    def echoes(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        n = 2 * LFistaResNet(table1_op, ExperimentConfig(), False, 0).tile_images(np.float64) + 3
        rng = np.random.default_rng(21)
        maps = rng.uniform(0, 1, (n, len(grid))) * (rng.uniform(size=(n, len(grid))) < 0.1)
        return synthesize_echoes(matrix, maps)

    def test_tile_of_the_paper_geometry(self, table1_op):
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        assert model.tile_images(np.float64) == 7
        assert model.tile_images(np.float32) == 15

    @pytest.mark.parametrize("frozen", [False, True])
    def test_head_rows_equal_the_batch_one_rows(self, table1_op, echoes, frozen):
        model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
        coarse = model.lfista_stage(echoes, table1_op)
        out, caches = model._head(coarse, collect=True)
        assert [len(tile["tail"][0]) for tile in caches] == [7, 7, 3]
        for i, row in enumerate(out):
            np.testing.assert_array_equal(model._head(coarse[i : i + 1], collect=False)[0][0], row)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_gradients_sum_the_single_image_gradients(self, table1_op, echoes, frozen):
        model = LFistaResNet(table1_op, ExperimentConfig(), frozen, 0)
        upstream = np.random.default_rng(22).normal(size=(len(echoes), 784))
        _, cache = model.forward_cached(echoes, table1_op)
        grads = model.backward(cache, upstream)
        singles = []
        for echo, row in zip(echoes, upstream):
            _, one = model.forward_cached(echo, table1_op)
            singles.append(model.backward(one, row[None]))
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            total = sum(single[name] for single in singles)
            assert np.max(np.abs(g - total)) <= 1e-12 * np.max(np.abs(g)), name

    @pytest.mark.parametrize("frozen", [False, True])
    def test_finite_difference_across_a_tile_boundary(self, monkeypatch, frozen):
        model, op = small_model(seed=23, frozen=frozen, res_blocks=2)
        image = 2 * 6 * 6 * 8  # 2 channels of 4x4, bordered, in float64
        monkeypatch.setattr(models, "HEAD_TILE_BYTES", 2 * image)
        rng = np.random.default_rng(23)
        echoes = rng.normal(size=(5, 10)) + 1j * rng.normal(size=(5, 10))
        weights = rng.normal(size=(5, 16))
        _, cache = model.forward_cached(echoes, op)
        assert len(cache["head"]) == 3  # 2 + 2 + 1 images
        grads = model.backward(cache, weights)
        for name in model.params:
            fd = finite_difference_grad(
                lambda _arr: float(np.sum(model.forward(echoes, op) * weights)), model.params[name]
            )
            err = relative_grad_error(grads[name], fd)
            assert err < 1e-4, f"{name}: {err}"


class TestEchoDnn:
    def test_zero_input_zero_params_zero_output(self):
        model = EchoDnn(10, 16, 0)
        for v in model.params.values():
            v[:] = 0.0
        out = model.forward(np.zeros(10, dtype=complex))
        np.testing.assert_array_equal(out, 0.0)

    def test_features_are_re_then_im(self):
        s = np.array([1 + 2j, 3 - 4j])
        np.testing.assert_array_equal(
            EchoDnn.echo_features(s)[0], [1.0, 3.0, 2.0, -4.0]
        )

    def test_linear_region_superposition(self):
        model = EchoDnn(5, 9, 1)
        # positive weights and bias keep every preactivation positive for
        # nonnegative inputs, so the map is affine there
        model.params["dense1_weight"][:] = np.abs(model.params["dense1_weight"])
        model.params["dense1_bias"][:] = 0.5
        rng = np.random.default_rng(7)
        s1 = rng.uniform(0.1, 1, 5) + 1j * rng.uniform(0.1, 1, 5)
        s2 = rng.uniform(0.1, 1, 5) + 1j * rng.uniform(0.1, 1, 5)
        lhs = model.forward(s1 + s2) + model.forward(np.zeros(5, dtype=complex))
        rhs = model.forward(s1) + model.forward(s2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        model, op = small_model(seed=8)
        rng = np.random.default_rng(8)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes, op)
        grads = model.backward(cache, np.zeros((2, 16)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    @pytest.mark.parametrize("frozen", [False, True])
    def test_finite_difference_every_group_lfista(self, frozen):
        model, op = small_model(seed=9, frozen=frozen)
        rng = np.random.default_rng(9)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        weights = rng.normal(size=(2, 16))
        _, cache = model.forward_cached(echoes, op)
        grads = model.backward(cache, weights)
        assert set(grads) == set(model.params)
        for name in model.params:
            def loss(_arr, name=name):
                out = model.forward(echoes, op)
                return float(np.sum(out * weights))

            fd = finite_difference_grad(loss, model.params[name])
            err = relative_grad_error(grads[name], fd)
            assert err < 1e-4, f"{name}: {err}"

    def test_finite_difference_dnn(self):
        model = EchoDnn(6, 9, 10)
        rng = np.random.default_rng(10)
        echoes = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        weights = rng.normal(size=(3, 9))
        out, cache = model.forward_cached(echoes)
        grads = model.backward(cache, weights)
        for name in model.params:
            def loss(_arr, name=name):
                return float(np.sum(model.forward(echoes) * weights))

            fd = finite_difference_grad(loss, model.params[name])
            err = relative_grad_error(grads[name], fd)
            assert err < 1e-4, f"{name}: {err}"

    def test_theta_gradient_sign_on_final_block(self):
        # with an all-ones upstream gradient, raising the last threshold can
        # only remove activation mass, so its gradient is nonpositive
        model, op = small_model(seed=11, n_blocks=1)
        rng = np.random.default_rng(11)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes, op)
        grads = model.backward(cache, np.ones((2, 16)))
        assert grads["block_theta_raw"][0] <= 0.0


class TestFrozenBlocks:
    def test_scalars_follow_operator(self):
        model, op = small_model(seed=12, frozen=True)
        op2 = small_op(seed=99)
        mu1, th1 = model.block_scalars(op)
        mu2, th2 = model.block_scalars(op2)
        assert mu1[0] == pytest.approx(1.0 / op.lmax)
        assert mu2[0] == pytest.approx(1.0 / op2.lmax)
        assert mu1[0] != mu2[0]
        np.testing.assert_allclose(th1, model.init_lam * mu1)

    def test_learned_scalars_ignore_operator(self):
        model, op = small_model(seed=13, frozen=False)
        op2 = small_op(seed=98)
        mu1, _ = model.block_scalars(op)
        mu2, _ = model.block_scalars(op2)
        np.testing.assert_array_equal(mu1, mu2)

    def test_frozen_backward_has_no_block_grads(self):
        model, op = small_model(seed=14, frozen=True)
        rng = np.random.default_rng(14)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes, op)
        grads = model.backward(cache, rng.normal(size=(2, 16)))
        assert "block_mu_raw" not in grads
        assert "block_theta_raw" not in grads

    def test_frozen_backward_stops_at_the_head(self):
        frozen, op = small_model(seed=15, frozen=True)
        full, _ = small_model(seed=15, frozen=False)
        full.block_scalars = frozen.block_scalars  # same forward, blocks still run back
        rng = np.random.default_rng(15)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        upstream = rng.normal(size=(2, 16))
        out, cache = frozen.forward_cached(echoes, op)
        full_out, full_cache = full.forward_cached(echoes, op)
        np.testing.assert_array_equal(out, full_out)
        assert not cache["blocks"]

        grads = frozen.backward(cache, upstream)
        full_grads = full.backward(full_cache, upstream)
        assert not [name for name in grads if name.startswith("block_")]
        assert set(full_grads) - set(grads) == {"block_mu_raw", "block_theta_raw"}
        for name, g in grads.items():
            np.testing.assert_array_equal(g, full_grads[name], err_msg=name)

    def test_frozen_backward_forms_no_head_input_gradient(self, monkeypatch):
        model, op = small_model(seed=17, frozen=True, res_blocks=2)
        rng = np.random.default_rng(17)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes, op)
        wanted = []

        def recording(conv_cache, dout, input_grad=True):
            wanted.append(input_grad)
            return conv2d_3x3_backward(conv_cache, dout, input_grad)

        monkeypatch.setattr(models, "conv2d_3x3_backward", recording)
        model.backward(cache, rng.normal(size=(2, 16)))
        assert wanted == [True] * 5 + [False]  # tail, two res blocks, then the head


class TestWorkspace:
    """Peak traced memory of the network at the paper geometry. The head runs
    in tiles of models.HEAD_TILE_BYTES, so its workspace does not grow with
    the batch. Every forward runs the unrolled blocks on the whole batch, so
    what grows with it is their four (n, P) rows, the (n, P) output and, in
    a cached forward, each learned block's step and mask. Each bound is the
    peak measured with OpenBLAS at 1 and 2 threads plus about a quarter:
    7.9 MB for predict_maps of 64 echoes (a whole-batch head took 41.5),
    13.9 MB for a cached forward of 16 and 18.2 MB for a training step of 16
    (19.1 and 23.9 with a whole-batch head)."""

    @staticmethod
    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def model_and_echoes(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        maps = np.random.default_rng(18).uniform(0, 1, (64, len(grid)))
        model = LFistaResNet(table1_op, ExperimentConfig(), False, 0)
        return model, synthesize_echoes(matrix, maps), maps

    def test_predict_maps_of_64_echoes(self, model_and_echoes, table1_op):
        model, echoes, _ = model_and_echoes
        assert self.peak_mb(lambda: predict_maps(model, echoes, table1_op)) < 10.0

    def test_cached_forward_of_16_echoes(self, model_and_echoes, table1_op):
        model, echoes, _ = model_and_echoes
        assert self.peak_mb(lambda: model.forward_cached(echoes[:16], table1_op)) < 17.5

    def test_training_step_of_16_echoes(self, model_and_echoes, table1_op):
        model, echoes, maps = model_and_echoes
        cfg = ExperimentConfig()
        state = AdamState.for_params(model.params, cfg.learning_rate)

        def step():
            out, cache = model.forward_cached(echoes[:16], table1_op)
            _, dout = hybrid_loss_batch(
                maps[:16], out, echoes[:16], table1_op, cfg.loss_lambda1, cfg.loss_lambda2
            )
            adam_step(model.params, model.backward(cache, dout), state)

        assert self.peak_mb(step) < 23.0


class TestBuildModel:
    def test_kinds(self, table1_op):
        cfg = ExperimentConfig()
        lf = build_model("lfista_resnet", table1_op, cfg, seed=0)
        fr = build_model("fista_resnet", table1_op, cfg, seed=0)
        dnn = build_model("dnn", table1_op, cfg, seed=0)
        assert (lf.kind, fr.kind, dnn.kind) == ("lfista_resnet", "fista_resnet", "dnn")
        with pytest.raises(ValueError):
            build_model("mystery", table1_op, cfg, seed=0)
