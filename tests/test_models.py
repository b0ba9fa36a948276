import numpy as np
import pytest

from conftest import finite_difference_grad, relative_grad_error
from radarqi.config import ExperimentConfig
from radarqi.fista import ImagingOperator
from radarqi.forward import synthesize_echoes
from radarqi.models import EchoDnn, LFistaResNet, build_model, predict_maps
from radarqi.nn_ops import softplus_inv

from test_nn_ops import naive_conv


def small_op(seed=0, m=10, p=16):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
    return ImagingOperator(a)


def small_model(seed=0, frozen=False, n_blocks=3, channels=2, res_blocks=1):
    op = small_op(seed)
    return LFistaResNet(
        op,
        n_blocks=n_blocks,
        channels=channels,
        n_res_blocks=res_blocks,
        side=4,
        frozen_blocks=frozen,
        seed=seed,
    )


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


class TestParameterBudgets:
    def test_lfista_resnet_total(self, table1_op):
        model = LFistaResNet(table1_op)
        assert model.n_params() == 7419
        assert model.n_trainable() == 7419

    def test_frozen_variant_trainable(self, table1_op):
        model = LFistaResNet(table1_op, frozen_blocks=True)
        assert model.n_params() == 7419
        assert model.n_trainable() == 7379

    def test_dnn_total(self):
        model = EchoDnn(200, 784)
        assert model.n_params() == 12634
        # 400*10 + 10 + 10*784 + 784
        assert model.n_params() == 400 * 10 + 10 + 10 * 784 + 784

    def test_head_parameter_count(self, table1_op):
        model = LFistaResNet(table1_op)
        head = sum(
            v.size for k, v in model.params.items() if not k.startswith("block_")
        )
        assert head == 7379


class TestUnrolledForward:
    def test_zero_echo_zero_output(self):
        model = small_model()
        out = model.forward(np.zeros(10, dtype=complex))
        np.testing.assert_array_equal(
            model.lfista_stage(np.zeros(10, dtype=complex))[0], 0.0
        )
        assert np.all(np.isfinite(out))

    def test_single_block_identity_step(self):
        # mu = 1, theta = 0, identity operator: one block reproduces the echo
        op4 = ImagingOperator(np.eye(4))
        model = LFistaResNet(op4, n_blocks=1, channels=2, n_res_blocks=1, side=2, seed=0)
        model.params["block_mu_raw"][:] = softplus_inv(1.0)
        model.params["block_theta_raw"][:] = softplus_inv(1e-300)
        s = np.array([0.5, 0.0, 1.2, 0.3])
        np.testing.assert_allclose(model.lfista_stage(s)[0], s, atol=1e-12)

    def test_twenty_blocks_match_relu_fista_oracle(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        model = LFistaResNet(table1_op)  # init: mu = 1/lmax, theta = 0.01 * mu
        rng = np.random.default_rng(0)
        eps = np.zeros(grid.n_cells)
        eps[rng.integers(0, grid.n_cells, 20)] = rng.uniform(0.2, 1.0, 20)
        s = synthesize_echoes(matrix, eps[None])[0]
        mu = 1.0 / table1_op.lmax
        want = relu_fista_oracle(matrix, s, mu, 0.01 * mu, 20)
        got = model.lfista_stage(s)[0]
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_forward_deterministic(self):
        model = small_model(seed=3)
        rng = np.random.default_rng(1)
        echoes = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
        np.testing.assert_array_equal(model.forward(echoes), model.forward(echoes))


class TestRefinementHead:
    def test_zero_input_zero_biases_zero_output(self):
        model = small_model(seed=1)
        out = model.refine(np.zeros((2, 16)))
        np.testing.assert_array_equal(out, 0.0)

    def test_zeroed_res_kernels_reduce_to_skip(self):
        # with zero res-block kernels/biases the block is ReLU of its input,
        # so the head collapses to tail(conv(head)) on a nonnegative path
        model = small_model(seed=2, channels=3)
        for name in list(model.params):
            if name.startswith("res"):
                model.params[name][:] = 0.0
        rng = np.random.default_rng(3)
        coarse = rng.uniform(0, 1, (2, 16))
        p = model.params
        img = coarse.reshape(2, 4, 4, 1)
        h0 = np.maximum(naive_conv(img, p["head_kernel"], p["head_bias"]), 0.0)
        want = naive_conv(h0, p["tail_kernel"], p["tail_bias"]).reshape(2, 16)
        np.testing.assert_allclose(model.refine(coarse), want, atol=1e-12)

    def test_matches_straight_line_reimplementation(self, table1_op):
        model = LFistaResNet(table1_op, seed=11)
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
        np.testing.assert_allclose(model.refine(coarse), want, atol=1e-10)


class TestModelForward:
    def test_composition_equals_stages(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(5)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        np.testing.assert_array_equal(
            model.forward(echoes), model.refine(model.lfista_stage(echoes))
        )

    def test_untrained_point_target_is_finite(self, table1_scene, table1_op):
        _, grid, _, _, matrix = table1_scene
        eps = np.zeros(grid.n_cells)
        eps[100] = 1.0
        s = synthesize_echoes(matrix, eps[None])[0]
        model = LFistaResNet(table1_op)
        out = model.forward(s)
        assert out.shape == (784,)
        assert np.all(np.isfinite(out))

    def test_single_echo_matches_its_batch_row(self, table1_scene, table1_op):
        # a single echo runs the gram product as gemv, a batch as gemm; the
        # two sum in different orders, so compare against the output's scale
        _, grid, _, _, matrix = table1_scene
        rng = np.random.default_rng(13)
        maps = rng.uniform(0, 1, (4, grid.n_cells)) * (rng.uniform(size=(4, grid.n_cells)) < 0.1)
        echoes = synthesize_echoes(matrix, maps)
        model = LFistaResNet(table1_op)
        batched = model.forward(echoes)
        for echo, row in zip(echoes, batched):
            assert np.max(np.abs(model.forward(echo) - row)) <= 1e-12 * np.max(np.abs(row))

    def test_predict_maps_chunking(self):
        # chunked evaluation may reorder BLAS sums; only last-bit differences
        model = small_model(seed=6)
        rng = np.random.default_rng(6)
        echoes = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
        np.testing.assert_allclose(
            predict_maps(model, echoes, chunk=3), model.forward(echoes), atol=1e-12
        )


class TestEchoDnn:
    def test_zero_input_zero_params_zero_output(self):
        model = EchoDnn(10, 16, seed=0)
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
        model = EchoDnn(5, 9, seed=1)
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
    def _weighted_sum_loss(self, model, echoes, weights, op=None):
        out, cache = model.forward_cached(echoes, op)
        return float(np.sum(out * weights)), cache

    def test_zero_upstream_zero_grads(self):
        model = small_model(seed=8)
        rng = np.random.default_rng(8)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes)
        grads = model.backward(cache, np.zeros((2, 16)))
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    @pytest.mark.parametrize("frozen", [False, True])
    def test_finite_difference_every_group_lfista(self, frozen):
        model = small_model(seed=9, frozen=frozen)
        rng = np.random.default_rng(9)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        weights = rng.normal(size=(2, 16))
        _, cache = model.forward_cached(echoes)
        grads = model.backward(cache, weights)
        assert set(grads) == set(model.trainable_names)
        for name in model.trainable_names:
            def loss(_arr, name=name):
                out = model.forward(echoes)
                return float(np.sum(out * weights))

            fd = finite_difference_grad(loss, model.params[name])
            err = relative_grad_error(grads[name], fd)
            assert err < 1e-4, f"{name}: {err}"

    def test_finite_difference_dnn(self):
        model = EchoDnn(6, 9, seed=10)
        rng = np.random.default_rng(10)
        echoes = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        weights = rng.normal(size=(3, 9))
        out, cache = model.forward_cached(echoes)
        grads = model.backward(cache, weights)
        for name in model.trainable_names:
            def loss(_arr, name=name):
                return float(np.sum(model.forward(echoes) * weights))

            fd = finite_difference_grad(loss, model.params[name])
            err = relative_grad_error(grads[name], fd)
            assert err < 1e-4, f"{name}: {err}"

    def test_theta_gradient_sign_on_final_block(self):
        # with an all-ones upstream gradient, raising the last threshold can
        # only remove activation mass, so its gradient is nonpositive
        model = small_model(seed=11, n_blocks=1)
        rng = np.random.default_rng(11)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes)
        grads = model.backward(cache, np.ones((2, 16)))
        assert grads["block_theta_raw"][0] <= 0.0


class TestFrozenBlocks:
    def test_scalars_follow_operator(self):
        model = small_model(seed=12, frozen=True)
        op2 = small_op(seed=99)
        mu1, th1 = model.block_scalars(model.op)
        mu2, th2 = model.block_scalars(op2)
        assert mu1[0] == pytest.approx(1.0 / model.op.lmax)
        assert mu2[0] == pytest.approx(1.0 / op2.lmax)
        assert mu1[0] != mu2[0]
        np.testing.assert_allclose(th1, model.init_lam * mu1)

    def test_learned_scalars_ignore_operator(self):
        model = small_model(seed=13, frozen=False)
        op2 = small_op(seed=98)
        mu1, _ = model.block_scalars(model.op)
        mu2, _ = model.block_scalars(op2)
        np.testing.assert_array_equal(mu1, mu2)

    def test_frozen_backward_has_no_block_grads(self):
        model = small_model(seed=14, frozen=True)
        rng = np.random.default_rng(14)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        _, cache = model.forward_cached(echoes)
        grads = model.backward(cache, rng.normal(size=(2, 16)))
        assert "block_mu_raw" not in grads
        assert "block_theta_raw" not in grads

    def test_frozen_backward_stops_at_the_head(self):
        frozen = small_model(seed=15, frozen=True)
        full = small_model(seed=15, frozen=False)
        full.block_scalars = frozen.block_scalars  # same forward, blocks still run back
        rng = np.random.default_rng(15)
        echoes = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        upstream = rng.normal(size=(2, 16))
        out, cache = frozen.forward_cached(echoes)
        full_out, full_cache = full.forward_cached(echoes)
        np.testing.assert_array_equal(out, full_out)
        assert not cache["blocks"]

        grads = frozen.backward(cache, upstream)
        full_grads = full.backward(full_cache, upstream)
        assert not [name for name in grads if name.startswith("block_")]
        assert set(full_grads) - set(grads) == {"block_mu_raw", "block_theta_raw"}
        for name, g in grads.items():
            np.testing.assert_array_equal(g, full_grads[name], err_msg=name)


class TestBuildModel:
    def test_kinds(self, table1_op):
        cfg = ExperimentConfig()
        lf = build_model("lfista_resnet", table1_op, cfg, seed=0)
        fr = build_model("fista_resnet", table1_op, cfg, seed=0)
        dnn = build_model("dnn", table1_op, cfg, seed=0)
        assert (lf.kind, fr.kind, dnn.kind) == ("lfista_resnet", "fista_resnet", "dnn")
        with pytest.raises(ValueError):
            build_model("mystery", table1_op, cfg, seed=0)
