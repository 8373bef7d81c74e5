"""Tests for NN modules, attention, conv, optimizers, and losses."""

import numpy as np
import pytest

from graph_oracle import op, unfold1d
from repro.nn import (
    Adam,
    AttentionBlock,
    Conv1d,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadSelfAttention,
    Tensor,
    huber_loss,
    load_state,
    margin_loss,
    save_state,
)

rng = np.random.default_rng(5)


class TestLinearMLP:
    def test_linear_shapes(self):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 7)

    def test_linear_broadcasts_over_leading_dims(self):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 7)

    def test_mlp_depth(self):
        mlp = MLP([4, 8, 8, 2], rng=rng)
        assert len(mlp.linears) == 3
        assert mlp(Tensor(rng.normal(size=(3, 4)))).shape == (3, 2)

    def test_mlp_final_activation(self):
        mlp = MLP([4, 8, 2], final_act="tanh", rng=rng)
        out = mlp(Tensor(rng.normal(size=(10, 4)) * 100))
        assert (np.abs(out.data) <= 1.0).all()

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_layernorm_normalizes(self):
        ln = LayerNorm(16)
        out = ln(Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 16))))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)


class TestStateDict:
    def test_roundtrip(self, tmp_path):
        mlp = MLP([3, 5, 2], rng=np.random.default_rng(1))
        x = rng.normal(size=(4, 3))
        before = mlp(Tensor(x)).data
        save_state(mlp, tmp_path / "m.npz", step=7)
        fresh = MLP([3, 5, 2], rng=np.random.default_rng(99))
        meta = load_state(fresh, tmp_path / "m.npz")
        assert np.allclose(fresh(Tensor(x)).data, before)
        assert int(meta["step"]) == 7

    def test_mismatch_raises(self):
        a = MLP([3, 5, 2], rng=rng)
        b = MLP([3, 6, 2], rng=rng)
        with pytest.raises((KeyError, ValueError)):
            b.load_state_dict(a.state_dict())

    def test_n_parameters(self):
        mlp = MLP([3, 5, 2], rng=rng)
        assert mlp.n_parameters() == 3 * 5 + 5 + 5 * 2 + 2


class TestAttention:
    def test_shapes_2d_and_3d(self):
        attn = MultiHeadSelfAttention(8, n_heads=2, rng=rng)
        assert attn(Tensor(rng.normal(size=(5, 8)))).shape == (5, 8)
        assert attn(Tensor(rng.normal(size=(3, 5, 8)))).shape == (3, 5, 8)

    def test_head_divisibility_check(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(9, n_heads=2)

    def test_permutation_equivariance(self):
        """Attention is the paper's exchangeability device: permuting
        node tokens permutes outputs identically."""
        attn = MultiHeadSelfAttention(8, n_heads=2, rng=np.random.default_rng(3))
        x = rng.normal(size=(6, 8))
        perm = np.random.default_rng(0).permutation(6)
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[perm])).data
        assert np.allclose(out[perm], out_perm, atol=1e-10)

    def test_block_residual_shape(self):
        block = AttentionBlock(8, n_heads=2, rng=rng)
        assert block(Tensor(rng.normal(size=(2, 4, 8)))).shape == (2, 4, 8)


class TestConv1d:
    def test_unfold_matches_manual(self):
        x = rng.normal(size=(1, 2, 6))
        windows = unfold1d(Tensor(x), kernel=3, stride=1)
        assert windows.shape == (1, 4, 6)
        manual = np.concatenate([x[0, :, 0:3].reshape(-1), ], axis=0)
        assert np.allclose(windows.data[0, 0], manual)

    def test_output_length(self):
        conv = Conv1d(3, 5, kernel=4, stride=4, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 64))))
        assert out.shape == (2, 5, 16)

    def test_matches_direct_convolution(self):
        conv = Conv1d(2, 1, kernel=2, stride=1, rng=rng)
        x = rng.normal(size=(1, 2, 4))
        out = conv(Tensor(x)).data
        w = conv.weight.data  # (C_in*K, C_out)
        for t in range(3):
            window = x[0, :, t:t + 2].reshape(-1)
            expected = window @ w[:, 0] + conv.bias.data[0]
            assert np.isclose(out[0, 0, t], expected)

    def test_too_small_input_raises(self):
        conv = Conv1d(1, 1, kernel=8, stride=1, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 1, 4))))


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        from repro.nn.modules import Parameter

        w = Parameter(np.zeros(3))
        target = np.array([1.0, -2.0, 3.0])
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            ((op(w) - target) ** 2).sum().backward()
            opt.step()
        assert np.allclose(w.data, target, atol=1e-2)

    def test_grad_clip_bounds_update(self):
        from repro.nn.modules import Parameter

        w = Parameter(np.zeros(3))
        opt = Adam([w], lr=0.1, grad_clip=1.0)
        w.grad = np.array([1e6, 1e6, 1e6])
        opt.step()
        # the first moment after one step is (1 - beta1) * clipped grad
        clipped = opt._m / (1.0 - opt.beta1)
        assert np.sqrt((clipped ** 2).sum()) <= 1.0 + 1e-9

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestLosses:
    def test_huber_quadratic_region(self):
        q = Tensor(np.array([[9.0, 0.5]]), requires_grad=True)
        loss = huber_loss(q, [1], np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(0.5 * 0.25)

    def test_huber_linear_region(self):
        q = Tensor(np.array([[3.0]]), requires_grad=True)
        loss = huber_loss(q, [0], np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(3.0 - 0.5)

    def test_huber_importance_weights(self):
        q = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        unweighted = huber_loss(q, [0, 0], np.zeros(2))
        weighted = huber_loss(q, [0, 0], np.zeros(2), weights=np.array([2.0, 0.0]))
        assert weighted.item() == pytest.approx(unweighted.item() * 2 / 2)

    def test_huber_gradient_reaches_taken_actions_only(self):
        q = Tensor(np.array([[0.5, 7.0], [3.0, -2.0]]), requires_grad=True)
        huber_loss(q, [0, 1], np.zeros(2)).backward()
        # d/dq of mean(huber): err / B inside delta, sign(err) / B outside
        np.testing.assert_array_equal(q.grad, [[0.25, 0.0], [0.0, -0.5]])

    def test_margin_loss_zero_when_expert_dominates(self):
        q = np.array([[2.0, 0.0, 0.0]])
        loss = margin_loss(Tensor(q, requires_grad=True), [0], [2.0],
                           margin=0.05, margin_weight=1.0)
        assert loss.item() == pytest.approx(0.0)

    def test_margin_loss_penalizes_wrong_argmax(self):
        q = np.array([[0.0, 1.0, 0.0]])
        loss = margin_loss(Tensor(q, requires_grad=True), [0], [0.0],
                           margin=0.05, margin_weight=1.0)
        assert loss.item() == pytest.approx(1.05)

    def test_margin_loss_adds_weighted_margin_to_value_regression(self):
        q = np.array([[0.0, 1.0, 0.0]])
        loss = margin_loss(Tensor(q, requires_grad=True), [0], [0.5],
                           margin=0.05, margin_weight=0.1)
        assert loss.item() == pytest.approx(0.5 * 0.25 + 0.1 * 1.05)
