"""Tests for the nn extensions: GRU recurrence, noisy linear layers,
the per-op oracle's log-softmax, and the categorical cross-entropy
loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import OpTensor, op
from repro.nn import (
    Adam,
    GRU,
    GRUCell,
    NoisyLinear,
    Tensor,
    categorical_cross_entropy,
)

rng = np.random.default_rng(77)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = OpTensor(rng.normal(size=(4, 9)))
        assert np.allclose(x.log_softmax().data, np.log(x.softmax().data))

    def test_rows_normalize(self):
        x = OpTensor(rng.normal(size=(6, 5)) * 10)
        probs = np.exp(x.log_softmax().data)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_numerically_stable_for_large_logits(self):
        x = OpTensor(np.array([[1e4, 0.0, -1e4]]))
        out = x.log_softmax().data
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        x = rng.normal(size=(3, 5))

        def analytic():
            t = OpTensor(x, requires_grad=True)
            loss = (t.log_softmax() * t.log_softmax()).sum()
            loss.backward()
            return t.grad

        def f():
            val = OpTensor(x).log_softmax().data
            return float((val * val).sum())

        assert np.allclose(analytic(), numeric_grad(f, x), atol=1e-5)


class TestCategoricalCrossEntropy:
    """The loss reads the taken action's (B, n_atoms) row out of
    (B, n_actions, n_atoms) log-probabilities."""

    def test_zero_when_prediction_matches_onehot_target(self):
        logits = OpTensor(np.array([[[100.0, 0.0, 0.0]]]))
        target = np.array([[1.0, 0.0, 0.0]])
        loss, _ = categorical_cross_entropy(logits.log_softmax(), [0], target)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_equals_entropy_for_matching_distributions(self):
        p = np.array([[0.2, 0.3, 0.5]])
        loss, per_row = categorical_cross_entropy(
            Tensor(np.log(p)[:, None]), [0], p)
        entropy = -(p * np.log(p)).sum()
        assert loss.item() == pytest.approx(entropy)
        assert per_row == pytest.approx([entropy])

    def test_reads_the_taken_actions_rows(self):
        log_p = np.log(np.array([[[0.5, 0.5], [0.9, 0.1]],
                                 [[0.2, 0.8], [0.5, 0.5]]]))
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, per_row = categorical_cross_entropy(Tensor(log_p), [1, 0], target)
        assert per_row == pytest.approx([-np.log(0.9), -np.log(0.8)])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            categorical_cross_entropy(
                Tensor(np.zeros((2, 1, 3))), [0, 0], np.zeros((2, 4))
            )

    def test_importance_weights_scale_rows(self):
        log_p = Tensor(np.log(np.full((2, 1, 4), 0.25)))
        target = np.full((2, 4), 0.25)
        unweighted = categorical_cross_entropy(log_p, [0, 0], target)[0].item()
        weighted = categorical_cross_entropy(
            log_p, [0, 0], target, weights=np.array([2.0, 0.0])
        )[0].item()
        assert weighted == pytest.approx(unweighted)

    def test_gradient_flows_to_logits(self):
        logits = OpTensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
        target = rng.dirichlet(np.ones(5), size=3)
        loss, _ = categorical_cross_entropy(logits.log_softmax(), [0, 0, 0],
                                            target)
        loss.backward()
        assert logits.grad is not None
        # gradient of CE wrt logits is (softmax - target) / batch
        expected = (
            np.exp(OpTensor(logits.data[:, 0]).log_softmax().data) - target
        ) / 3.0
        assert np.allclose(logits.grad[:, 0], expected, atol=1e-8)


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(6, 11, rng=rng)
        h = cell(Tensor(rng.normal(size=(4, 6))), np.zeros((4, 11)))
        assert h.shape == (4, 11)

    def test_hidden_state_bounded(self):
        # h is a convex combination of tanh outputs, so |h| <= 1 from h0=0
        cell = GRUCell(4, 8, rng=rng)
        h = np.zeros((5, 8))
        for _ in range(20):
            h = cell(Tensor(rng.normal(size=(5, 4)) * 10), h)
        assert (np.abs(h.data) <= 1.0 + 1e-9).all()

    def test_gradients_flow_through_time(self):
        cell = GRUCell(3, 4, rng=rng)
        h = np.zeros((2, 4))
        xs = [Tensor(rng.normal(size=(2, 3))) for _ in range(5)]
        for x in xs:
            h = cell(x, h)
        h.backward(2.0 * h.data)  # d/dh of sum(h * h)
        for _, p in cell.named_parameters():
            assert p.grad is not None
            assert np.isfinite(p.grad).all()

    def test_gradcheck_single_step(self):
        cell = GRUCell(3, 4, rng=np.random.default_rng(3))
        x = rng.normal(size=(2, 3))
        weight = cell.candidate.weight

        def forward_loss() -> float:
            h = cell(Tensor(x), np.zeros((2, 4)))
            return float((h.data * h.data).sum())

        cell.zero_grad()
        h = cell(Tensor(x, requires_grad=True), np.zeros((2, 4)))
        h.backward(2.0 * h.data)
        numeric = numeric_grad(lambda: forward_loss(), weight.data)
        assert np.allclose(weight.grad, numeric, atol=1e-5)


class TestGRU:
    def test_final_state_shape(self):
        gru = GRU(5, 7, rng=rng)
        out = gru(Tensor(rng.normal(size=(3, 6, 5))))
        assert out.shape == (3, 7)

    def test_rejects_non_sequence_input(self):
        gru = GRU(4, 6, rng=rng)
        with pytest.raises(ValueError):
            gru(Tensor(rng.normal(size=(2, 4))))

    def test_order_sensitivity(self):
        """A recurrent net must distinguish permuted histories."""
        gru = GRU(3, 8, rng=rng)
        x = rng.normal(size=(1, 6, 3))
        out_fwd = gru(Tensor(x)).data
        out_rev = gru(Tensor(x[:, ::-1, :].copy())).data
        assert not np.allclose(out_fwd, out_rev)

    def test_trainable_on_toy_memory_task(self):
        """Predict the first input of a sequence from the final state."""
        gru = GRU(1, 8, rng=np.random.default_rng(0))
        from repro.nn import Linear

        head = Linear(8, 1, rng=np.random.default_rng(1))
        params = gru.parameters() + head.parameters()
        opt = Adam(params, lr=3e-2)
        data_rng = np.random.default_rng(42)
        losses = []
        for _ in range(120):
            x = data_rng.choice([-1.0, 1.0], size=(16, 4, 1))
            target = x[:, 0, 0]
            opt.zero_grad()
            pred = op(head(gru(Tensor(x)))).reshape(16)
            loss = ((pred - target) ** 2).mean()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < 0.25 * np.mean(losses[:10])


class TestNoisyLinear:
    def test_output_shape(self):
        layer = NoisyLinear(4, 9, rng=rng)
        assert layer(Tensor(rng.normal(size=(3, 4)))).shape == (3, 9)

    def test_noise_changes_output(self):
        layer = NoisyLinear(4, 6, rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(2, 4)))
        out1 = layer(x).data.copy()
        layer.reset_noise()
        out2 = layer(x).data.copy()
        assert not np.allclose(out1, out2)

    def test_disabled_noise_is_deterministic_mean(self):
        layer = NoisyLinear(4, 6, rng=np.random.default_rng(1))
        layer.noise_enabled = False
        x = Tensor(rng.normal(size=(2, 4)))
        out1 = layer(x).data.copy()
        layer.reset_noise()
        out2 = layer(x).data.copy()
        assert np.allclose(out1, out2)
        expected = x.data @ layer.weight_mu.data + layer.bias_mu.data
        assert np.allclose(out1, expected)

    def test_sigma_parameters_receive_gradient(self):
        layer = NoisyLinear(4, 6, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        out.backward(2.0 * out.data)
        assert layer.weight_sigma.grad is not None
        assert np.abs(layer.weight_sigma.grad).sum() > 0

    def test_parameter_count(self):
        layer = NoisyLinear(4, 6, rng=rng)
        # mu and sigma for both weight and bias
        assert layer.n_parameters() == 2 * (4 * 6) + 2 * 6

    def test_mean_sigma_positive_at_init(self):
        assert NoisyLinear(8, 8, rng=rng).mean_sigma > 0


class TestNoisyLinearProperties:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_shapes(self, n_in, n_out, batch):
        layer = NoisyLinear(n_in, n_out, rng=np.random.default_rng(0))
        x = Tensor(np.ones((batch, n_in)))
        assert layer(x).shape == (batch, n_out)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_noise_is_properly_scaled(self, seed):
        """Factorized noise entries are sign(x)sqrt|x| products; their
        magnitude distribution must stay finite and centered."""
        layer = NoisyLinear(16, 16, rng=np.random.default_rng(seed))
        assert np.isfinite(layer._eps_w).all()
        assert abs(float(layer._eps_w.mean())) < 2.0
