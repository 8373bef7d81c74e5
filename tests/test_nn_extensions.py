"""Tests for the noisy linear layers (the noisy-net heads)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import NoisyLinear, Tensor

rng = np.random.default_rng(77)


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
