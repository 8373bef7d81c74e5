"""Noisy linear layers (Fortunato et al. 2018), the Rainbow
exploration component.

The paper's training algorithm adopts three Rainbow extensions (double
DQN, prioritized replay, n-step loss) and explores with epsilon-greedy.
:class:`NoisyLinear` provides the fourth Rainbow ingredient -- learned,
state-conditional exploration -- used by the ablation study in
``benchmarks/bench_rl_ablation.py``.

Factorized Gaussian noise: with input size p and output size q the
layer holds learnable (mu, sigma) for weights and biases and perturbs

    w = mu_w + sigma_w * (f(eps_p) outer f(eps_q)),  f(x) = sign(x)*sqrt(|x|)

Noise is resampled explicitly via :meth:`reset_noise`; with
``noise_enabled = False`` the layer behaves as its mean weights
(the deterministic evaluation-time policy).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.modules import MLP, Module, Parameter, affine_grads, array_activation

__all__ = ["NoisyLinear", "NoisyMLP"]


def _scaled_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    x = rng.normal(size=size)
    return np.sign(x) * np.sqrt(np.abs(x))


class NoisyLinear(Module):
    """Linear layer with factorized Gaussian parameter noise."""

    def __init__(self, in_features: int, out_features: int,
                 sigma0: float = 0.5, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        bound = 1.0 / math.sqrt(in_features)
        self.weight_mu = Parameter(
            rng.uniform(-bound, bound, (in_features, out_features))
        )
        self.bias_mu = Parameter(rng.uniform(-bound, bound, out_features))
        sigma_init = sigma0 / math.sqrt(in_features)
        self.weight_sigma = Parameter(
            np.full((in_features, out_features), sigma_init)
        )
        self.bias_sigma = Parameter(np.full(out_features, sigma_init))
        self._rng = rng
        self.noise_enabled = True
        self._eps_w = np.zeros((in_features, out_features))
        self._eps_b = np.zeros(out_features)
        self.reset_noise()

    def reset_noise(self) -> None:
        """Draw fresh factorized noise (call once per forward batch)."""
        eps_in = _scaled_noise(self._rng, self.in_features)
        eps_out = _scaled_noise(self._rng, self.out_features)
        self._eps_w = np.outer(eps_in, eps_out)
        self._eps_b = eps_out

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        noisy = self.noise_enabled
        if noisy:
            eps_w, eps_b = self._eps_w, self._eps_b
            weight = self.weight_sigma.data * eps_w
            weight += self.weight_mu.data
            bias = self.bias_sigma.data * eps_b
            bias += self.bias_mu.data
        else:
            weight, bias = self.weight_mu.data, self.bias_mu.data
        if tape is not None:

            def backward(grad):
                grad_w, grad_b, grad_x = affine_grads(x, weight, grad)
                tape.accumulate(self.weight_mu, grad_w)
                tape.accumulate(self.bias_mu, grad_b)
                if noisy:
                    tape.accumulate(self.weight_sigma, grad_w * eps_w)
                    tape.accumulate(self.bias_sigma, grad_b * eps_b)
                return grad_x

            tape.record(backward)
        out = x @ weight
        out += bias
        return out

    @property
    def mean_sigma(self) -> float:
        """Average |sigma| across weights; a learned-exploration gauge."""
        return float(np.abs(self.weight_sigma.data).mean())


class NoisyMLP(MLP):
    """Feed-forward stack of :class:`NoisyLinear` layers.

    Drop-in replacement for :class:`repro.nn.MLP` in Q-network heads;
    with noise enabled the greedy policy explores through parameter
    perturbations instead of epsilon-greedy (Rainbow's exploration
    component). The forward and backward passes are :class:`MLP`'s.
    """

    def __init__(self, dims, act: str = "leaky_relu", final_act=None,
                 sigma0: float = 0.5, rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ValueError("NoisyMLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.linears = [
            NoisyLinear(dims[i], dims[i + 1], sigma0=sigma0, rng=rng)
            for i in range(len(dims) - 1)
        ]
        self._act = array_activation(act)
        self._final_act = array_activation(final_act)
