"""A small numpy-based neural-network library with reverse-mode autodiff.

This substrate replaces PyTorch (unavailable in the reproduction
environment). It provides exactly what the paper's models need:
linear/MLP blocks, layer normalization, multi-head self-attention,
temporal 1-D convolution, Adam, and Huber / large-margin losses.
Gradients are verified against finite differences in the test suite.
"""

from repro.nn.tensor import Tensor, concat, is_grad_enabled, stack, no_grad
from repro.nn.modules import (
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
    activation,
)
from repro.nn.attention import AttentionBlock, MultiHeadSelfAttention
from repro.nn.conv import Conv1d
from repro.nn.recurrent import GRU, GRUCell
from repro.nn.noisy import NoisyLinear, NoisyMLP
from repro.nn.optim import SGD, Adam
from repro.nn.losses import (
    categorical_cross_entropy,
    huber_loss,
    margin_loss,
    mse_loss,
)
from repro.nn.serialization import load_state, save_state

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "Sequential",
    "activation",
    "MultiHeadSelfAttention",
    "AttentionBlock",
    "Conv1d",
    "GRU",
    "GRUCell",
    "NoisyLinear",
    "NoisyMLP",
    "SGD",
    "Adam",
    "categorical_cross_entropy",
    "huber_loss",
    "margin_loss",
    "mse_loss",
    "save_state",
    "load_state",
]
