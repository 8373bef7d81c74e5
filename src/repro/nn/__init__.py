"""A small numpy-based neural-network library with reverse-mode autodiff.

This substrate replaces PyTorch (unavailable in the reproduction
environment). It provides exactly what the paper's models need:
linear/MLP blocks, layer normalization, multi-head self-attention,
temporal 1-D convolution, Adam, and Huber / large-margin losses.

The fused modules (linear, MLP, layer norm, attention, noisy linear)
have one numeric forward on ndarrays that, given a
:class:`~repro.nn.tape.Tape`, records a hand-written backward step;
each module call -- or a whole Q-network -- is then one graph node
(:func:`~repro.nn.tape.array_node`) instead of one node per op. Adam
updates all parameters in one pass over flat buffers and refuses
non-finite gradients. Gradients are verified against finite differences
and against the per-op graph in the test suite.
"""

from repro.nn.tensor import Tensor, concat, is_grad_enabled, stack, no_grad
from repro.nn.modules import (
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
    array_activation,
)
from repro.nn.tape import Tape, array_node
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
    "Tape",
    "array_node",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "Sequential",
    "array_activation",
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
