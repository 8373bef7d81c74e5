"""A small numpy-based neural-network library with reverse-mode autodiff.

This substrate replaces PyTorch (unavailable in the reproduction
environment). It provides exactly what the paper's models need:
linear/MLP blocks, layer normalization, multi-head self-attention,
temporal 1-D convolution, Adam, and the Huber and large-margin losses.

There is one way to compute a gradient. Every module has one numeric
forward on ndarrays that, given a :class:`~repro.nn.tape.Tape`,
records a hand-written backward step. The caller picks the pass with
one argument, not a grad mode: a module's ``forward(..., grad=False)``,
the default, runs without a tape and returns a Tensor without a graph
(inference); with ``grad=True`` a module call or a whole Q-network is
one graph node (:func:`~repro.nn.tape.array_node`), as is a loss over
it, and :meth:`Tensor.backward` runs the nodes (training). Adam updates
all parameters in one pass over flat buffers and refuses non-finite
gradients. Gradients are verified against finite differences and
against a per-op autograd graph kept in the test suite as the
differential oracle.
"""

from repro.nn.tensor import Tensor
from repro.nn.modules import (
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    array_activation,
)
from repro.nn.tape import Tape, array_node
from repro.nn.attention import AttentionBlock, MultiHeadSelfAttention
from repro.nn.conv import Conv1d
from repro.nn.optim import Adam
from repro.nn.losses import huber_loss, margin_loss
from repro.nn.serialization import load_state, save_state

__all__ = [
    "Tensor",
    "Tape",
    "array_node",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "array_activation",
    "MultiHeadSelfAttention",
    "AttentionBlock",
    "Conv1d",
    "Adam",
    "huber_loss",
    "margin_loss",
    "save_state",
    "load_state",
]
