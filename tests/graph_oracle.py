"""The per-op autograd graph: the differential oracle of the library.

The library computes every gradient one way: a module's (or a whole
network's, or a loss's) array forward records hand-written backward
steps, and the computation is one graph node
(:func:`repro.nn.tape.array_node`). This file keeps an independent
way: :class:`OpTensor` is a :class:`Tensor` with an operator per numpy
op (``+``, ``@``, ``[...]``, ``tanh``, ``softmax``, ...), each
recording its own backward, so autograd derives the gradient of a
composition op by op.

On top of it sit per-op forwards of every module, network and loss:

* the fused modules and the attention Q-network: forward values
  bitwise equal, gradients allclose;
* the 1-D convolution, the conv Q-network, the Huber and margin
  losses: forward values *and* gradients bitwise equal,
  because each hand-written backward copies the graph's expression
  order (this is what keeps the seeded training goldens unchanged).

:func:`install` swaps the oracle in for the library's forwards and
losses (``monkeypatch``-scoped), which is how whole training runs are
compared. :class:`ReferenceAdam` is the per-parameter Adam the flat
optimizer must match bit for bit.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

from repro.nn import (
    AttentionBlock,
    LayerNorm,
    Linear,
    MLP,
    Module,
    MultiHeadSelfAttention,
    Tensor,
)
from repro.nn.conv import Conv1d
from repro.nn.modules import _ARRAY_ACTIVATIONS
from repro.rl.features import GLOBAL_FEATURE_DIM
from repro.rl.qnetwork import AttentionQNetwork, ConvQNetwork
from repro.sim.orchestrator import HOST_ACTIONS, PLC_ACTIONS, SERVER_ACTIONS

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum out prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were broadcast from size 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class OpTensor(Tensor):
    """A Tensor with one differentiable method per numpy op.

    Broadcasting is supported in elementwise ops and (batched) matmul;
    gradients are un-broadcast back to the operand shapes.
    """

    __slots__ = ()

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "OpTensor":
        return OpTensor(self.data)

    def __len__(self) -> int:
        return len(self.data)

    @staticmethod
    def _coerce(other) -> Tensor:
        return other if isinstance(other, Tensor) else OpTensor(other)

    @staticmethod
    def _make(data, parents, backward) -> "OpTensor":
        out = Tensor._make(data, parents, backward)
        out.__class__ = OpTensor
        return out

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-op(other))

    def __rsub__(self, other):
        return op(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return op(other) / self

    def __pow__(self, exponent: float):
        data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return (grad * b, grad * a)
            if a.ndim == 1:  # (k,) @ (k, n)
                return (grad @ b.T, np.outer(a, grad))
            if b.ndim == 1:  # (m, k) @ (k,)
                return (np.outer(grad, b), a.T @ grad)
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self):
        mask = self.data > 0
        return self._make(self.data * mask, (self,), lambda g: (g * mask,))

    def leaky_relu(self, alpha: float = 0.01):
        slope = np.where(self.data > 0, 1.0, alpha)
        return self._make(self.data * slope, (self,), lambda g: (g * slope,))

    def tanh(self):
        out = np.tanh(self.data)
        return self._make(out, (self,), lambda g: (g * (1.0 - out ** 2),))

    def sigmoid(self):
        out = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out, (self,), lambda g: (g * out * (1.0 - out),))

    def exp(self):
        out = np.exp(self.data)
        return self._make(out, (self,), lambda g: (g * out,))

    def log(self):
        return self._make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return self._make(out, (self,), lambda g: (g * 0.5 / out,))

    def abs(self):
        sign = np.sign(self.data)
        return self._make(np.abs(self.data), (self,), lambda g: (g * sign,))

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out).sum(axis=axis, keepdims=True)
            return (out * (grad - dot),)

        return self._make(out, (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        denominator = (
            self.data.size if axis is None
            else np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(denominator))

    def max(self, axis: int = -1, keepdims: bool = False):
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = g if keepdims else np.expand_dims(g, axis)
            maxes = self.data.max(axis=axis, keepdims=True)
            mask = self.data == maxes
            # split gradient between ties to keep it a valid subgradient
            mask = mask / mask.sum(axis=axis, keepdims=True)
            return (mask * expanded,)

        return self._make(data, (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)
        return self._make(data, (self,), lambda g: (g.reshape(original),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)
        return self._make(data, (self,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key):
        data = self.data[key]

        def backward(grad):
            out = np.zeros_like(self.data)
            np.add.at(out, key, grad)
            return (out,)

        return self._make(data, (self,), backward)

    def gather_rows(self, indices) -> "OpTensor":
        """Select ``self[i, indices[i]]`` for each row i of a 2-D tensor."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.arange(self.shape[0])
        data = self.data[rows, indices]

        def backward(grad):
            out = np.zeros_like(self.data)
            np.add.at(out, (rows, indices), grad)
            return (out,)

        return self._make(data, (self,), backward)


def op(x) -> OpTensor:
    """``x`` as an :class:`OpTensor`.

    An array-like becomes a constant. A plain Tensor (a library node's
    output, or a leaf input) is re-classed in place, so the graph keeps
    exactly the nodes the library built. A Parameter (whose class must
    stay) is read through an identity node.
    """
    if isinstance(x, OpTensor):
        return x
    if type(x) is Tensor:
        x.__class__ = OpTensor
        return x
    if isinstance(x, Tensor):
        return OpTensor._make(x.data, (x,), lambda g: (g,))
    return OpTensor(x)


def concat(tensors, axis: int = -1) -> OpTensor:
    """Concatenate tensors along an axis (differentiable)."""
    tensors = [op(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return OpTensor._make(data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> OpTensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [op(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return OpTensor._make(data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# modules
# ----------------------------------------------------------------------
def linear(module: Linear, x) -> OpTensor:
    out = op(x) @ module.weight
    if module.bias is not None:
        out = out + module.bias
    return out


_ACTIVATIONS = {
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "identity": lambda x: x,
    None: lambda x: x,
}


def _activation(pair):
    """The OpTensor activation whose array form is ``pair``."""
    name = next(k for k, v in _ARRAY_ACTIVATIONS.items() if v is pair)
    return _ACTIVATIONS[name]


def mlp(module: MLP, x) -> OpTensor:
    x = op(x)
    hidden, final = _activation(module._act), _activation(module._final_act)
    last = len(module.linears) - 1
    for i, layer in enumerate(module.linears):
        x = forward(layer, x)
        x = hidden(x) if i < last else final(x)
    return x


def layer_norm(module: LayerNorm, x) -> OpTensor:
    x = op(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + module.eps).sqrt()
    return normed * module.gamma + module.beta


def self_attention(module: MultiHeadSelfAttention, x) -> OpTensor:
    x = op(x)
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape(1, *x.shape)
    batch, tokens, _ = x.shape
    qkv = linear(module.qkv, x)
    qkv = qkv.reshape(batch, tokens, 3, module.n_heads, module.d_head)
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(module.d_head))
    weights = scores.softmax(axis=-1)
    attended = weights @ v
    merged = attended.transpose(0, 2, 1, 3).reshape(batch, tokens, module.d_model)
    result = linear(module.out, merged)
    if squeeze:
        result = result.reshape(tokens, module.d_model)
    return result


def attention_block(module: AttentionBlock, x) -> OpTensor:
    x = op(x)
    x = x + self_attention(module.attn, layer_norm(module.ln1, x))
    return x + mlp(module.ff, layer_norm(module.ln2, x))


def unfold1d(x, kernel: int, stride: int) -> OpTensor:
    """(B, C, L) -> (B, L_out, C*kernel) sliding windows."""
    x = op(x)
    batch, channels, length = x.shape
    l_out = (length - kernel) // stride + 1
    if l_out <= 0:
        raise ValueError(f"kernel {kernel} too large for length {length}")
    idx = (np.arange(l_out)[:, None] * stride + np.arange(kernel)[None, :])
    windows = x.data[:, :, idx]  # (B, C, L_out, K)
    data = windows.transpose(0, 2, 1, 3).reshape(batch, l_out, channels * kernel)

    def backward(grad):
        g = grad.reshape(batch, l_out, channels, kernel).transpose(0, 2, 1, 3)
        out = np.zeros_like(x.data)
        np.add.at(out, (slice(None), slice(None), idx), g)
        return (out,)

    return OpTensor._make(data, (x,), backward)


def conv1d(module: Conv1d, x) -> OpTensor:
    """(B, C_in, L) -> (B, C_out, L_out)."""
    windows = unfold1d(x, module.kernel, module.stride)  # (B, L_out, C_in*K)
    out = windows @ module.weight + module.bias  # (B, L_out, C_out)
    return out.swapaxes(1, 2)


_MODULES = {
    Linear: linear,
    LayerNorm: layer_norm,
    MultiHeadSelfAttention: self_attention,
    AttentionBlock: attention_block,
    Conv1d: conv1d,
}


def forward(module: Module, x) -> OpTensor:
    """The per-op graph forward of a one-input module."""
    if isinstance(module, MLP):
        return mlp(module, x)
    return _MODULES[type(module)](module, x)


# ----------------------------------------------------------------------
# the attention Q-network
# ----------------------------------------------------------------------
def contextualize(net: AttentionQNetwork, node_feats, plc_feats, glob_feats):
    """Encoders + attention; returns (tokens, glob tensor, batch)."""
    net._check_bound()
    node_feats, plc_feats, glob_feats = (
        op(x) for x in (node_feats, plc_feats, glob_feats))
    batch = node_feats.shape[0]
    node_tokens = mlp(net.node_encoder, node_feats)
    plc_tokens = mlp(net.plc_encoder, plc_feats)
    ones = OpTensor(np.ones((batch, 1, 1)))
    noop_token = ones * op(net.noop_seed).reshape(1, 1, net.config.d_model)
    tokens = concat([node_tokens, plc_tokens, noop_token], axis=1)
    for block in net.blocks:
        tokens = attention_block(block, tokens)
    return tokens, glob_feats, batch


def with_global(ctx: OpTensor, glob_feats: OpTensor, batch: int) -> OpTensor:
    tiles = OpTensor(np.ones((batch, ctx.shape[1], 1)))
    g = tiles * glob_feats.reshape(batch, 1, GLOBAL_FEATURE_DIM)
    return concat([ctx, g], axis=-1)


def split_contexts(net: AttentionQNetwork, tokens: OpTensor):
    """(host, server-or-None, plc, noop) context token groups."""
    n, m = net._n_nodes, net._n_plcs
    host_ctx = tokens[:, net._host_ids, :]
    server_ctx = tokens[:, net._server_ids, :] if len(net._server_ids) else None
    return host_ctx, server_ctx, tokens[:, n:n + m, :], tokens[:, n + m:, :]


def head_outputs(net: AttentionQNetwork, tokens, glob_feats, batch) -> OpTensor:
    """(B, n_actions) head outputs in action-list order."""
    host_ctx, server_ctx, plc_ctx, noop_ctx = split_contexts(net, tokens)
    parts = [mlp(net.noop_head, with_global(noop_ctx, glob_feats, batch))
             .reshape(batch, 1)]
    host_q = mlp(net.host_head, with_global(host_ctx, glob_feats, batch))
    parts.append(host_q.reshape(
        batch, len(net._host_ids) * len(HOST_ACTIONS)))
    if server_ctx is not None:
        server_q = mlp(net.server_head, with_global(server_ctx, glob_feats, batch))
        parts.append(server_q.reshape(
            batch, len(net._server_ids) * len(SERVER_ACTIONS)))
    if net._n_plcs:
        plc_q = mlp(net.plc_head, with_global(plc_ctx, glob_feats, batch))
        parts.append(plc_q.reshape(batch, net._n_plcs * len(PLC_ACTIONS)))
    return concat(parts, axis=1)


def soft_clip(config, q: OpTensor) -> OpTensor:
    """``tanh(q / q_scale) * q_scale`` when ``config.final_tanh``."""
    if not config.final_tanh:
        return q
    return (q * (1.0 / config.q_scale)).tanh() * config.q_scale


def q_forward(net: AttentionQNetwork, node_feats, plc_feats, glob_feats,
              grad: bool = False) -> OpTensor:
    """Per-op Q-values of the attention network. The graph is built
    whatever ``grad`` (the library forward's argument) says."""
    tokens, glob, batch = contextualize(net, node_feats, plc_feats, glob_feats)
    return soft_clip(net.config, head_outputs(net, tokens, glob, batch))


# ----------------------------------------------------------------------
# the Table 7 conv baseline
# ----------------------------------------------------------------------
def conv_q_forward(net: ConvQNetwork, history, grad: bool = False) -> OpTensor:
    """Per-op Q-values of the conv baseline (a graph whatever ``grad``
    says)."""
    x = op(history)
    for conv in net.convs:
        x = conv1d(conv, x).leaky_relu()
    x = x.reshape(x.shape[0], net.flat_dim)
    return soft_clip(net.config, op(net.mlp(x, grad=True)))


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def _weighted_mean(loss: OpTensor, weights) -> OpTensor:
    if weights is None:
        return loss.mean()
    weights = np.asarray(weights, dtype=np.float64)
    return (loss * OpTensor(weights)).sum() * (1.0 / float(weights.size))


def _huber(pred: OpTensor, target, delta: float = 1.0, weights=None) -> OpTensor:
    err = pred - OpTensor(target)
    abs_err = err.abs()
    quadratic = err * err * 0.5
    linear_part = abs_err * delta - 0.5 * delta * delta
    mask = (abs_err.data <= delta).astype(np.float64)
    loss = quadratic * OpTensor(mask) + linear_part * OpTensor(1.0 - mask)
    return _weighted_mean(loss, weights)


def _margin(q: OpTensor, expert_actions, margin: float = 0.05) -> OpTensor:
    expert_actions = np.asarray(expert_actions, dtype=np.int64)
    batch, n_actions = q.shape
    bonus = np.full((batch, n_actions), margin)
    bonus[np.arange(batch), expert_actions] = 0.0
    best = (q + OpTensor(bonus)).max(axis=1)
    expert_q = q.gather_rows(expert_actions)
    return (best - expert_q).mean()


def huber_loss(q, actions, target, delta: float = 1.0, weights=None) -> OpTensor:
    """Huber norm of ``q[i, actions[i]] - target[i]``; ``weights`` are
    importance weights."""
    return _huber(op(q).gather_rows(actions), target, delta, weights)


def margin_loss(q, expert_actions, returns, margin: float = 0.05,
                margin_weight: float = 0.1) -> OpTensor:
    """Huber value regression on the expert actions plus the weighted
    large-margin term, as the demonstration pretraining built it."""
    q = op(q)
    value = _huber(q.gather_rows(expert_actions), returns)
    return value + _margin(q, expert_actions, margin) * margin_weight


def install(monkeypatch, networks: bool = True, losses: bool = True) -> None:
    """Route the library's forwards (``networks``) and training losses
    (``losses``) through the oracle."""
    if networks:
        monkeypatch.setattr(AttentionQNetwork, "forward", q_forward)
        monkeypatch.setattr(ConvQNetwork, "forward", conv_q_forward)
    if losses:
        def module(name):
            return importlib.import_module(f"repro.{name}")

        for name in ("rl.dqn", "validation.fqe"):
            monkeypatch.setattr(module(name), "huber_loss", huber_loss)
        monkeypatch.setattr(module("rl.pretrain"), "margin_loss", margin_loss)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------
class ReferenceAdam:
    """Adam one parameter at a time (the flat optimizer's oracle).

    The clip norm is the 2-norm of all present gradients concatenated,
    as one dot product: a scalar both optimizers define the same way.
    """

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 grad_clip=None):
        self.params = list(params)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.grad_clip = grad_clip
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        grads = [p.grad for p in self.params]
        if self.grad_clip is not None:
            flat = np.concatenate([g.ravel() for g in grads if g is not None])
            norm = math.sqrt(float(flat @ flat))
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
                grads = [None if g is None else g * scale for g in grads]
        for p, m, v, g in zip(self.params, self._m, self._v, grads):
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
