"""Per-op autograd forwards of the fused modules: the differential oracle.

The library runs each module (and the whole attention Q-network) as one
graph node whose backward is hand-written. The functions here are the
same computations built op by op from :class:`Tensor` primitives, so
autograd derives their gradients independently. Forward values must be
bitwise equal to the fused path; gradients allclose.

:func:`install` swaps the oracle in for the library's graph forwards
(``monkeypatch``-scoped), which is how whole training runs are compared.
:class:`ReferenceAdam` is the per-parameter Adam the flat optimizer must
match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import (
    AttentionBlock,
    LayerNorm,
    Linear,
    MLP,
    Module,
    MultiHeadSelfAttention,
    NoisyLinear,
    Tensor,
    concat,
)
from repro.nn.modules import _ARRAY_ACTIVATIONS
from repro.rl.distributional import DistributionalAttentionQNetwork
from repro.rl.dueling import DuelingAttentionQNetwork
from repro.rl.features import GLOBAL_FEATURE_DIM
from repro.rl.qnetwork import AttentionQNetwork
from repro.sim.orchestrator import HOST_ACTIONS, PLC_ACTIONS, SERVER_ACTIONS


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# modules
# ----------------------------------------------------------------------
def linear(module: Linear, x) -> Tensor:
    out = _tensor(x) @ module.weight
    if module.bias is not None:
        out = out + module.bias
    return out


def noisy_linear(module: NoisyLinear, x) -> Tensor:
    x = _tensor(x)
    if module.noise_enabled:
        weight = module.weight_mu + module.weight_sigma * Tensor(module._eps_w)
        bias = module.bias_mu + module.bias_sigma * Tensor(module._eps_b)
    else:
        weight, bias = module.weight_mu, module.bias_mu
    return x @ weight + bias


_ACTIVATIONS = {
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "identity": lambda x: x,
    None: lambda x: x,
}


def _activation(pair):
    """The Tensor activation whose array form is ``pair``."""
    name = next(k for k, v in _ARRAY_ACTIVATIONS.items() if v is pair)
    return _ACTIVATIONS[name]


def mlp(module: MLP, x) -> Tensor:
    x = _tensor(x)
    hidden, final = _activation(module._act), _activation(module._final_act)
    last = len(module.linears) - 1
    for i, layer in enumerate(module.linears):
        x = forward(layer, x)
        x = hidden(x) if i < last else final(x)
    return x


def layer_norm(module: LayerNorm, x) -> Tensor:
    x = _tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + module.eps).sqrt()
    return normed * module.gamma + module.beta


def self_attention(module: MultiHeadSelfAttention, x) -> Tensor:
    x = _tensor(x)
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


def attention_block(module: AttentionBlock, x) -> Tensor:
    x = _tensor(x)
    x = x + self_attention(module.attn, layer_norm(module.ln1, x))
    return x + mlp(module.ff, layer_norm(module.ln2, x))


_MODULES = {
    Linear: linear,
    NoisyLinear: noisy_linear,
    LayerNorm: layer_norm,
    MultiHeadSelfAttention: self_attention,
    AttentionBlock: attention_block,
}


def forward(module: Module, x) -> Tensor:
    """The per-op graph forward of a fused module."""
    if isinstance(module, MLP):
        return mlp(module, x)
    return _MODULES[type(module)](module, x)


# ----------------------------------------------------------------------
# the attention Q-network and its dueling / C51 variants
# ----------------------------------------------------------------------
def contextualize(net: AttentionQNetwork, node_feats, plc_feats, glob_feats):
    """Encoders + attention; returns (tokens, glob tensor, batch)."""
    net._check_bound()
    node_feats, plc_feats, glob_feats = (
        _tensor(x) for x in (node_feats, plc_feats, glob_feats))
    batch = node_feats.shape[0]
    node_tokens = mlp(net.node_encoder, node_feats)
    plc_tokens = mlp(net.plc_encoder, plc_feats)
    ones = Tensor(np.ones((batch, 1, 1)))
    noop_token = ones * net.noop_seed.reshape(1, 1, net.config.d_model)
    tokens = concat([node_tokens, plc_tokens, noop_token], axis=1)
    for block in net.blocks:
        tokens = attention_block(block, tokens)
    return tokens, glob_feats, batch


def with_global(ctx: Tensor, glob_feats: Tensor, batch: int) -> Tensor:
    tiles = Tensor(np.ones((batch, ctx.shape[1], 1)))
    g = tiles * glob_feats.reshape(batch, 1, GLOBAL_FEATURE_DIM)
    return concat([ctx, g], axis=-1)


def split_contexts(net: AttentionQNetwork, tokens: Tensor):
    """(host, server-or-None, plc, noop) context token groups."""
    n, m = net._n_nodes, net._n_plcs
    host_ctx = tokens[:, net._host_ids, :]
    server_ctx = tokens[:, net._server_ids, :] if len(net._server_ids) else None
    return host_ctx, server_ctx, tokens[:, n:n + m, :], tokens[:, n + m:, :]


def head_outputs(net: AttentionQNetwork, tokens, glob_feats, batch,
                 per_action: int = 1) -> Tensor:
    """(B, n_actions * per_action) head outputs in action-list order."""
    host_ctx, server_ctx, plc_ctx, noop_ctx = split_contexts(net, tokens)
    parts = [mlp(net.noop_head, with_global(noop_ctx, glob_feats, batch))
             .reshape(batch, per_action)]
    host_q = mlp(net.host_head, with_global(host_ctx, glob_feats, batch))
    parts.append(host_q.reshape(
        batch, len(net._host_ids) * len(HOST_ACTIONS) * per_action))
    if server_ctx is not None:
        server_q = mlp(net.server_head, with_global(server_ctx, glob_feats, batch))
        parts.append(server_q.reshape(
            batch, len(net._server_ids) * len(SERVER_ACTIONS) * per_action))
    if net._n_plcs:
        plc_q = mlp(net.plc_head, with_global(plc_ctx, glob_feats, batch))
        parts.append(plc_q.reshape(
            batch, net._n_plcs * len(PLC_ACTIONS) * per_action))
    return concat(parts, axis=1)


def soft_clip(net: AttentionQNetwork, q: Tensor) -> Tensor:
    cfg = net.config
    if not cfg.final_tanh:
        return q
    return (q * (1.0 / cfg.q_scale)).tanh() * cfg.q_scale


def q_forward(net: AttentionQNetwork, node_feats, plc_feats, glob_feats) -> Tensor:
    """Per-op Q-values of a plain, dueling or C51 attention network."""
    if isinstance(net, DistributionalAttentionQNetwork):
        log_p = log_probs(net, node_feats, plc_feats, glob_feats)
        support = Tensor(net.c51.support.reshape(1, 1, net.c51.n_atoms))
        return (log_p.exp() * support).sum(axis=-1)
    tokens, glob, batch = contextualize(net, node_feats, plc_feats, glob_feats)
    q = head_outputs(net, tokens, glob, batch)
    if isinstance(net, DuelingAttentionQNetwork):
        noop_ctx = split_contexts(net, tokens)[3]
        value = mlp(net.value_head, with_global(noop_ctx, glob, batch))
        centered = q - q.mean(axis=1, keepdims=True)
        q = value.reshape(batch, 1) + centered
    return soft_clip(net, q)


def log_probs(net: DistributionalAttentionQNetwork, node_feats, plc_feats,
              glob_feats) -> Tensor:
    tokens, glob, batch = contextualize(net, node_feats, plc_feats, glob_feats)
    flat = head_outputs(net, tokens, glob, batch, per_action=net.c51.n_atoms)
    logits = flat.reshape(batch, net.n_actions, net.c51.n_atoms)
    return logits.log_softmax(axis=-1)


def install(monkeypatch) -> None:
    """Route the attention networks' forwards through the oracle."""
    monkeypatch.setattr(AttentionQNetwork, "forward", q_forward)
    monkeypatch.setattr(DistributionalAttentionQNetwork, "forward", q_forward)
    monkeypatch.setattr(DistributionalAttentionQNetwork, "log_probs", log_probs)


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
