"""Scaled dot-product self-attention (Vaswani et al.), the core of the
paper's node-exchangeable Q-network: every node token attends to every
other, so the parameter count is independent of the network size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.modules import LayerNorm, Linear, MLP, Module
from repro.nn.tensor import Tensor

__all__ = ["MultiHeadSelfAttention", "AttentionBlock"]


class MultiHeadSelfAttention(Module):
    def __init__(self, d_model: int, n_heads: int = 2,
                 rng: np.random.Generator | None = None):
        if d_model % n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.qkv = Linear(d_model, 3 * d_model, rng=rng)
        self.out = Linear(d_model, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """x: (T, D) or (B, T, D) -> same shape."""
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape(1, *x.shape)
        batch, tokens, _ = x.shape
        qkv = self.qkv(x)  # (B, T, 3D)
        qkv = qkv.reshape(batch, tokens, 3, self.n_heads, self.d_head)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.d_head))
        weights = scores.softmax(axis=-1)
        attended = weights @ v  # (B, H, T, dh)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, tokens, self.d_model)
        result = self.out(merged)
        if squeeze:
            result = result.reshape(tokens, self.d_model)
        return result

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain ndarrays (bitwise equal, no graph)."""
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape(1, *x.shape)
        batch, tokens, _ = x.shape
        qkv = self.qkv.forward_array(x)
        qkv = qkv.reshape(batch, tokens, 3, self.n_heads, self.d_head)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.d_head))
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        weights = e / e.sum(axis=-1, keepdims=True)
        attended = weights @ v
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, tokens, self.d_model)
        result = self.out.forward_array(merged)
        if squeeze:
            result = result.reshape(tokens, self.d_model)
        return result


class AttentionBlock(Module):
    """Pre-norm transformer block: attention + feed-forward residuals."""

    def __init__(self, d_model: int, n_heads: int = 2, ff_hidden: int | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        ff_hidden = ff_hidden or 4 * d_model
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadSelfAttention(d_model, n_heads, rng=rng)
        self.ln2 = LayerNorm(d_model)
        self.ff = MLP([d_model, ff_hidden, d_model], rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ff(self.ln2(x))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn.forward_array(self.ln1.forward_array(x))
        return x + self.ff.forward_array(self.ln2.forward_array(x))
