"""Scaled dot-product self-attention (Vaswani et al.), the core of the
paper's node-exchangeable Q-network: every node token attends to every
other, so the parameter count is independent of the network size.

These modules' ``forward_array`` is the taped forward of the Q-network's
``forward(..., grad=True)`` (training). Its default ``grad=False``
pass, the inference program, runs the same arithmetic straight
over their parameter arrays (``repro.rl.qnetwork._attention_rows``),
including the one-state path whose queries run on distinct token rows;
the test suite holds the two bitwise equal.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.modules import LayerNorm, Linear, MLP, Module
from repro.nn.tape import branch

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

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        """x: (T, D) or (B, T, D) -> same shape."""
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape(1, *x.shape)
            if tape is not None:
                tape.record(lambda grad: grad.reshape(grad.shape[1:]))
        batch, tokens, _ = x.shape
        heads, d_head = self.n_heads, self.d_head
        projected = self.qkv.forward_array(x, tape)
        qkv = projected.reshape(batch, tokens, 3, heads, d_head)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / math.sqrt(d_head)
        # softmax(q k^T * scale) on the one score buffer
        weights = q @ k.swapaxes(-1, -2)
        weights *= scale
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        attended = weights @ v  # (B, H, T, dh)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, tokens, self.d_model)
        if tape is not None:

            def backward(grad):
                # (B, T, D) -> per-head (B, H, T, dh), then back through
                # weights @ v, the softmax and the scaled q @ k^T
                grad = grad.reshape(batch, tokens, heads, d_head)
                grad = grad.transpose(0, 2, 1, 3)
                # the weights' gradient grad_w, then in place the
                # scores' gradient weights * (grad_w - dot) * scale
                grad_s = grad @ v.swapaxes(-1, -2)
                dot = (grad_s * weights).sum(axis=-1, keepdims=True)
                grad_s -= dot
                grad_s *= weights
                grad_s *= scale
                out = np.empty((batch, tokens, 3, heads, d_head))
                out[:, :, 0] = (grad_s @ k).transpose(0, 2, 1, 3)
                out[:, :, 1] = (grad_s.swapaxes(-1, -2) @ q).transpose(0, 2, 1, 3)
                out[:, :, 2] = (weights.swapaxes(-1, -2) @ grad).transpose(0, 2, 1, 3)
                return out.reshape(batch, tokens, 3 * self.d_model)

            tape.record(backward)
        result = self.out.forward_array(merged, tape)
        if squeeze:
            result = result.reshape(tokens, self.d_model)
            if tape is not None:
                tape.record(lambda grad: grad.reshape(1, tokens, self.d_model))
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

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        """x: (B, T, D) -> same shape."""
        attn, ff = branch(tape), branch(tape)
        x = x + self.attn.forward_array(self.ln1.forward_array(x, attn), attn)
        out = x + self.ff.forward_array(self.ln2.forward_array(x, ff), ff)
        if tape is not None:

            def backward(grad):
                grad = grad + ff.backward(grad)
                return grad + attn.backward(grad)

            tape.record(backward)
        return out
