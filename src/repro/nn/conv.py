"""Temporal 1-D convolution for the paper's baseline network (Table 7).

Implemented as an unfold (sliding windows, with a scatter-add
backward) followed by a batched matmul. The backward copies the
expression order of the same computation built op by op (unfold,
``windows @ W + b``, swap of the channel and time axes), so its
gradients are bitwise equal to that graph's.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.modules import Module, Parameter

__all__ = ["Conv1d"]


class Conv1d(Module):
    """y[b, :, t] = W @ window(x, t) + b, striding in the time axis."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel
        bound = math.sqrt(6.0 / fan_in)
        self.weight = Parameter(rng.uniform(-bound, bound, (fan_in, out_channels)))
        self.bias = Parameter(np.zeros(out_channels))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        """(B, C_in, L) -> (B, C_out, L_out)."""
        batch, channels, length = x.shape
        kernel = self.kernel
        l_out = (length - kernel) // self.stride + 1
        if l_out <= 0:
            raise ValueError(f"kernel {kernel} too large for length {length}")
        idx = np.arange(l_out)[:, None] * self.stride + np.arange(kernel)[None, :]
        # (B, C, L_out, K) windows -> (B, L_out, C*K)
        windows = x[:, :, idx].transpose(0, 2, 1, 3).reshape(
            batch, l_out, channels * kernel)
        weight = self.weight.data
        out = windows @ weight + self.bias.data  # (B, L_out, C_out)
        if tape is not None:

            def backward(grad):
                grad = grad.transpose(0, 2, 1)
                tape.accumulate(self.bias, grad.sum(axis=(0, 1)))
                tape.accumulate(self.weight,
                                (np.swapaxes(windows, -1, -2) @ grad).sum(axis=0))
                grad_windows = (grad @ weight.T).reshape(
                    batch, l_out, channels, kernel).transpose(0, 2, 1, 3)
                grad_x = np.zeros_like(x)
                np.add.at(grad_x, (slice(None), slice(None), idx), grad_windows)
                return grad_x

            tape.record(backward)
        return out.transpose(0, 2, 1)
