"""Gradient-based optimizers. The paper trains with Adam at lr 1e-4."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam with optional global-norm gradient clipping.

    The elementwise update runs once over flat buffers: the gradients
    and parameters that have a gradient this step are concatenated, the
    moments live in one flat array each, and each parameter's ``data``
    becomes a view of the updated buffer. The arithmetic per element is
    the per-parameter update's, so the result is bitwise equal to it.
    Parameters are read from ``p.data`` every step, so replacing them
    (:meth:`~repro.nn.Module.load_state_dict`, ``copy.deepcopy``) is
    safe. A parameter without a gradient is skipped and its moments do
    not decay. The clip norm is the 2-norm of all present gradients.

    A non-finite gradient raises :class:`FloatingPointError` naming the
    parameter, before the step counter, moments or any parameter change.
    ``params`` are Parameters or ``(name, Parameter)`` pairs (as from
    :meth:`Module.named_parameters`); names appear in error messages.
    """

    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, grad_clip: float | None = None):
        items = list(params)
        if not items:
            raise ValueError("optimizer received no parameters")
        if isinstance(items[0], tuple):
            self.names = [name for name, _ in items]
            self.params = [p for _, p in items]
        else:
            self.names = [f"parameter {i}" for i in range(len(items))]
            self.params = items
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.grad_clip = grad_clip
        self.t = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _check_finite(self, present: list[int]) -> None:
        for i in present:
            if not np.isfinite(self.params[i].grad).all():
                raise FloatingPointError(
                    f"non-finite gradient for {self.names[i]} (shape "
                    f"{self.params[i].data.shape}); no parameter was updated"
                )

    def step(self) -> None:
        params = self.params
        present = [i for i, p in enumerate(params) if p.grad is not None]
        if not present:
            self.t += 1
            return
        g = np.concatenate([params[i].grad.ravel() for i in present])
        if not np.isfinite(g).all():
            self._check_finite(present)
        if self.grad_clip is not None:
            norm = math.sqrt(float(g @ g))
            if norm > self.grad_clip:
                g = g * (self.grad_clip / norm)
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        bounds = self._bounds
        if len(present) == len(params):
            index = None
            m, v = self._m, self._v
        else:
            index = np.concatenate([np.arange(bounds[i], bounds[i + 1])
                                    for i in present])
            m, v = self._m[index], self._v[index]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        if index is not None:
            self._m[index] = m
            self._v[index] = v
        m_hat = m / bias1
        v_hat = v / bias2
        data = np.concatenate([params[i].data.ravel() for i in present])
        data = data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        start = 0
        for i in present:
            p = params[i]
            stop = start + p.data.size
            p.data = data[start:stop].reshape(p.data.shape)
            start = stop
