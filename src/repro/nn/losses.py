"""Loss functions: Huber (TD loss norm, eq 5), the DQfD-style
demonstration loss used for pretraining (Huber value regression plus
the large-margin classification term; appendix: target margin
delta = 0.05, margin weighting lambda = 0.1).

Each loss reads its rows out of a network's output and is one graph
node over that output, with a hand-written backward. The backward
follows the expression order of the same loss built op by op (the
differential oracle in the test suite), so the gradient it hands the
network is bitwise equal to that graph's.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["huber_loss", "margin_loss"]


def _mean(values: np.ndarray, weights):
    """``values.mean()`` (``weights``: the importance-weighted mean) and
    its backward, the gradient of each entry of ``values``."""
    if weights is None:
        scale = 1.0 / float(values.size)
        total = values.sum() * scale
        return total, lambda grad: np.broadcast_to(grad * scale, values.shape).copy()
    weights = np.asarray(weights, dtype=np.float64)
    scale = 1.0 / float(weights.size)
    total = (values * weights).sum() * scale
    return total, lambda grad: (
        np.broadcast_to(grad * scale, values.shape).copy() * weights)


def _huber(err: np.ndarray, delta: float):
    """Per-row Huber norm of ``err`` and its backward (row gradients of
    the loss -> gradient of ``err``)."""
    abs_err = np.abs(err)
    mask = (abs_err <= delta).astype(np.float64)
    rest = 1.0 - mask
    loss = err * err * 0.5 * mask + (abs_err * delta - 0.5 * delta * delta) * rest
    sign = np.sign(err)

    def backward(grad):
        # quadratic and linear branches are masked, so at most one of
        # the two terms below is nonzero per row
        square = grad * mask * 0.5 * err
        return square + square + grad * rest * delta * sign

    return loss, backward


def _scatter_rows(shape, rows, columns, grad) -> np.ndarray:
    """Gradient of ``x[rows, columns]`` w.r.t. an ``x`` of ``shape``."""
    out = np.zeros(shape)
    np.add.at(out, (rows, columns), grad)
    return out


def huber_loss(q: Tensor, actions, target, delta: float = 1.0,
               weights=None) -> Tensor:
    """Huber norm of ``q[i, actions[i]] - target[i]``, averaged over the
    batch; ``weights`` are importance weights."""
    rows = np.arange(q.shape[0])
    actions = np.asarray(actions, dtype=np.int64)
    err = q.data[rows, actions] - np.asarray(target, dtype=np.float64)
    loss, huber_backward = _huber(err, delta)
    total, mean_backward = _mean(loss, weights)

    def backward(grad):
        grad_err = huber_backward(mean_backward(grad))
        return (_scatter_rows(q.shape, rows, actions, grad_err),)

    return Tensor._make(total, (q,), backward)


def margin_loss(q: Tensor, expert_actions, returns, margin: float = 0.05,
                margin_weight: float = 0.1) -> Tensor:
    """Demonstration loss: the Huber regression of ``Q(s, a_E)`` on the
    returns ``G(s)`` plus ``margin_weight`` times the large-margin term
    ``max_a[Q(s,a) + m(a, a_E)] - Q(s, a_E)``.

    The margin term is zero when the expert action's value exceeds all
    others by at least ``margin``; it pushes the greedy policy toward
    the demonstrations.
    """
    rows = np.arange(q.shape[0])
    expert_actions = np.asarray(expert_actions, dtype=np.int64)
    expert_q = q.data[rows, expert_actions]
    loss, huber_backward = _huber(
        expert_q - np.asarray(returns, dtype=np.float64), 1.0)
    value, value_backward = _mean(loss, None)
    bonus = np.full(q.shape, margin)
    bonus[rows, expert_actions] = 0.0
    augmented = q.data + bonus
    gap, gap_backward = _mean(augmented.max(axis=1) - expert_q, None)

    def backward(grad):
        grad_value = _scatter_rows(q.shape, rows, expert_actions,
                                   huber_backward(value_backward(grad)))
        grad_gap = gap_backward(grad * margin_weight)
        # the max's subgradient is split evenly between tied actions
        best = augmented == augmented.max(axis=1, keepdims=True)
        best = best / best.sum(axis=1, keepdims=True)
        return (grad_value + best * grad_gap[:, None]
                + _scatter_rows(q.shape, rows, expert_actions, -grad_gap),)

    return Tensor._make(value + gap * margin_weight, (q,), backward)
