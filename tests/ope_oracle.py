"""Per-row target-policy scoring: the differential oracle of OPE.

The library scores a logged batch of states as whole ``(B, A)`` blocks:
:meth:`~repro.validation.logging.StochasticQPolicy.action_probs_batch`
runs one masked softmax (or greedy one-hot) and one epsilon mix over
the block, and FQE / DR weight Q by the target distribution with one
batched row-dot (:func:`repro.validation.fqe.row_dot`). This file keeps
the way it was computed before, one state at a time in Python, as the
reference the block code must match bit for bit.

:func:`install` swaps the oracle in (``monkeypatch``-scoped), which is
how whole estimators are compared.
"""

from __future__ import annotations

import numpy as np

from repro.validation import fqe
from repro.validation.logging import StochasticQPolicy, q_batch


def probs_from_q(q: np.ndarray, mask: np.ndarray, temperature: float | None,
                 epsilon: float) -> np.ndarray:
    """One state's distribution from its Q row and valid-action mask."""
    valid = np.asarray(mask, dtype=bool)
    probs = np.zeros(len(q))
    if temperature is None:
        best = int(np.argmax(np.where(valid, q, -np.inf)))
        probs[best] = 1.0
    else:
        logits = np.where(valid, q / temperature, -np.inf)
        logits -= logits.max()
        exp = np.where(valid, np.exp(logits), 0.0)
        probs = exp / exp.sum()
    if epsilon > 0:
        uniform = valid / valid.sum()
        probs = (1.0 - epsilon) * probs + epsilon * uniform
    return probs


def action_probs_batch(policy: StochasticQPolicy, features,
                       masks: np.ndarray) -> np.ndarray:
    """``policy``'s ``(B, A)`` distributions, one row at a time."""
    if len(masks) == 0:
        return np.zeros(np.shape(masks))
    q = q_batch(policy.qnet, features)
    return np.stack([probs_from_q(q[i], mask, policy.temperature,
                                  policy.epsilon)
                     for i, mask in enumerate(masks)])


def row_dot(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``float(probs[i] @ q[i])`` for every row, one row at a time."""
    values = np.empty(len(probs))
    for i in range(len(probs)):
        values[i] = float(probs[i] @ q[i])
    return values


def install(monkeypatch) -> None:
    """Route target-policy scoring and the policy-weighted values of
    FQE and DR through the per-row oracle."""
    monkeypatch.setattr(StochasticQPolicy, "action_probs_batch",
                        action_probs_batch)
    monkeypatch.setattr(fqe, "row_dot", row_dot)
