"""Recurrent cells for history-dependent Q-networks.

The paper frames network defense as a partially observable problem and
cites deep recurrent Q-learning (Hausknecht and Stone 2015) as the
standard way to learn over observation sequences. The shipped ACSO
sidesteps recurrence with the DBN filter; :class:`GRU` provides the
recurrent alternative used by the DRQN baseline in
:mod:`repro.rl.drqn`, so the two designs can be compared on equal
footing.

Both modules have the array forward of the other modules: given a
:class:`~repro.nn.tape.Tape`, a cell step records its hand-written
backward, and :class:`GRU` replays the steps backward through time.
The backward copies the expression order of the cell built op by op
(the differential oracle in the test suite), including the order in
which the three gradient paths into ``h_{t-1}`` are summed, so its
gradients are bitwise equal to that graph's.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Linear, Module, affine_grads
from repro.nn.tape import array_node, branch

__all__ = ["GRUCell", "GRU"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class GRUCell(Module):
    """Gated recurrent unit (Cho et al. 2014).

    Update equations for input x_t and previous hidden state h_{t-1}:

        z_t = sigmoid(W_z [x_t, h_{t-1}] + b_z)      (update gate)
        r_t = sigmoid(W_r [x_t, h_{t-1}] + b_r)      (reset gate)
        n_t = tanh(W_n [x_t, r_t * h_{t-1}] + b_n)   (candidate)
        h_t = (1 - z_t) * n_t + z_t * h_{t-1}
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        joint = input_dim + hidden_dim
        self.update_gate = Linear(joint, hidden_dim, rng=rng)
        self.reset_gate = Linear(joint, hidden_dim, rng=rng)
        self.candidate = Linear(joint, hidden_dim, rng=rng)
        # bias the update gate towards carrying state so early training
        # does not wash out the history (standard LSTM/GRU trick)
        self.update_gate.bias.data[:] = 1.0

    def forward(self, x, h):
        """(B, input_dim), (B, hidden_dim) -> (B, hidden_dim), one node."""
        return array_node(self.forward_array, (x, h), self)

    def _gate(self, gate: Linear, x: np.ndarray, tape, grad: np.ndarray):
        """Backward of ``gate``'s affine map: parameter gradients into
        ``tape``; returns the input gradient."""
        grad_w, grad_b, grad_x = affine_grads(x, gate.weight.data, grad)
        tape.accumulate(gate.weight, grad_w)
        tape.accumulate(gate.bias, grad_b)
        return grad_x

    def forward_array(self, x: np.ndarray, h: np.ndarray, tape=None) -> np.ndarray:
        """One step. The recorded backward maps the gradient of h_t to
        (gradient of x_t, gradient of h_{t-1})."""
        width = x.shape[-1]
        joint = np.concatenate([x, h], axis=-1)
        z = _sigmoid(self.update_gate.forward_array(joint))
        r = _sigmoid(self.reset_gate.forward_array(joint))
        joint_reset = np.concatenate([x, r * h], axis=-1)
        n = np.tanh(self.candidate.forward_array(joint_reset))
        keep = 1.0 - z
        if tape is not None:

            def backward(grad):
                grad_keep = grad * n
                grad_z = -grad_keep + grad * h
                grad_n = grad * keep * (1.0 - n ** 2)
                grad_joint_reset = self._gate(self.candidate, joint_reset, tape,
                                              grad_n)
                grad_reset = grad_joint_reset[..., width:]
                grad_r = grad_reset * h * r * (1.0 - r)
                grad_joint = (
                    self._gate(self.reset_gate, joint, tape, grad_r)
                    + self._gate(self.update_gate, joint, tape,
                                 grad_z * z * (1.0 - z)))
                grad_x = grad_joint_reset[..., :width] + grad_joint[..., :width]
                grad_h = grad_reset * r + grad * z + grad_joint[..., width:]
                return grad_x, grad_h

            tape.record(backward)
        return keep * n + z * h


class GRU(Module):
    """Runs a :class:`GRUCell` over a (B, T, input_dim) sequence from a
    zero state and returns the final state, which is what a DRQN value
    head consumes."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"GRU expects (B, T, F), got shape {x.shape}")
        batch, steps, _ = x.shape
        cell_tape = branch(tape)
        h = np.zeros((batch, self.hidden_dim))
        for t in range(steps):
            h = self.cell.forward_array(x[:, t, :], h, cell_tape)
        if tape is not None:

            def backward(grad):
                # backward through time; each step's input gradient
                # lands in its own slice
                grad_x = np.zeros_like(x)
                for t in reversed(range(steps)):
                    grad_step, grad = cell_tape.steps[t](grad)
                    grad_x[:, t, :] += grad_step
                return grad_x

            tape.record(backward)
        return h
