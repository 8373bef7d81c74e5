"""Hand-written backward passes recorded by the modules' array forwards.

A module's ``forward_array(x, tape=None)`` is its one numeric forward.
Given a :class:`Tape` it also records a backward *step*: a closure that
maps the gradient of its output to the gradient of its input and adds
its parameters' gradients into the tape. Replaying the steps in reverse
(:meth:`Tape.backward`) is the module's backward pass.

:func:`array_node` turns such a forward into a single :class:`Tensor`
graph node whose parents are the inputs that require grad plus the
parameters, so a whole network costs one node. This is the library's
only way to build a differentiable computation; the losses are single
nodes of the same kind (:meth:`Tensor._make`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = ["Tape", "array_node", "branch"]


class Tape:
    """Backward steps of a chain of array ops, replayed in reverse.

    Branches (:meth:`branch`) share the parameter-gradient table, so a
    composite module can record each sub-chain on its own branch and
    join their gradients in one step of its own.
    """

    __slots__ = ("steps", "grads")

    def __init__(self, grads: dict[int, np.ndarray] | None = None):
        self.steps: list = []
        self.grads: dict[int, np.ndarray] = {} if grads is None else grads

    def record(self, step) -> None:
        """Append ``step(grad_out) -> grad_in``."""
        self.steps.append(step)

    def branch(self) -> "Tape":
        """An empty tape that accumulates into the same gradients."""
        return Tape(self.grads)

    def accumulate(self, param, grad: np.ndarray) -> None:
        """Add ``grad`` to ``param``'s gradient for this backward pass."""
        key = id(param)
        previous = self.grads.get(key)
        self.grads[key] = grad if previous is None else previous + grad

    def backward(self, grad):
        """Replay the steps in reverse; returns the input gradient."""
        for step in reversed(self.steps):
            grad = step(grad)
        return grad


def branch(tape: Tape | None) -> Tape | None:
    """``tape.branch()``, or None when no tape is being recorded."""
    return None if tape is None else tape.branch()


def array_node(forward, inputs, module) -> Tensor:
    """``forward(*arrays, tape=...)`` as one differentiable graph node.

    ``inputs`` are Tensors or array-likes; ``module`` owns the
    parameters ``forward`` reads. With one input the tape's backward
    returns that input's gradient; with several it returns a tuple of
    them, in order. Under :func:`~repro.nn.no_grad` no tape is recorded
    and the result is a plain Tensor.
    """
    arrays = [x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
              for x in inputs]
    if not is_grad_enabled():
        return Tensor(forward(*arrays))
    tape = Tape()
    data = forward(*arrays, tape=tape)
    wanted = [isinstance(x, Tensor) and x.requires_grad for x in inputs]
    params = module.parameters()

    def backward(grad):
        tape.grads.clear()
        input_grads = tape.backward(grad)
        if len(inputs) == 1:
            input_grads = (input_grads,)
        own = [g for g, want in zip(input_grads, wanted) if want]
        get = tape.grads.get
        return (*own, *(get(id(p)) for p in params))

    parents = [x for x, want in zip(inputs, wanted) if want] + params
    return Tensor._make(data, parents, backward)
