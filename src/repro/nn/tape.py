"""Hand-written backward passes recorded by the modules' array forwards.

A module's ``forward_array(x, tape=None)`` is its one numeric forward.
Given a :class:`Tape` it also records a backward *step*: a closure that
maps the gradient of its output to the gradient of its input and adds
its parameters' gradients into the tape's :class:`Gradients` table.
Replaying the steps in reverse (:meth:`Tape.backward`) is the module's
backward pass.

A step captures the gradient table, never the tape it is recorded on,
and :meth:`Tape.backward` drops each step once it has replayed it. A
taped graph therefore holds no reference cycle: a finished training
step, or a taped forward that is thrown away, is freed by reference
counting alone, without the cyclic garbage collector. A second
backward through the same tape raises :class:`RuntimeError`.

A tape made with ``input_grad=False`` has an input whose gradient
nobody reads: its first recorded step (the one that receives the
tape's input) may skip the input gradient and return ``None``
(:meth:`Tape.wants_input_grad`). Parameter gradients are unchanged.

:func:`array_node` turns such a forward into a single :class:`Tensor`
graph node whose parents are the inputs that require grad plus the
parameters, so a whole network costs one node. This is the library's
only way to build a differentiable computation; the losses are single
nodes of the same kind (:meth:`Tensor._make`). A module's
``forward(x, grad=True)`` calls it; its default ``grad=False`` pass
runs the forward without a tape instead and records nothing.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Gradients", "Tape", "array_node", "as_array", "branch"]


class Gradients(dict):
    """Parameter gradients of one backward pass, keyed by ``id(param)``;
    the table every step of a tape and its branches adds into."""

    __slots__ = ()

    def add(self, param, grad: np.ndarray) -> None:
        """Add ``grad`` to ``param``'s gradient for this backward pass."""
        key = id(param)
        previous = self.get(key)
        self[key] = grad if previous is None else previous + grad


class Tape:
    """Backward steps of a chain of array ops, replayed in reverse.

    Branches (:meth:`branch`) share the gradient table, so a composite
    module can record each sub-chain on its own branch and join their
    gradients in one step of its own.
    """

    __slots__ = ("steps", "grads", "input_grad")

    def __init__(self, grads: Gradients | None = None,
                 input_grad: bool = True):
        self.steps: list | None = []
        self.grads = Gradients() if grads is None else grads
        #: False when no reader wants the gradient of the tape's input
        self.input_grad = input_grad

    def record(self, step) -> None:
        """Append ``step(grad_out) -> grad_in``."""
        self.steps.append(step)

    def branch(self, input_grad: bool = True) -> "Tape":
        """An empty tape that accumulates into the same gradients."""
        return Tape(self.grads, input_grad)

    def wants_input_grad(self) -> bool:
        """Whether the step recorded next must return its input
        gradient: always, unless it would be the first step on a tape
        whose input gradient nobody reads."""
        return self.input_grad or bool(self.steps)

    def release(self) -> list:
        """The recorded steps, handed over once: the tape keeps none and
        a later :meth:`backward` or :meth:`release` raises."""
        steps = self.steps
        if steps is None:
            raise RuntimeError(
                "backward through a graph that was already freed: a tape "
                "replays once")
        self.steps = None
        return steps

    def backward(self, grad):
        """Replay the steps in reverse, dropping each one once it has
        run; returns the input gradient."""
        steps = self.release()
        while steps:
            grad = steps.pop()(grad)
        return grad


def branch(tape: Tape | None, input_grad: bool = True) -> Tape | None:
    """``tape.branch(input_grad)``, or None when no tape is being
    recorded."""
    return None if tape is None else tape.branch(input_grad)


def as_array(x) -> np.ndarray:
    """The float64 array of a Tensor or array-like input."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def array_node(forward, inputs, module) -> Tensor:
    """``forward(*arrays, tape=...)`` as one differentiable graph node.

    ``inputs`` are Tensors or array-likes; ``module`` owns the
    parameters ``forward`` reads. With one input the tape's backward
    returns that input's gradient; with several it returns a tuple of
    them, in order (``None`` for an input whose gradient was skipped).
    When no input requires grad the tape is made with
    ``input_grad=False``.
    """
    arrays = [as_array(x) for x in inputs]
    wanted = [isinstance(x, Tensor) and x.requires_grad for x in inputs]
    tape = Tape(input_grad=any(wanted))
    data = forward(*arrays, tape=tape)
    params = module.parameters()

    def backward(grad):
        input_grads = tape.backward(grad)
        if len(inputs) == 1:
            input_grads = (input_grads,)
        own = [g for g, want in zip(input_grads, wanted) if want]
        get = tape.grads.get
        return (*own, *(get(id(p)) for p in params))

    parents = [x for x, want in zip(inputs, wanted) if want] + params
    return Tensor._make(data, parents, backward)
