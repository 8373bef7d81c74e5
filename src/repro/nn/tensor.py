"""The autograd value: an array, its gradient, and the node that made it.

A :class:`Tensor` wraps an ``ndarray``. A Tensor that requires grad is
either a leaf (a parameter, or an input whose gradient is wanted) or
the output of one graph node: a whole module, network or loss whose
forward recorded a hand-written backward
(:func:`~repro.nn.tape.array_node`, :meth:`Tensor._make`). There are
no per-op nodes: arithmetic happens on the ``data`` arrays. There is no
grad mode either: a node is built only where a caller asks for one,
with a module's ``forward(..., grad=True)``; its default pass returns
a Tensor without a graph, so :meth:`backward` through it raises.
:meth:`Tensor.backward` walks the nodes in reverse topological order,
accumulating gradients into the leaves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        """A graph node over ``parents``: ``backward(grad)`` returns one
        gradient per parent. When no parent requires grad, a plain
        Tensor."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            current, processed = stack.pop()
            if processed:
                topo.append(current)
                continue
            if id(current) in visited or not current.requires_grad:
                continue
            visited.add(id(current))
            stack.append((current, True))
            for parent in current._parents:
                stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if not parent.requires_grad or parent_grad is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + parent_grad
                else:
                    grads[id(parent)] = parent_grad
