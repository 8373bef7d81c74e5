"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations that
produced it; :meth:`Tensor.backward` walks the graph in reverse
topological order accumulating gradients. Broadcasting is supported in
elementwise ops and (batched) matmul; gradients are un-broadcast back
to the operand shapes.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "concat", "stack", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / target computations)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """False inside :func:`no_grad` (inference-only fast paths key on it)."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum out prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were broadcast from size 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return (grad * b, grad * a)
            if a.ndim == 1:  # (k,) @ (k, n)
                return (grad @ b.T, np.outer(a, grad))
            if b.ndim == 1:  # (m, k) @ (k,)
                return (np.outer(grad, b), a.T @ grad)
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self):
        mask = self.data > 0
        return self._make(self.data * mask, (self,), lambda g: (g * mask,))

    def leaky_relu(self, alpha: float = 0.01):
        slope = np.where(self.data > 0, 1.0, alpha)
        return self._make(self.data * slope, (self,), lambda g: (g * slope,))

    def tanh(self):
        out = np.tanh(self.data)
        return self._make(out, (self,), lambda g: (g * (1.0 - out ** 2),))

    def sigmoid(self):
        out = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out, (self,), lambda g: (g * out * (1.0 - out),))

    def exp(self):
        out = np.exp(self.data)
        return self._make(out, (self,), lambda g: (g * out,))

    def log(self):
        return self._make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return self._make(out, (self,), lambda g: (g * 0.5 / out,))

    def abs(self):
        sign = np.sign(self.data)
        return self._make(np.abs(self.data), (self,), lambda g: (g * sign,))

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out).sum(axis=axis, keepdims=True)
            return (out * (grad - dot),)

        return self._make(out, (self,), backward)

    def log_softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        probs = np.exp(out)

        def backward(grad):
            total = grad.sum(axis=axis, keepdims=True)
            return (grad - probs * total,)

        return self._make(out, (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        denominator = (
            self.data.size if axis is None
            else np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(denominator))

    def max(self, axis: int = -1, keepdims: bool = False):
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = g if keepdims else np.expand_dims(g, axis)
            maxes = self.data.max(axis=axis, keepdims=True)
            mask = self.data == maxes
            # split gradient between ties to keep it a valid subgradient
            mask = mask / mask.sum(axis=axis, keepdims=True)
            return (mask * expanded,)

        return self._make(data, (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)
        return self._make(data, (self,), lambda g: (g.reshape(original),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)
        return self._make(data, (self,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key):
        data = self.data[key]

        def backward(grad):
            out = np.zeros_like(self.data)
            np.add.at(out, key, grad)
            return (out,)

        return self._make(data, (self,), backward)

    def gather_rows(self, indices) -> "Tensor":
        """Select ``self[i, indices[i]]`` for each row i of a 2-D tensor."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.arange(self.shape[0])
        data = self.data[rows, indices]

        def backward(grad):
            out = np.zeros_like(self.data)
            np.add.at(out, (rows, indices), grad)
            return (out,)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # autodiff driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: Tensor) -> None:
            stack = [(node, False)]
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

        visit(self)
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


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis (differentiable)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(data, tuple(tensors), backward)
