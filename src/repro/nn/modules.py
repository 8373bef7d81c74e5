"""Neural-network building blocks on top of the autograd Tensor.

Each module has one numeric forward, ``forward_array(x, tape=None)``,
on plain ndarrays. Given a :class:`~repro.nn.tape.Tape` it also records
a hand-written backward step (input gradient out, parameter gradients
into the tape). :meth:`Module.forward` runs it without a tape, or with
``grad=True`` wraps it as a single graph node
(:func:`~repro.nn.tape.array_node`); a network composes its modules'
array forwards on one tape and is one node too.

The array ops reproduce the per-op graph of the same computation (the
differential oracle in the test suite) in the same order (``mean`` is
``sum * (1/n)``), so values are bitwise equal to it. Where an op
departs, the replacement is exact in IEEE arithmetic: ``a - b`` for
``a + (-b)``, ``maximum(x, alpha * x)`` for leaky ReLU's ``x *
where(x > 0, 1, alpha)`` (0 < alpha < 1), and a filled buffer for a
concatenation of products with ones. Gradients are checked against
finite differences and against the per-op graph in the test suite.

Forwards and backward steps write in place where that keeps every value
bit for bit: ``out += bias`` for ``out + bias`` (IEEE ``+`` and ``*``
commute), a softmax on its one score buffer. Sums and matmuls are never
reordered. Only an array created in the same call may be overwritten:
inputs, incoming gradients, parameters and anything a backward step
saved stay as they are. The one exception is an activation, which may
overwrite its argument, so callers pass it a fresh pre-activation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.nn.tape import array_node, as_array
from repro.nn.tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "MLP",
    "LayerNorm",
    "array_activation",
    "affine_grads",
]


class Parameter(Tensor):
    """A tensor that is optimized and serialized."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class _ParameterCache:
    """A module's parameters in ``named_parameters`` order. Not a list,
    tuple or dict, so the parameter walk does not count them twice; a
    ``copy.deepcopy`` of the module maps them to the copy's own
    Parameters through its memo. Two threads filling it at once store
    the same Parameters."""

    __slots__ = ("params",)

    def __init__(self, params: tuple):
        self.params = params


class Module:
    """Base class with recursive parameter discovery and state dicts."""

    def __setattr__(self, name, value):
        if isinstance(value, (Module, Parameter, list, tuple, dict)):
            # the attribute may add or replace parameters
            vars(self).pop("_parameter_cache", None)
        object.__setattr__(self, name, value)

    def forward(self, x, grad: bool = False) -> Tensor:
        """A one-input module's ``forward_array`` on ``x``: without a
        tape, as a Tensor without a graph; with ``grad``, as one graph
        node whose backward replays the recorded steps."""
        if grad:
            return array_node(self.forward_array, (x,), self)
        return Tensor(self.forward_array(as_array(x)))

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out: list[tuple[str, Parameter]] = []
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(f"{full}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{i}."))
                    elif isinstance(item, Parameter):
                        out.append((f"{full}.{i}", item))
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{key}."))
                    elif isinstance(item, Parameter):
                        out.append((f"{full}.{key}", item))
        return out

    def parameters(self) -> list[Parameter]:
        """The parameters in ``named_parameters`` order, walked once per
        module (every graph forward asks for them)."""
        cache = vars(self).get("_parameter_cache")
        if cache is None:
            cache = _ParameterCache(tuple(p for _, p in self.named_parameters()))
            self._parameter_cache = cache
        return list(cache.params)

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            p.data = np.array(state[name], dtype=np.float64)

    def copy_from(self, other: "Module") -> None:
        """Hard-copy parameters (target-network sync)."""
        self.load_state_dict(other.state_dict())


#: activations by name, bitwise equal to the per-op graph's activations
#: of the same name, as ``(forward(x), backward(x, out, grad_out) ->
#: grad_in)``; the identity has no backward step. A forward may
#: overwrite ``x`` (leaky ReLU does: its output is positive exactly
#: where ``x`` is, so the backward's mask reads the same on either)
_ARRAY_ACTIVATIONS = {
    "relu": (lambda x: x * (x > 0), lambda x, out, grad: grad * (x > 0)),
    "leaky_relu": (lambda x: np.maximum(x, x * 0.01, out=x),
                   lambda x, out, grad: np.where(x > 0, grad, grad * 0.01)),
    "tanh": (np.tanh, lambda x, out, grad: grad * (1.0 - out * out)),
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)),
                lambda x, out, grad: grad * out * (1.0 - out)),
    "identity": (lambda x: x, None),
    None: (lambda x: x, None),
}


def array_activation(name):
    """The ``(forward, backward)`` pair of activation ``name``
    (backward None for the identity)."""
    try:
        return _ARRAY_ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def _sum_leading(grad: np.ndarray, width: int) -> np.ndarray:
    """Sum ``grad`` over every axis but the last."""
    return grad.reshape(-1, width).sum(axis=0)


def affine_grads(x: np.ndarray, weight: np.ndarray, grad: np.ndarray,
                 want_x: bool = True):
    """Gradients of ``x @ weight + bias`` w.r.t. weight, bias and x (the
    last None unless ``want_x``)."""
    in_features, out_features = weight.shape
    flat = grad.reshape(-1, out_features)
    return (x.reshape(-1, in_features).T @ flat, flat.sum(axis=0),
            grad @ weight.T if want_x else None)


class Linear(Module):
    """Affine map y = x W + b with Kaiming-uniform initialization."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, bias: bool = True):
        rng = rng or np.random.default_rng(0)
        bound = math.sqrt(6.0 / in_features)
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        weight = self.weight.data
        out = x @ weight
        if self.bias is not None:
            out += self.bias.data
        if tape is not None:
            grads, want_x = tape.grads, tape.wants_input_grad()

            def backward(grad):
                grad_w, grad_b, grad_x = affine_grads(x, weight, grad, want_x)
                grads.add(self.weight, grad_w)
                if self.bias is not None:
                    grads.add(self.bias, grad_b)
                return grad_x

            tape.record(backward)
        return out


class MLP(Module):
    """Feed-forward stack; ``dims`` includes input and output sizes."""

    def __init__(self, dims, act: str = "leaky_relu", final_act=None,
                 rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.linears = [
            Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)
        ]
        self._act = array_activation(act)
        self._final_act = array_activation(final_act)

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        """(..., R, in) -> (..., R, out)."""
        last = len(self.linears) - 1
        for i, linear in enumerate(self.linears):
            pre = linear.forward_array(x, tape)
            act, act_backward = self._act if i < last else self._final_act
            x = act(pre)
            if tape is not None and act_backward is not None:
                tape.record(functools.partial(act_backward, pre, x))
        return x


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps

    def forward_array(self, x: np.ndarray, tape=None) -> np.ndarray:
        width = x.shape[-1]
        scale = 1.0 / float(width)
        mu = x.sum(axis=-1, keepdims=True) * scale
        normed = x - mu  # centered, then scaled in place
        out = normed * normed  # squares, then the output
        var = out.sum(axis=-1, keepdims=True) * scale
        var += self.eps
        std = np.sqrt(var, out=var)
        normed /= std
        gamma = self.gamma.data
        if tape is not None:
            grads = tape.grads

            def backward(grad):
                product = grad * normed
                grads.add(self.gamma, _sum_leading(product, width))
                grads.add(self.beta, _sum_leading(grad, width))
                g = grad * gamma
                mean_g = g.sum(axis=-1, keepdims=True) * scale
                mean_gn = np.multiply(g, normed, out=product).sum(
                    axis=-1, keepdims=True) * scale
                # (g - mean_g - normed * mean_gn) / std, on g
                g -= mean_g
                g -= np.multiply(normed, mean_gn, out=product)
                g /= std
                return g

            tape.record(backward)
        np.multiply(normed, gamma, out=out)
        out += self.beta.data
        return out
