"""Neural-network building blocks on top of the autograd Tensor.

Modules on the Q-network's inference path also have a
``forward_array`` method: the same computation on plain ndarrays, with
no :class:`Tensor` and no graph. It repeats the graph forward's numpy
ops in the same order (``mean`` is ``sum * (1/n)``), so its output is
bitwise equal to ``forward(x).data``. Where it departs from an op, the
replacement is exact in IEEE arithmetic: ``a - b`` for ``a + (-b)``,
``maximum(x, alpha * x)`` for leaky ReLU's ``x * where(x > 0, 1,
alpha)`` (0 < alpha < 1), and a filled buffer for a concatenation of
products with ones.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Sequential",
    "MLP",
    "LayerNorm",
    "activation",
    "array_activation",
]


class Parameter(Tensor):
    """A tensor that is optimized and serialized."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery and state dicts."""

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

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
        return [p for _, p in self.named_parameters()]

    def child_modules(self):
        """Yield direct sub-modules (attributes, list/dict elements)."""
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield item

    def reset_noise(self) -> None:
        """Resample noise in any noisy sub-layers (no-op otherwise)."""
        for module in self.child_modules():
            module.reset_noise()

    def set_noise_enabled(self, enabled: bool) -> None:
        """Toggle parameter noise everywhere (evaluation uses means)."""
        if hasattr(self, "noise_enabled"):
            self.noise_enabled = enabled
        for module in self.child_modules():
            module.set_noise_enabled(enabled)

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


_ACTIVATIONS = {
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "identity": lambda x: x,
    None: lambda x: x,
}


#: ndarray twins of :data:`_ACTIVATIONS`, bitwise equal to :class:`Tensor`'s
_ARRAY_ACTIVATIONS = {
    "relu": lambda x: x * (x > 0),
    "leaky_relu": lambda x: np.maximum(x, x * 0.01),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "identity": lambda x: x,
    None: lambda x: x,
}


def activation(name):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def array_activation(name):
    """The ndarray form of :func:`activation` ``(name)``."""
    try:
        return _ARRAY_ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


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

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class Sequential(Module):
    def __init__(self, *layers):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x) if isinstance(layer, Module) else layer(x)
        return x


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
        self._act = activation(act)
        self._final_act = activation(final_act)
        self._act_array = array_activation(act)
        self._final_act_array = array_activation(final_act)

    def forward(self, x: Tensor) -> Tensor:
        for i, linear in enumerate(self.linears):
            x = linear(x)
            x = self._act(x) if i < len(self.linears) - 1 else self._final_act(x)
        return x

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        last = len(self.linears) - 1
        for i, linear in enumerate(self.linears):
            x = linear.forward_array(x)
            x = self._act_array(x) if i < last else self._final_act_array(x)
        return x


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        scale = 1.0 / float(x.shape[-1])
        mu = x.sum(axis=-1, keepdims=True) * scale
        centered = x - mu
        var = (centered * centered).sum(axis=-1, keepdims=True) * scale
        normed = centered / np.sqrt(var + self.eps)
        return normed * self.gamma.data + self.beta.data
