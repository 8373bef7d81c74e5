"""Tests for the per-op autograd oracle (``graph_oracle.OpTensor``): op
semantics and finite-difference gradient checks, plus the library
Tensor's backward pass that runs its graphs."""

import numpy as np
import pytest

from graph_oracle import OpTensor as Tensor
from graph_oracle import concat, stack
from repro.nn import MLP, huber_loss
from repro.nn import Tensor as LibraryTensor

rng = np.random.default_rng(12)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(make_output, x: np.ndarray, tol: float = 1e-5):
    """Compare autograd to finite differences for scalarized output."""
    t = Tensor(x, requires_grad=True)
    out = make_output(t)
    loss = (out * out).sum()
    loss.backward()
    analytic = t.grad

    def f():
        val = make_output(Tensor(x)).data
        return float((val * val).sum())

    numeric = numeric_grad(f, x)
    assert np.allclose(analytic, numeric, atol=tol, rtol=1e-3), (
        analytic, numeric
    )


class TestForwardSemantics:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        assert np.allclose((a + b).data, 1 + np.arange(3.0))

    def test_matmul_matches_numpy(self):
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_batched_matmul(self):
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_softmax_rows_sum_to_one(self):
        s = Tensor(rng.normal(size=(4, 7))).softmax(axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_reductions(self):
        x = rng.normal(size=(3, 4))
        assert np.isclose(Tensor(x).sum().data, x.sum())
        assert np.isclose(Tensor(x).mean().data, x.mean())
        assert np.allclose(Tensor(x).max(axis=1).data, x.max(axis=1))

    def test_gather_rows(self):
        x = rng.normal(size=(4, 6))
        idx = [1, 0, 5, 2]
        out = Tensor(x).gather_rows(idx)
        assert np.allclose(out.data, x[np.arange(4), idx])

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach() * 2
        assert not y.requires_grad

    def test_forward_without_grad_builds_no_graph(self):
        """A module's default forward records nothing, so a loss over it
        has no graph and its ``backward()`` raises; ``grad=True`` on the
        same input is one graph node with the same values."""
        mlp = MLP([4, 5, 3], rng=np.random.default_rng(0))
        x = LibraryTensor(rng.normal(size=(2, 4)), requires_grad=True)
        plain, taped = mlp.forward(x), mlp.forward(x, grad=True)
        assert not plain.requires_grad and not plain._parents
        assert taped.requires_grad and taped._parents
        assert plain.data.tobytes() == taped.data.tobytes()
        loss = huber_loss(plain, np.array([0, 2]), np.zeros(2))
        with pytest.raises(RuntimeError, match="without grad"):
            loss.backward()
        huber_loss(taped, np.array([0, 2]), np.zeros(2)).backward()
        assert x.grad is not None


class TestBackward:
    _CONST = rng.normal(size=(3, 4))

    @pytest.mark.parametrize("op", [
        lambda t: t + Tensor(TestBackward._CONST),
        lambda t: t * Tensor(TestBackward._CONST),
        lambda t: t - 2.5,
        lambda t: t / 3.0,
        lambda t: t ** 2,
        lambda t: t.relu(),
        lambda t: t.leaky_relu(0.1),
        lambda t: t.tanh(),
        lambda t: t.sigmoid(),
        lambda t: t.exp(),
        lambda t: t.softmax(axis=-1),
        lambda t: t.reshape(4, 3),
        lambda t: t.transpose(1, 0),
        lambda t: t.sum(axis=0),
        lambda t: t.mean(axis=1, keepdims=True),
        lambda t: t.max(axis=1),
        lambda t: t[1:, :2],
    ])
    def test_gradcheck_ops(self, op):
        check_grad(op, rng.normal(size=(3, 4)))

    def test_gradcheck_log_sqrt_abs(self):
        x = np.abs(rng.normal(size=(3, 4))) + 0.5
        check_grad(lambda t: t.log(), x.copy())
        check_grad(lambda t: t.sqrt(), x.copy())
        check_grad(lambda t: t.abs(), rng.normal(size=(3, 4)))

    def test_gradcheck_matmul(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grad(lambda t: t @ Tensor(b), a)
        check_grad(lambda t: Tensor(a) @ t, b)

    def test_gradcheck_batched_matmul_broadcast(self):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        check_grad(lambda t: t @ Tensor(b), a)
        check_grad(lambda t: Tensor(a) @ t, b)

    def test_gradcheck_broadcast_add(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        check_grad(lambda t: Tensor(a) + t, b)
        check_grad(lambda t: t + Tensor(b), a)

    def test_gradcheck_concat_stack(self):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        check_grad(lambda t: concat([t, Tensor(b)], axis=1), a)
        c = rng.normal(size=(2, 3))
        check_grad(lambda t: stack([t, Tensor(c)], axis=0), a.copy())

    def test_gradcheck_gather_rows(self):
        x = rng.normal(size=(4, 5))
        idx = [0, 3, 3, 1]
        check_grad(lambda t: t.gather_rows(idx), x)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        assert np.allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_nograd_tensor_raises(self):
        with pytest.raises(RuntimeError):
            LibraryTensor(np.ones(1)).backward()

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2
        b = x * 5
        ((a + b) * 1.0).sum().backward()
        assert np.allclose(x.grad, [7.0])
