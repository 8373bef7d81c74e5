"""Taped graphs and their lifetime.

A backward step holds the gradient table, never the tape it is
recorded on, and a tape drops each step once it has replayed it. So a
finished training step and a taped forward that is thrown away leave
no reference cycle: with the cyclic collector off, ``gc.collect()``
finds nothing. A second backward through a freed graph raises. Input
gradients nobody asked for are not computed, and parameter gradients
do not change for it.
"""

import gc

import numpy as np
import pytest

from repro.config import tiny_network
from repro.net import build_topology
from repro.nn import (
    Adam,
    Tensor,
    Tape,
    categorical_cross_entropy,
    huber_loss,
    margin_loss,
)
from repro.rl import (
    AttentionQNetwork,
    C51Config,
    ConvQNetwork,
    DistributionalAttentionQNetwork,
    DRQNConfig,
    DuelingAttentionQNetwork,
    QNetConfig,
    RecurrentQNetwork,
)
from repro.rl.features import GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM, PLC_FEATURE_DIM
from repro.rl.qnetwork import ConvNetConfig

COMPACT = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
BATCH = 4

NETWORKS = {
    "plain": lambda topo: AttentionQNetwork(COMPACT, seed=1).bind_topology(topo),
    "dueling": lambda topo: DuelingAttentionQNetwork(
        COMPACT, seed=1).bind_topology(topo),
    "c51": lambda topo: DistributionalAttentionQNetwork(
        COMPACT, seed=1,
        c51=C51Config(n_atoms=5, v_min=-4.0, v_max=4.0)).bind_topology(topo),
    "conv": lambda topo: ConvQNetwork(
        5, 6, ConvNetConfig(window=16, channels=(6, 3), kernel=3, stride=2,
                            mlp_hidden=7), seed=1),
    "drqn": lambda topo: RecurrentQNetwork(
        5, 6, DRQNConfig(encoder_hidden=6, gru_hidden=5, head_hidden=6),
        seed=1),
}


@pytest.fixture(scope="module")
def topo():
    return build_topology(tiny_network().topology)


def _inputs(kind, net, topo, seed):
    rng = np.random.default_rng(seed)
    if kind == "conv":
        return (rng.normal(size=(BATCH, 5, 16)),)
    if kind == "drqn":
        return (rng.normal(size=(BATCH, 3, 5)),)
    return (rng.normal(size=(BATCH, topo.n_nodes, NODE_FEATURE_DIM)),
            rng.normal(size=(BATCH, topo.n_plcs, PLC_FEATURE_DIM)),
            rng.normal(size=(BATCH, GLOBAL_FEATURE_DIM)))


def _output(kind, net, inputs):
    """The graph node a loss reads: C51 trains on its log-probabilities."""
    if kind == "c51":
        return net.log_probs(*inputs)
    return net.forward(*inputs)


def _loss(kind, loss_name, out, seed):
    rng = np.random.default_rng(seed)
    if kind == "c51":
        target = rng.dirichlet(np.ones(out.shape[-1]), size=BATCH)
        return categorical_cross_entropy(
            out, rng.integers(out.shape[1], size=BATCH), target)[0]
    actions = rng.integers(out.shape[1], size=BATCH)
    if loss_name == "margin":
        return margin_loss(out, actions, rng.normal(size=BATCH))
    return huber_loss(out, actions, rng.normal(size=BATCH))


@pytest.fixture()
def no_collector():
    """The cyclic collector off, with nothing already waiting for it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


CASES = [("plain", "huber"), ("plain", "margin"), ("dueling", "huber"),
         ("c51", "cross-entropy"), ("conv", "huber"), ("drqn", "huber")]


class TestNoCycles:
    @pytest.mark.parametrize("kind, loss_name", CASES)
    def test_training_step_is_freed_by_reference_counting(
            self, kind, loss_name, topo, no_collector):
        net = NETWORKS[kind](topo)
        optimizer = Adam(net.named_parameters(), lr=1e-3)
        for seed in range(2):
            optimizer.zero_grad()
            out = _output(kind, net, _inputs(kind, net, topo, seed))
            _loss(kind, loss_name, out, seed).backward()
            optimizer.step()
        del out
        assert gc.collect() == 0

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_discarded_taped_forward_is_freed_by_reference_counting(
            self, kind, topo, no_collector):
        net = NETWORKS[kind](topo)
        inputs = [Tensor(x, requires_grad=True)
                  for x in _inputs(kind, net, topo, 0)]
        _output(kind, net, inputs)
        assert gc.collect() == 0


class TestFreedGraph:
    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_second_backward_raises(self, kind, topo):
        net = NETWORKS[kind](topo)
        loss = _loss(kind, "huber",
                     _output(kind, net, _inputs(kind, net, topo, 0)), 0)
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()

    def test_tape_replays_once_and_drops_its_steps(self):
        tape = Tape()
        tape.record(lambda grad: grad * 2.0)
        tape.record(lambda grad: grad + 1.0)
        assert tape.backward(1.0) == 4.0
        assert tape.steps is None
        with pytest.raises(RuntimeError, match="already freed"):
            tape.backward(1.0)


def _param_grads(kind, net, topo, wanted):
    """Parameter gradients of one loss, with the inputs requiring grad
    where ``wanted`` says so; returns them and the input gradients."""
    inputs = [Tensor(x, requires_grad=want) for x, want in
              zip(_inputs(kind, net, topo, 3), wanted)]
    net.zero_grad()
    _loss(kind, "huber", _output(kind, net, inputs), 3).backward()
    grads = [p.grad.copy() for p in net.parameters()]
    net.zero_grad()
    return grads, [x.grad for x in inputs]


class TestSkippedInputGradients:
    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_parameter_gradients_do_not_depend_on_input_grad(self, kind, topo):
        net = NETWORKS[kind](topo)
        n_inputs = len(_inputs(kind, net, topo, 0))
        skipped, none = _param_grads(kind, net, topo, [False] * n_inputs)
        computed, grads = _param_grads(kind, net, topo, [True] * n_inputs)
        assert none == [None] * n_inputs
        assert all(g is not None and np.isfinite(g).all() for g in grads)
        assert [g.tobytes() for g in skipped] == [g.tobytes() for g in computed]

    def test_one_wanted_input_gets_its_finite_difference_gradient(self, topo):
        """Only the global features require grad: theirs is computed and
        matches central differences."""
        net = NETWORKS["plain"](topo)
        node, plc, glob = _inputs("plain", net, topo, 5)
        glob = Tensor(glob, requires_grad=True)
        weights = np.random.default_rng(6).normal(size=(BATCH, net.n_actions))
        net.forward(node, plc, glob).backward(weights)
        eps = 1e-6
        for pos in [(0, 0), (1, 2), (3, 1)]:
            original = glob.data[pos]
            values = []
            for shift in (eps, -eps):
                glob.data[pos] = original + shift
                values.append(float((net.forward(node, plc, glob.data).data
                                     * weights).sum()))
            glob.data[pos] = original
            numeric = (values[0] - values[1]) / (2.0 * eps)
            assert glob.grad[pos] == pytest.approx(numeric, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("wanted, skipped", [(False, 2), (True, 0)])
    def test_encoders_first_layers_skip_the_input_gradient(
            self, wanted, skipped, topo, monkeypatch):
        """With no input requiring grad, the node and PLC encoders' first
        layers are the only affine steps that skip their input gradient."""
        from repro.nn import modules

        flags = []
        affine_grads = modules.affine_grads

        def recorded(x, weight, grad, want_x=True):
            flags.append(want_x)
            return affine_grads(x, weight, grad, want_x)

        monkeypatch.setattr(modules, "affine_grads", recorded)
        net = NETWORKS["plain"](topo)
        _param_grads("plain", net, topo, [wanted] * 3)
        assert flags and flags.count(False) == skipped
