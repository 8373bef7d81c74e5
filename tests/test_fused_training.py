"""The fused training path: hand-written backward steps, one graph node
per network or loss, and the flat Adam.

Three kinds of check:

* finite-difference gradchecks (float64) of every hand-written backward;
* differential tests against the per-op autograd oracle in
  ``graph_oracle.py``. For the attention networks, forward values and
  losses are bitwise equal and parameter gradients and seeded training
  runs allclose. For the 1-D convolution, the conv Q-network and the
  Huber and margin losses, gradients are bitwise equal too, and so are
  seeded pretraining, FQE and conv-network training runs;
* the flat Adam bitwise equal to a per-parameter reference Adam, and
  refusing non-finite gradients.
"""

import copy

import numpy as np
import pytest

import graph_oracle
import repro
from repro.config import paper_network, tiny_network
from repro.defenders import DBNExpertPolicy
from repro.net import build_topology
from repro.nn import (
    Adam,
    AttentionBlock,
    Conv1d,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadSelfAttention,
    Parameter,
    Tensor,
    huber_loss,
    margin_loss,
)
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    ConvQNetwork,
    DQNConfig,
    DQNTrainer,
    QNetConfig,
    RawHistoryEncoder,
)
from repro.rl.features import GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM, PLC_FEATURE_DIM
from repro.rl.pretrain import PretrainConfig, collect_demonstrations, pretrain
from repro.rl.qnetwork import ConvNetConfig
from repro.validation import StochasticQPolicy, collect_logged_episodes
from repro.validation.fqe import fitted_q_evaluation

ACTIVATIONS = ["relu", "leaky_relu", "tanh", "sigmoid", "identity"]
COMPACT = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
NETWORKS = {"plain": AttentionQNetwork}


def _bits(array) -> bytes:
    array = np.asarray(array)
    return array.dtype.str.encode() + str(array.shape).encode() + array.tobytes()


def _topology(name: str):
    config = tiny_network() if name == "tiny" else paper_network()
    return build_topology(config.topology)


def _features(topo, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, topo.n_nodes, NODE_FEATURE_DIM)),
            rng.normal(size=(batch, topo.n_plcs, PLC_FEATURE_DIM)),
            rng.normal(size=(batch, GLOBAL_FEATURE_DIM)))


# ----------------------------------------------------------------------
# finite-difference gradchecks
# ----------------------------------------------------------------------
def gradcheck(forward, leaves, seed=0, entries=6, eps=1e-6):
    """Check d(sum(w * forward()))/d(leaf) against central differences
    on up to ``entries`` random entries of each leaf (Parameters or
    input Tensors that require grad)."""
    rng = np.random.default_rng(seed)
    out = forward()
    weights = rng.normal(size=out.shape)
    for leaf in leaves:
        leaf.grad = None
    out.backward(weights)  # d/d(leaf) of sum(weights * out)

    def objective() -> float:
        return float((forward().data * weights).sum())

    for index, leaf in enumerate(leaves):
        analytic = (np.zeros_like(leaf.data) if leaf.grad is None
                    else leaf.grad)
        picks = rng.choice(leaf.data.size, size=min(entries, leaf.data.size),
                           replace=False)
        for flat in picks:
            pos = np.unravel_index(flat, leaf.data.shape)
            original = leaf.data[pos]
            leaf.data[pos] = original + eps
            high = objective()
            leaf.data[pos] = original - eps
            low = objective()
            leaf.data[pos] = original
            numeric = (high - low) / (2.0 * eps)
            assert analytic[pos] == pytest.approx(numeric, rel=1e-5, abs=1e-6), (
                f"leaf {index} {leaf.data.shape} at {pos}")


def check_module(module, shape, seed=0, input_grad=True):
    """Gradcheck a one-input module's parameters (and its input)."""
    x = Tensor(np.random.default_rng(seed + 1).normal(size=shape),
               requires_grad=input_grad)
    leaves = module.parameters() + ([x] if input_grad else [])
    gradcheck(lambda: module(x, grad=True), leaves, seed=seed)


class TestGradcheck:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(5,), (4, 5), (3, 4, 5)])
    def test_linear(self, bias, shape):
        check_module(Linear(5, 3, rng=np.random.default_rng(0), bias=bias), shape)

    @pytest.mark.parametrize("final", ACTIVATIONS + [None])
    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_mlp(self, act, final):
        mlp = MLP([4, 6, 5, 3], act=act, final_act=final,
                  rng=np.random.default_rng(1))
        check_module(mlp, (2, 3, 4))

    @pytest.mark.parametrize("shape", [(6,), (4, 6), (2, 3, 6)])
    def test_layer_norm(self, shape):
        ln = LayerNorm(6)
        rng = np.random.default_rng(2)
        ln.gamma.data = rng.normal(size=6)
        ln.beta.data = rng.normal(size=6)
        check_module(ln, shape)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(5, 8), (2, 5, 8)])
    def test_self_attention(self, heads, shape):
        attn = MultiHeadSelfAttention(8, heads, rng=np.random.default_rng(3))
        check_module(attn, shape)

    @pytest.mark.parametrize("shape", [(5, 8), (2, 5, 8)])
    def test_attention_block(self, shape):
        block = AttentionBlock(8, 2, ff_hidden=12, rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for ln in (block.ln1, block.ln2):
            ln.gamma.data = 1.0 + 0.3 * rng.normal(size=8)
            ln.beta.data = 0.3 * rng.normal(size=8)
        check_module(block, shape)

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    @pytest.mark.parametrize("config", ["compact", "paper"])
    @pytest.mark.parametrize("topology", ["tiny", "paper"])
    def test_q_network_node(self, kind, config, topology):
        topo = _topology(topology)
        net = NETWORKS[kind](COMPACT if config == "compact" else QNetConfig.paper(),
                             seed=3)
        net.bind_topology(topo)
        feats = [Tensor(f) for f in _features(topo, 2, seed=4)]
        entries = 2 if config == "paper" else 4
        gradcheck(lambda: net.forward(*feats, grad=True), net.parameters(), seed=5,
                  entries=entries)

    def test_q_network_feature_gradients(self):
        """Features that require grad get theirs from the same node."""
        topo = _topology("tiny")
        net = AttentionQNetwork(COMPACT, seed=3).bind_topology(topo)
        feats = [Tensor(f, requires_grad=True) for f in _features(topo, 2, seed=6)]
        gradcheck(lambda: net.forward(*feats, grad=True), feats, seed=7)

    @pytest.mark.parametrize("kernel, stride", [(4, 4), (3, 1), (3, 2)])
    def test_conv1d(self, kernel, stride):
        conv = Conv1d(3, 4, kernel, stride, rng=np.random.default_rng(18))
        conv.bias.data = np.random.default_rng(19).normal(size=4)
        check_module(conv, (2, 3, 9))

    def test_conv_q_network(self):
        net = ConvQNetwork(5, 4, ConvNetConfig(window=16, channels=(6, 3),
                                               kernel=3, stride=2, mlp_hidden=7),
                           seed=20)
        history = np.random.default_rng(21).normal(size=(2, 5, 16))
        gradcheck(lambda: net.forward(history, grad=True), net.parameters(),
                  seed=22)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_huber_loss(self, delta, weighted):
        rng = np.random.default_rng(25)
        q = Tensor(rng.normal(size=(6, 4)) * 2.0, requires_grad=True)
        actions = rng.integers(0, 4, size=6)
        target = rng.normal(size=6)
        weights = rng.uniform(0.5, 1.5, size=6) if weighted else None
        gradcheck(lambda: huber_loss(q, actions, target, delta, weights), [q],
                  seed=26, entries=q.data.size)

    def test_margin_loss(self):
        rng = np.random.default_rng(27)
        q = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        actions = rng.integers(0, 4, size=6)
        returns = rng.normal(size=6) * 2.0
        gradcheck(lambda: margin_loss(q, actions, returns, margin=0.05,
                                      margin_weight=0.5),
                  [q], seed=28, entries=q.data.size)



# ----------------------------------------------------------------------
# differential tests against the per-op oracle
# ----------------------------------------------------------------------
def assert_grads_close(fused: dict, oracle: dict) -> None:
    """rtol 1e-12, atol 1e-15 in units of the gradient's own scale
    (an entry that is zero in exact arithmetic, like an attention key
    bias, is pure rounding noise at that scale)."""
    assert fused.keys() == oracle.keys()
    for name, ref in oracle.items():
        got = fused[name]
        if ref is None:
            assert got is None, name
            continue
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15 * scale,
                                   err_msg=name)


def _loss(net, q, batch, seed):
    """A training loss on ``q``: Huber on taken actions."""
    rng = np.random.default_rng(seed)
    actions = rng.integers(0, net.n_actions, size=batch)
    weights = rng.uniform(0.5, 1.5, size=batch)
    return huber_loss(q, actions, rng.normal(size=batch) * 2.0, weights=weights)


def _run(net, feats, seed):
    """(output, loss, {name: grad}) of one forward + backward."""
    net.zero_grad()
    out = net.forward(*feats, grad=True)
    loss = _loss(net, out, feats[0].shape[0], seed)
    loss.backward()
    grads = {name: p.grad for name, p in net.named_parameters()}
    net.zero_grad()
    return out.data, loss.data, grads


class TestDifferential:
    @pytest.mark.parametrize("batch", [1, 16, 32])
    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    @pytest.mark.parametrize("config", ["compact", "paper", "no-tanh"])
    @pytest.mark.parametrize("topology", ["tiny", "paper"])
    def test_network_matches_oracle(self, topology, config, kind, batch,
                                    monkeypatch):
        cfg = {"compact": COMPACT, "paper": QNetConfig.paper(),
               "no-tanh": QNetConfig(final_tanh=False)}[config]
        topo = _topology(topology)
        net = NETWORKS[kind](cfg, seed=11).bind_topology(topo)
        feats = _features(topo, batch, seed=batch)
        fused = _run(net, feats, seed=batch)
        with monkeypatch.context() as patch:
            graph_oracle.install(patch)
            oracle = _run(net, feats, seed=batch)
        assert _bits(fused[0]) == _bits(oracle[0])
        assert _bits(fused[1]) == _bits(oracle[1])
        assert_grads_close(fused[2], oracle[2])

    def test_network_is_one_graph_node(self):
        topo = _topology("tiny")
        net = AttentionQNetwork(COMPACT, seed=0).bind_topology(topo)
        q = net.forward(*_features(topo, 4, seed=0), grad=True)
        assert len(q._parents) == len(net.parameters())
        assert all(isinstance(p, Parameter) for p in q._parents)

    def test_conv_network_is_one_graph_node(self):
        step_dim = RawHistoryEncoder.step_dim_for(_topology("tiny"))
        net = _conv_net(step_dim, 9)
        history = net.stack_states(
            [np.ones((step_dim, net.config.window))] * 4)[0]
        q = net.forward(history, grad=True)
        assert len(q._parents) == len(net.parameters())
        assert all(isinstance(p, Parameter) for p in q._parents)

    @pytest.mark.parametrize("module, shape", [
        (Linear(7, 5, rng=np.random.default_rng(0)), (3, 4, 7)),
        (Linear(7, 5, rng=np.random.default_rng(1), bias=False), (4, 7)),
        (MLP([6, 9, 9, 4], act="relu", final_act="tanh",
             rng=np.random.default_rng(3)), (2, 5, 6)),
        (MLP([6, 9, 4], act="sigmoid", final_act="leaky_relu",
             rng=np.random.default_rng(4)), (5, 6)),
        (LayerNorm(8), (3, 6, 8)),
        (MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(5)), (3, 6, 8)),
        (MultiHeadSelfAttention(8, 4, rng=np.random.default_rng(6)), (6, 8)),
        (AttentionBlock(8, 2, ff_hidden=16, rng=np.random.default_rng(7)),
         (3, 6, 8)),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else None)
    def test_module_matches_oracle(self, module, shape):
        x = np.random.default_rng(len(shape)).normal(size=shape)
        results = []
        for forward in (lambda t: module.forward(t, grad=True),
                        lambda t: graph_oracle.forward(module, t)):
            xt = Tensor(x, requires_grad=True)
            out = forward(xt)
            weights = np.random.default_rng(0).normal(size=out.shape)
            module.zero_grad()
            out.backward(weights)
            grads = {n: p.grad for n, p in module.named_parameters()}
            grads["input"] = xt.grad
            results.append((out.data, grads))
        assert _bits(results[0][0]) == _bits(results[1][0])
        assert_grads_close(results[0][1], results[1][1])


def _conv_net(step_dim, n_actions, **overrides):
    """The loop golden's conv net, with overlapping windows here."""
    config = dict(window=8, channels=(8,), kernel=4, stride=2, mlp_hidden=16)
    config.update(overrides)
    return ConvQNetwork(step_dim, n_actions, ConvNetConfig(**config), seed=1)


def assert_bitwise(fused, oracle, params, inputs=(), seed=0):
    """``fused(*inputs)`` and the oracle's ``oracle(*inputs)``: outputs
    and the gradients of ``sum(w * output)`` w.r.t. every parameter and
    input, bit for bit."""
    results = []
    for forward in (fused, oracle):
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        out = forward(*leaves)
        weights = np.random.default_rng(seed).normal(size=out.shape)
        for p in params:
            p.grad = None
        out.backward(weights)
        results.append([out.data] + [p.grad for p in params]
                       + [x.grad for x in leaves])
    assert len(results[0]) == 1 + len(params) + len(inputs)
    for index, (got, want) in enumerate(zip(*results)):
        assert got is not None, f"entry {index} has no gradient"
        assert _bits(got) == _bits(want), f"entry {index}"


BATCHES = [1, 16]


class TestBitwiseOracle:
    """The hand-written backwards that replaced per-op graphs equal
    those graphs bit for bit, at batch sizes 1 and 16."""

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("kernel, stride", [(4, 4), (3, 1), (3, 2)])
    def test_conv1d(self, batch, kernel, stride):
        conv = Conv1d(3, 5, kernel, stride, rng=np.random.default_rng(32))
        conv.bias.data = np.random.default_rng(33).normal(size=5)
        x = np.random.default_rng(batch).normal(size=(batch, 3, 12))
        assert_bitwise(lambda t: conv(t, grad=True),
                       lambda t: graph_oracle.conv1d(conv, t),
                       conv.parameters(), [x], seed=batch)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("overrides", [
        {}, dict(window=16, channels=(6, 5), kernel=3, stride=2, mlp_hidden=7),
        dict(kernel=4, stride=4, final_tanh=False)])
    def test_conv_q_network(self, batch, overrides):
        net = _conv_net(7, 9, **overrides)
        history = np.random.default_rng(batch).normal(
            size=(batch, 7, net.config.window))
        assert_bitwise(lambda: net.forward(history, grad=True),
                       lambda: graph_oracle.conv_q_forward(net, history),
                       net.parameters(), seed=batch)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_huber_loss(self, batch, delta, weighted):
        rng = np.random.default_rng(batch)
        q = rng.normal(size=(batch, 7)) * 2.0
        actions = rng.integers(0, 7, size=batch)
        target = rng.normal(size=batch)
        weights = rng.uniform(0.5, 1.5, size=batch) if weighted else None
        assert_bitwise(
            lambda t: huber_loss(t, actions, target, delta, weights),
            lambda t: graph_oracle.huber_loss(t, actions, target, delta, weights),
            [], [q], seed=batch)

    def test_huber_loss_200_batches(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            batch = int(rng.integers(1, 33))
            q = rng.normal(size=(batch, 5)) * rng.uniform(0.1, 4.0)
            actions = rng.integers(0, 5, size=batch)
            target = rng.normal(size=batch)
            weights = rng.uniform(0.0, 2.0, size=batch)
            assert_bitwise(
                lambda t: huber_loss(t, actions, target, weights=weights),
                lambda t: graph_oracle.huber_loss(t, actions, target,
                                                  weights=weights),
                [], [q])

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("ties", [False, True])
    def test_margin_loss(self, batch, ties):
        """Integer Q-values make the max tie, splitting its subgradient."""
        rng = np.random.default_rng(batch)
        q = (rng.integers(-2, 3, size=(batch, 6)).astype(float) if ties
             else rng.normal(size=(batch, 6)))
        actions = rng.integers(0, 6, size=batch)
        returns = rng.normal(size=batch) * 2.0
        assert_bitwise(
            lambda t: margin_loss(t, actions, returns, 0.5, 0.1),
            lambda t: graph_oracle.margin_loss(t, actions, returns, 0.5, 0.1),
            [], [q], seed=batch)



def _train_dqn(tables):
    """A seeded DQN run of three episodes (200+ updates): (losses,
    actions, top-2 Q gap per action, actions taken before each update)."""
    env = repro.make_env(tiny_network(tmax=400), seed=0)
    trainer = DQNTrainer(
        env, AttentionQNetwork(COMPACT, seed=3),
        ACSOFeaturizer(env.topology, tables),
        DQNConfig(batch_size=16, warmup=16, update_every=1, target_update=25,
                  eps_start=0.3, seed=0),
    )
    losses, actions, gaps, update_at = [], [], [], []
    update, select = trainer.update, trainer.select_actions_vec

    def record_update():
        update_at.append(len(actions))
        losses.append(update())
        return losses[-1]

    def record_select(features, masks, epsilon):
        (state,), (mask,) = features, masks
        q = np.where(mask, trainer.qnet.q_values(state), -np.inf)
        top = np.sort(q[np.isfinite(q)])[-2:]
        gaps.append(float(top[-1] - top[0]) if top.size == 2 else np.inf)
        chosen = select(features, masks, epsilon)
        actions.append(int(chosen[0]))
        return chosen

    trainer.update, trainer.select_actions_vec = record_update, record_select
    trainer.train(episodes=3, seed=4, max_steps=80)
    return losses, actions, gaps, update_at


def _compare_runs(fused, oracle):
    """Actions identical except near-ties (top-2 Q gap < 1e-9), which
    are flagged, not compared; a flagged step that does flip ends the
    comparison, since the two runs then see different states."""
    losses, actions, gaps, update_at = fused
    flagged = 0
    horizon = len(actions)
    for step, (a, b) in enumerate(zip(actions, oracle[1])):
        if min(gaps[step], oracle[2][step]) < 1e-9:
            flagged += 1
            if a != b:
                horizon = step
                break
            continue
        assert a == b, f"step {step}: {a} != {b}"
    compared = sum(1 for taken in update_at if taken <= horizon)
    np.testing.assert_allclose(losses[:compared], oracle[0][:compared],
                               rtol=1e-10)
    return compared, flagged


class TestTrainingTrajectories:
    def test_dqn_200_updates_match_oracle(self, tiny_tables, monkeypatch):
        fused = _train_dqn(tiny_tables)
        graph_oracle.install(monkeypatch)
        oracle = _train_dqn(tiny_tables)
        assert len(fused[0]) == len(oracle[0]) >= 200
        compared, _ = _compare_runs(fused, oracle)
        assert compared >= 200

    def test_fqe_fit_matches_oracle(self, tiny_tables, monkeypatch):
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        behaviour_net = AttentionQNetwork(COMPACT, seed=1).bind_topology(
            env.topology)
        behavior = StochasticQPolicy(behaviour_net, tiny_tables,
                                     temperature=1.0, epsilon=0.3, seed=5)
        episodes = collect_logged_episodes(env, behavior, episodes=3, seed=0,
                                           max_steps=30)

        def fit():
            net = AttentionQNetwork(COMPACT, seed=9).bind_topology(env.topology)
            result = fitted_q_evaluation(episodes, behavior, net, iterations=3,
                                         epochs_per_iteration=1, batch_size=16)
            return result.losses, result.value, result.start_values

        fused = fit()
        graph_oracle.install(monkeypatch)
        oracle = fit()
        assert len(fused[0]) == 4
        np.testing.assert_allclose(fused[0], oracle[0], rtol=1e-10)
        np.testing.assert_allclose(fused[1], oracle[1], rtol=1e-10)
        np.testing.assert_allclose(fused[2], oracle[2], rtol=1e-10)


class TestBitwiseTraining:
    """Seeded runs whose every backward is now hand-written equal the
    same runs through the per-op oracle bit for bit: losses and final
    weights."""

    @staticmethod
    def _assert_runs_equal(fused, oracle):
        losses, weights = fused
        assert len(losses) > 0
        assert _bits(losses) == _bits(oracle[0])
        assert len(weights) == len(oracle[1])
        for got, want in zip(weights, oracle[1]):
            assert _bits(got) == _bits(want)

    def test_pretrain(self, tiny_tables, monkeypatch):
        env = repro.make_env(tiny_network(tmax=40), seed=0)
        feat = ACSOFeaturizer(env.topology, tiny_tables)
        expert = DBNExpertPolicy(tiny_tables, max_actions=1, seed=0)
        demos = collect_demonstrations(
            env, expert, feat, AttentionQNetwork(COMPACT, seed=1), episodes=1,
            seed=0, max_steps=30)

        def run():
            net = AttentionQNetwork(COMPACT, seed=2).bind_topology(env.topology)
            losses = pretrain(net, demos, PretrainConfig(
                iterations=20, batch_size=16, margin_weight=0.5, seed=0))
            return losses, [p.data for p in net.parameters()]

        fused = run()
        graph_oracle.install(monkeypatch, networks=False)
        self._assert_runs_equal(fused, run())

    def test_fqe(self, tiny_tables, monkeypatch):
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        behaviour_net = AttentionQNetwork(COMPACT, seed=1).bind_topology(
            env.topology)
        behavior = StochasticQPolicy(behaviour_net, tiny_tables,
                                     temperature=1.0, epsilon=0.3, seed=5)
        episodes = collect_logged_episodes(env, behavior, episodes=3, seed=0,
                                           max_steps=30)

        def run():
            net = AttentionQNetwork(COMPACT, seed=9).bind_topology(env.topology)
            result = fitted_q_evaluation(episodes, behavior, net, iterations=3,
                                         epochs_per_iteration=1, batch_size=16)
            return ([*result.losses, result.value],
                    [p.data for p in net.parameters()])

        fused = run()
        graph_oracle.install(monkeypatch, networks=False)
        self._assert_runs_equal(fused, run())

    def test_conv_trainer(self, monkeypatch):
        """DQN training of the conv baseline, with overlapping windows."""

        def run():
            env = repro.make_env(tiny_network(tmax=60), seed=0)
            net = _conv_net(RawHistoryEncoder.step_dim_for(env.topology),
                            env.n_actions)
            encoder = RawHistoryEncoder(env.topology, net.config.window)
            trainer = DQNTrainer(env, net, encoder, DQNConfig(
                batch_size=8, warmup=8, update_every=1, target_update=10,
                eps_start=0.3, seed=0))
            losses = []
            update = trainer.update
            trainer.update = lambda: losses.append(update()) or losses[-1]
            trainer.train(1, seed=0, max_steps=40)
            return losses, [p.data for p in net.parameters()]

        fused = run()
        graph_oracle.install(monkeypatch)
        self._assert_runs_equal(fused, run())


# ----------------------------------------------------------------------
# flat Adam
# ----------------------------------------------------------------------
def _problem(seed=0):
    """An MLP and its parameters plus one free-standing parameter."""
    net = MLP([4, 6, 3], rng=np.random.default_rng(seed))
    extra = Parameter(np.random.default_rng(seed + 1).normal(size=(2, 5)))
    return net, net.parameters() + [extra]


def _set_grads(params, rng, scale, skip=None):
    for i, p in enumerate(params):
        p.grad = None if i == skip else rng.normal(size=p.data.shape) * scale


class TestFlatAdam:
    @pytest.mark.parametrize("clip, scale", [(None, 1.0), (10.0, 0.1),
                                             (1.0, 5.0)])
    def test_bitwise_equal_to_per_parameter_adam(self, clip, scale):
        """50 steps; the last parameter has no gradient on every third
        step (its moments must not decay)."""
        _, flat_params = _problem()
        _, ref_params = _problem()
        flat = Adam(flat_params, lr=1e-2, grad_clip=clip)
        ref = graph_oracle.ReferenceAdam(ref_params, lr=1e-2, grad_clip=clip)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        clipped = 0
        for step in range(50):
            skip = len(flat_params) - 1 if step % 3 == 0 else None
            _set_grads(flat_params, rng_a, scale, skip)
            _set_grads(ref_params, rng_b, scale, skip)
            if clip is not None:
                g = np.concatenate([p.grad.ravel() for p in ref_params
                                    if p.grad is not None])
                clipped += float(np.sqrt(g @ g)) > clip
            flat.step()
            ref.step()
            for a, b in zip(flat_params, ref_params):
                assert _bits(a.data) == _bits(b.data)
        if clip == 1.0:
            assert clipped == 50
        if clip == 10.0:
            assert clipped == 0
        # moments of the sometimes-skipped parameter equal the reference's
        last = flat._bounds[-2]
        assert _bits(flat._m[last:]) == _bits(ref._m[-1].ravel())
        assert _bits(flat._v[last:]) == _bits(ref._v[-1].ravel())

    def test_state_replacement_mid_run(self):
        """``load_state_dict``, ``copy_from`` and ``copy.deepcopy`` of an
        optimizer-owning object between steps (the DQN target sync and
        the benchmark's trainer copies) keep the two Adams in step."""
        net_a, params_a = _problem()
        net_b, params_b = _problem()
        flat = Adam(params_a, lr=1e-2, grad_clip=1.0)
        ref = graph_oracle.ReferenceAdam(params_b, lr=1e-2, grad_clip=1.0)
        other = MLP([4, 6, 3], rng=np.random.default_rng(42))
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for step in range(50):
            if step == 10:
                net_a.load_state_dict(other.state_dict())
                net_b.load_state_dict(other.state_dict())
            if step == 20:
                other.copy_from(net_a)
                net_a.copy_from(other)
                net_b.copy_from(other)
            if step == 30:
                # a deep copy of the (module, optimizer) pair carries on
                # alone; the original must be unaffected by the copy
                net_a, flat = copy.deepcopy((net_a, flat))
                params_a = flat.params
            _set_grads(params_a, rng_a, 3.0)
            _set_grads(params_b, rng_b, 3.0)
            flat.step()
            ref.step()
            for a, b in zip(params_a, params_b):
                assert _bits(a.data) == _bits(b.data)
        # the copied optimizer steps the copied module's parameters
        assert all(a is b for a, b in zip(params_a, net_a.parameters()))

    def test_deepcopy_leaves_original_untouched(self):
        _, params = _problem()
        opt = Adam(params, lr=1e-2)
        rng = np.random.default_rng(0)
        _set_grads(params, rng, 1.0)
        opt.step()
        twin = copy.deepcopy(opt)
        before = [p.data.copy() for p in params]
        _set_grads(twin.params, rng, 1.0)
        twin.step()
        for p, b in zip(params, before):
            assert _bits(p.data) == _bits(b)
        assert opt.t == 1 and twin.t == 2

    @pytest.mark.parametrize("clip", [None, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises_and_changes_nothing(self, bad, clip):
        net = MLP([4, 6, 3], rng=np.random.default_rng(0))
        opt = Adam(net.named_parameters(), lr=1e-2, grad_clip=clip)
        rng = np.random.default_rng(1)
        params = opt.params
        _set_grads(params, rng, 1.0)
        opt.step()
        state = (opt.t, opt._m.copy(), opt._v.copy(),
                 [p.data.copy() for p in params])
        _set_grads(params, rng, 1.0)
        params[2].grad[1, 2] = bad
        params[3].grad[0] = np.nan  # a later one: the first is named
        with pytest.raises(FloatingPointError, match=r"linears\.1\.weight"):
            opt.step()
        assert opt.t == state[0]
        assert _bits(opt._m) == _bits(state[1])
        assert _bits(opt._v) == _bits(state[2])
        for p, before in zip(params, state[3]):
            assert _bits(p.data) == _bits(before)

    def test_unnamed_parameters_are_numbered(self):
        p = Parameter(np.zeros(3))
        opt = Adam([Parameter(np.zeros(2)), p])
        p.grad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(FloatingPointError, match="parameter 1"):
            opt.step()
