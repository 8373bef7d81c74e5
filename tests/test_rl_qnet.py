"""Tests for Q-networks, features, shaping, and schedules."""

import copy

import numpy as np
import pytest

import graph_oracle
import repro
from repro.config import paper_network, small_network, tiny_network
from repro.net import build_topology
from repro.nn import (
    AttentionBlock,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadSelfAttention,
    NoisyLinear,
    NoisyMLP,
    Tensor,
    is_grad_enabled,
    no_grad,
)
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    C51Config,
    ConvQNetwork,
    DistributionalAttentionQNetwork,
    DuelingAttentionQNetwork,
    PotentialShaper,
    QNetConfig,
    RawHistoryEncoder,
    ExponentialDecay,
    LinearSchedule,
    stack_features,
)
from repro.rl.features import (
    GLOBAL_FEATURE_DIM,
    NODE_FEATURE_DIM,
    PLC_FEATURE_DIM,
    FeatureSet,
)
from repro.rl.dqn import DQNConfig, DQNTrainer
from repro.rl.qnetwork import BLOCK_TOKENS, ConvNetConfig
from repro.sim.orchestrator import enumerate_actions
from repro.validation import StochasticQPolicy


@pytest.fixture()
def tiny_topo():
    return build_topology(tiny_network().topology)


class TestFeaturizer:
    def test_feature_shapes(self, tiny_topo, tiny_tables):
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        feat = ACSOFeaturizer(env.topology, tiny_tables)
        obs = env.reset(seed=0)
        fs = feat.update(obs)
        assert fs.node.shape == (env.topology.n_nodes, NODE_FEATURE_DIM)
        assert fs.plc.shape == (env.topology.n_plcs, PLC_FEATURE_DIM)
        assert fs.glob.shape == (GLOBAL_FEATURE_DIM,)

    def test_stack_features(self, tiny_tables):
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        feat = ACSOFeaturizer(env.topology, tiny_tables)
        obs = env.reset(seed=0)
        fs = feat.update(obs)
        node, plc, glob = stack_features([fs, fs, fs])
        assert node.shape[0] == 3 and plc.shape[0] == 3 and glob.shape == (3, 3)

    def test_raw_history_encoder(self, tiny_topo):
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        enc = RawHistoryEncoder(env.topology, window=16)
        obs = env.reset(seed=0)
        hist = enc.update(obs)
        assert hist.shape == (enc.step_dim, 16)
        obs2, *_ = env.step(None)
        hist2 = enc.update(obs2)
        # history slides: previous newest column moved left by one
        assert np.allclose(hist[:, -1], hist2[:, -2])


class TestAttentionQNetwork:
    def test_requires_binding(self):
        qnet = AttentionQNetwork(QNetConfig(), seed=0)
        with pytest.raises(RuntimeError):
            qnet.forward(np.zeros((1, 2, NODE_FEATURE_DIM)),
                         np.zeros((1, 1, PLC_FEATURE_DIM)),
                         np.zeros((1, GLOBAL_FEATURE_DIM)))

    def test_action_list_matches_orchestrator_set(self, tiny_topo):
        qnet = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(tiny_topo)
        assert set(qnet.action_list) == set(enumerate_actions(tiny_topo))
        assert qnet.n_actions == len(enumerate_actions(tiny_topo))

    def test_forward_shape_and_bounds(self, tiny_topo):
        cfg = QNetConfig(q_scale=4.0)
        qnet = AttentionQNetwork(cfg, seed=0).bind_topology(tiny_topo)
        node = np.random.default_rng(0).normal(
            size=(5, tiny_topo.n_nodes, NODE_FEATURE_DIM))
        plc = np.zeros((5, tiny_topo.n_plcs, PLC_FEATURE_DIM))
        glob = np.zeros((5, GLOBAL_FEATURE_DIM))
        q = qnet.forward(node, plc, glob)
        assert q.shape == (5, qnet.n_actions)
        assert (np.abs(q.data) <= cfg.q_scale).all()

    def test_parameter_count_independent_of_network_size(self):
        """The paper's core scaling claim (Section 4.4)."""
        small = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(
            build_topology(small_network().topology))
        big = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(
            build_topology(paper_network().topology))
        assert small.n_parameters() == big.n_parameters()
        assert big.n_actions > small.n_actions

    def test_same_weights_rebindable_across_topologies(self, tiny_tables):
        qnet = AttentionQNetwork(QNetConfig(), seed=0)
        for cfg in (tiny_network(), small_network()):
            topo = build_topology(cfg.topology)
            qnet.bind_topology(topo)
            node = np.zeros((1, topo.n_nodes, NODE_FEATURE_DIM))
            plc = np.zeros((1, topo.n_plcs, PLC_FEATURE_DIM))
            glob = np.zeros((1, GLOBAL_FEATURE_DIM))
            assert qnet.forward(node, plc, glob).shape == (1, qnet.n_actions)

    def test_q_values_single(self, tiny_topo, tiny_tables):
        env = repro.make_env(tiny_network(tmax=20), seed=0)
        qnet = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(env.topology)
        feat = ACSOFeaturizer(env.topology, tiny_tables)
        q = qnet.q_values(feat.update(env.reset(seed=0)))
        assert q.shape == (qnet.n_actions,)

    def test_paper_config_larger(self):
        assert QNetConfig.paper().encoder_layers == 4
        small = AttentionQNetwork(QNetConfig(), seed=0)
        paper = AttentionQNetwork(QNetConfig.paper(), seed=0)
        assert paper.n_parameters() > small.n_parameters()


#: the Q-network configurations the inference path must reproduce
PARITY_CONFIGS = {
    "default": QNetConfig(),
    "paper": QNetConfig.paper(),
    "compact": QNetConfig(d_model=16, n_heads=2, encoder_hidden=32,
                          head_hidden=32),
    "no-tanh": QNetConfig(final_tanh=False),
    "noisy-on": QNetConfig(noisy_heads=True),
    "noisy-off": QNetConfig(noisy_heads=True),
}


def _random_features(topo, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, topo.n_nodes, NODE_FEATURE_DIM)),
            rng.normal(size=(batch, topo.n_plcs, PLC_FEATURE_DIM)),
            rng.normal(size=(batch, GLOBAL_FEATURE_DIM)))


def _bits(array) -> bytes:
    array = np.asarray(array)
    return array.dtype.str.encode() + str(array.shape).encode() + array.tobytes()


class TestInferenceParity:
    """Under ``no_grad`` the Q-network runs on plain ndarrays; its
    output must equal the per-op autograd graph (the oracle in
    ``graph_oracle.py``) bit for bit."""

    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("network", ["tiny", "paper"])
    @pytest.mark.parametrize("config", sorted(PARITY_CONFIGS))
    def test_no_grad_forward_equals_graph_forward(self, config, network,
                                                  batch, paper_topology):
        topo = (paper_topology if network == "paper"
                else build_topology(tiny_network().topology))
        qnet = AttentionQNetwork(PARITY_CONFIGS[config], seed=5)
        qnet.bind_topology(topo)
        if config == "noisy-off":
            qnet.set_noise_enabled(False)
        feats = _random_features(topo, batch, seed=batch)

        graph = graph_oracle.q_forward(qnet, *feats)
        with no_grad():
            fast = qnet.forward(*feats)
        assert graph.requires_grad and graph._parents  # the graph path ran
        assert not fast.requires_grad and not fast._parents
        assert _bits(fast.data) == _bits(graph.data)

    def test_no_grad_forward_builds_no_graph(self, paper_topology,
                                             monkeypatch):
        """The fast path creates one result Tensor and no graph nodes."""
        qnet = AttentionQNetwork(QNetConfig(), seed=0)
        qnet.bind_topology(paper_topology)
        feats = _random_features(paper_topology, 1, seed=0)
        created = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            created.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        with no_grad():
            qnet.forward(*feats)
        assert len(created) == 1

    def test_q_values_equal_graph_forward(self, tiny_tables):
        env = repro.make_env(tiny_network(tmax=20), seed=0)
        qnet = AttentionQNetwork(QNetConfig(), seed=2).bind_topology(
            env.topology)
        feat = ACSOFeaturizer(env.topology, tiny_tables)
        features = feat.update(env.reset(seed=0))
        graph = graph_oracle.q_forward(qnet, *stack_features([features])).data[0]
        assert _bits(qnet.q_values(features)) == _bits(graph)

    def test_unbound_network_raises_without_grad(self):
        qnet = AttentionQNetwork(QNetConfig(), seed=0)
        with no_grad(), pytest.raises(RuntimeError):
            qnet.forward(np.zeros((1, 2, NODE_FEATURE_DIM)),
                         np.zeros((1, 1, PLC_FEATURE_DIM)),
                         np.zeros((1, GLOBAL_FEATURE_DIM)))

    def test_dqn_loss_sequence_unchanged(self, tiny_tables, monkeypatch):
        """A seeded 20-update training run takes the same actions and
        losses whether its no-grad passes (action selection, double-DQN
        targets) run graph-free or through the per-op graph."""

        def run():
            env = repro.make_env(tiny_network(tmax=60), seed=0)
            trainer = DQNTrainer(
                env, AttentionQNetwork(PARITY_CONFIGS["compact"], seed=3),
                ACSOFeaturizer(env.topology, tiny_tables),
                DQNConfig(batch_size=8, warmup=8, update_every=1,
                          target_update=10, eps_start=0.3, seed=0),
            )
            losses, actions = [], []
            update, select = trainer.update, trainer.select_actions_vec
            trainer.update = lambda: losses.append(update()) or losses[-1]

            def record_select(*args):
                chosen = select(*args)
                actions.append(int(chosen[0]))
                return chosen

            trainer.select_actions_vec = record_select
            trainer.train(episodes=1, seed=4, max_steps=34)
            return losses, actions

        fast = run()
        fused = AttentionQNetwork.forward

        def oracle_without_grad(net, *feats):
            if is_grad_enabled():
                return fused(net, *feats)
            return graph_oracle.q_forward(net, *feats)

        monkeypatch.setattr(AttentionQNetwork, "forward", oracle_without_grad)
        graph = run()
        assert len(fast[0]) == 20
        assert fast == graph


class TestRowIndependence:
    """A no-grad Q row, and a row of ``StochasticQPolicy``'s
    distributions, depend only on that row's state: scoring it alone,
    with its episode, with the whole chunk or in a permuted chunk gives
    the same bits. The OPE suite scores a chunk once and slices that
    block for every estimator (``repro.validation.fqe.PreparedChunk``),
    so a BLAS that broke this fails here by name."""

    #: episode lengths of one chunk
    LENGTHS = (1, 7, 25, 3)

    @pytest.mark.parametrize("network", ["tiny", "paper"])
    @pytest.mark.parametrize("config", ["compact", "default"])
    def test_rows_equal_alone_per_episode_whole_and_permuted(
            self, config, network, tiny_topology, paper_topology):
        topo = paper_topology if network == "paper" else tiny_topology
        qnet = AttentionQNetwork(PARITY_CONFIGS[config], seed=5)
        qnet.bind_topology(topo)
        policy = StochasticQPolicy(qnet, None, temperature=0.5, epsilon=0.05)
        rows = sum(self.LENGTHS)
        feats = _random_features(topo, rows, seed=rows)
        masks = np.random.default_rng(1).random((rows, qnet.n_actions)) < 0.5
        masks[:, 0] = True

        def score(index):
            block = FeatureSet(*(x[index] for x in feats))
            with no_grad():
                q = qnet.forward(block.node, block.plc, block.glob).data
            return q, policy.action_probs_batch(block, masks[index])

        whole = score(np.arange(rows))
        ends = np.cumsum(self.LENGTHS)
        episodes = [np.arange(end - n, end)
                    for n, end in zip(self.LENGTHS, ends)]
        order = np.random.default_rng(2).permutation(rows)
        scorings = [(np.array([i]), score([i])) for i in range(rows)]
        scorings += [(index, score(index)) for index in episodes]
        scorings.append((order, score(order)))
        for index, blocks in scorings:
            for got, want in zip(blocks, whole):
                for j, row in enumerate(index):
                    assert _bits(got[j]) == _bits(want[row]), (index, row)

    @pytest.mark.parametrize("kind", ["plain", "dueling", "c51"])
    @pytest.mark.parametrize("network", ["tiny", "paper"])
    @pytest.mark.parametrize("config", ["compact", "default"])
    def test_row_blocks_equal_one_piece_at_block_boundaries(
            self, config, network, kind, tiny_topology, paper_topology):
        """A no-grad forward of more than ``k`` rows runs as blocks of
        ``k`` (``repro.rl.qnetwork.BLOCK_TOKENS`` over the tokens per
        row); around each boundary its outputs equal the one-piece
        forward's bit for bit."""
        topo = paper_topology if network == "paper" else tiny_topology
        cls = {"plain": AttentionQNetwork, "dueling": DuelingAttentionQNetwork,
               "c51": DistributionalAttentionQNetwork}[kind]
        net = cls(PARITY_CONFIGS[config], seed=6).bind_topology(topo)
        k = net._block_rows
        assert k == max(1, BLOCK_TOKENS // (topo.n_nodes + topo.n_plcs + 1))

        def outputs(feats):
            with no_grad():
                out = [net.forward(*feats).data]
                if kind == "c51":
                    out.append(net.log_probs(*feats).data)
            return out

        for batch in sorted({max(1, k - 1), k, k + 1, 2 * k + 1}):
            feats = _random_features(topo, batch, seed=batch)
            blocked = outputs(feats)
            net._block_rows = batch  # the same forward in one piece
            whole = outputs(feats)
            net._block_rows = k
            assert [_bits(x) for x in blocked] == [_bits(x) for x in whole], \
                batch


#: the attention networks whose forwards and backward steps write in place
IN_PLACE_NETWORKS = {
    "plain": lambda: AttentionQNetwork(PARITY_CONFIGS["compact"], seed=4),
    "dueling": lambda: DuelingAttentionQNetwork(PARITY_CONFIGS["compact"],
                                                seed=4),
    "noisy": lambda: AttentionQNetwork(
        QNetConfig(d_model=16, encoder_hidden=32, head_hidden=32,
                   noisy_heads=True), seed=4),
    "c51": lambda: DistributionalAttentionQNetwork(
        PARITY_CONFIGS["compact"], seed=4,
        c51=C51Config(n_atoms=5, v_min=-4.0, v_max=4.0)),
}


def _backward(net, feats, seed):
    """Forward with gradients on the parameters and the inputs, then
    backward of sum(w * q); returns every gradient, parameters first."""
    inputs = [Tensor(x, requires_grad=True) for x in feats]
    net.zero_grad()
    q = net.forward(*inputs)
    q.backward(np.random.default_rng(seed).normal(size=q.shape))
    grads = [p.grad for p in net.parameters()] + [x.grad for x in inputs]
    net.zero_grad()
    return grads


class TestInPlaceSafety:
    """The forwards and backward steps overwrite only arrays made in the
    same call: inputs, parameters and a graph taped earlier survive."""

    @pytest.fixture(params=sorted(IN_PLACE_NETWORKS))
    def net(self, request, tiny_topology):
        return IN_PLACE_NETWORKS[request.param]().bind_topology(tiny_topology)

    @pytest.mark.parametrize("batch", [1, 16])
    def test_inputs_and_parameters_unchanged(self, net, tiny_topology, batch):
        feats = _random_features(tiny_topology, batch, seed=batch)
        one = FeatureSet(*(x[0].copy() for x in feats))
        before = [_bits(x) for x in (*feats, one.node, one.plc, one.glob)]
        params = [_bits(p.data) for p in net.parameters()]
        inputs = [Tensor(x, requires_grad=True) for x in feats]
        q = net.forward(*inputs)
        grad_out = np.random.default_rng(0).normal(size=q.shape)
        grad_bits = _bits(grad_out)
        q.backward(grad_out)
        with no_grad():
            net.forward(*feats)
        net.q_values(one)
        assert [_bits(x) for x in (*feats, one.node, one.plc, one.glob)] \
            == before
        assert [_bits(p.data) for p in net.parameters()] == params
        assert _bits(grad_out) == grad_bits

    @pytest.mark.parametrize("batch", [1, 16])
    def test_repeated_no_grad_calls_agree(self, net, tiny_topology, batch):
        feats = _random_features(tiny_topology, batch, seed=batch)
        other = _random_features(tiny_topology, batch, seed=batch + 100)
        with no_grad():
            first = net.forward(*feats).data
            kept = _bits(first)
            net.forward(*other)
            assert _bits(first) == kept
            second = net.forward(*feats).data
        assert _bits(second) == kept
        one = FeatureSet(*(x[0] for x in feats))
        assert _bits(net.q_values(one)) == _bits(net.q_values(one)) \
            == _bits(first[0])

    @pytest.mark.parametrize("batch", [1, 16])
    def test_taped_graph_survives_a_second_forward(self, net, tiny_topology,
                                                   batch):
        feats = _random_features(tiny_topology, batch, seed=batch)
        alone = _backward(net, feats, seed=batch)

        inputs = [Tensor(x, requires_grad=True) for x in feats]
        net.zero_grad()
        q = net.forward(*inputs)
        other = _random_features(tiny_topology, batch, seed=batch + 100)
        net.forward(*other)  # a second taped call
        with no_grad():
            net.forward(*other)
        q.backward(np.random.default_rng(batch).normal(size=q.shape))
        interleaved = ([p.grad for p in net.parameters()]
                       + [x.grad for x in inputs])
        assert [_bits(g) for g in interleaved] == [_bits(g) for g in alone]

        inputs = [Tensor(x, requires_grad=True) for x in feats]
        net.zero_grad()
        oracle_q = graph_oracle.q_forward(net, *inputs)
        assert _bits(oracle_q.data) == _bits(q.data)
        oracle_q.backward(np.random.default_rng(batch).normal(size=q.shape))
        oracle = [p.grad for p in net.parameters()] + [x.grad for x in inputs]
        net.zero_grad()
        for index, (got, want) in enumerate(zip(interleaved, oracle)):
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-15 * scale,
                                       err_msg=f"gradient {index}")


class TestParameterCache:
    """``Module.parameters`` walks the module tree once; the list follows
    the module through copies, restores and new attributes."""

    @staticmethod
    def _net(topo, seed):
        return AttentionQNetwork(PARITY_CONFIGS["compact"], seed=seed) \
            .bind_topology(topo)

    def test_walk_sees_each_parameter_once(self, tiny_topology):
        net = self._net(tiny_topology, 0)
        names = [name for name, _ in net.named_parameters()]
        assert net.parameters() == [p for _, p in net.named_parameters()]
        assert [name for name, _ in net.named_parameters()] == names
        assert list(net.state_dict()) == names

    def test_copies_put_gradients_on_their_own_parameters(self, tiny_topology):
        net = self._net(tiny_topology, 0)
        feats = _random_features(tiny_topology, 4, seed=0)
        want = _backward(net, feats, seed=0)  # fills the cache

        copied = copy.deepcopy(net)
        restored = self._net(tiny_topology, 9)
        _backward(restored, feats, seed=0)  # cache filled before the load
        restored.load_state_dict(net.state_dict())
        for other in (copied, restored):
            params = other.parameters()
            assert params == [p for _, p in other.named_parameters()]
            assert not {id(p) for p in params} & {id(p) for p in net.parameters()}
            got = _backward(other, feats, seed=0)
            assert [_bits(g) for g in got] == [_bits(g) for g in want]
            other.forward(*feats).backward(np.ones((4, other.n_actions)))
            assert all(p.grad is not None for p in params)
            assert all(p.grad is None for p in net.parameters())
            other.zero_grad()

    def test_new_attribute_refreshes_the_list(self, tiny_topology):
        net = self._net(tiny_topology, 0)
        count = len(net.parameters())
        net.extra = Linear(3, 2)
        assert len(net.parameters()) == count + 2
        assert net.parameters()[-2:] == [net.extra.weight, net.extra.bias]


def _module_input(shape, seed):
    """Random input with exact zeros, a negative zero and subnormals,
    the edge cases of the activation rewrites."""
    x = np.random.default_rng(seed).normal(size=shape)
    flat = x.reshape(-1)
    flat[:4] = [0.0, -0.0, 5e-324, -5e-324]
    return x


class TestModuleArrayForward:
    """Each module's ``forward_array`` equals its per-op graph forward."""

    @pytest.mark.parametrize("module, shape", [
        (Linear(7, 5, rng=np.random.default_rng(0)), (3, 4, 7)),
        (Linear(7, 5, rng=np.random.default_rng(1), bias=False), (4, 7)),
        (MLP([6, 9, 4], rng=np.random.default_rng(2)), (2, 5, 6)),
        (MLP([6, 9, 9, 4], act="relu", final_act="tanh",
             rng=np.random.default_rng(3)), (2, 5, 6)),
        (MLP([6, 9, 4], act="sigmoid", final_act="leaky_relu",
             rng=np.random.default_rng(4)), (5, 6)),
        (LayerNorm(8), (3, 6, 8)),
        (MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(5)), (3, 6, 8)),
        (MultiHeadSelfAttention(8, 4, rng=np.random.default_rng(6)), (6, 8)),
        (AttentionBlock(8, 2, ff_hidden=16, rng=np.random.default_rng(7)),
         (3, 6, 8)),
        (NoisyLinear(7, 5, rng=np.random.default_rng(8)), (3, 4, 7)),
        (NoisyMLP([6, 9, 4], rng=np.random.default_rng(9)), (2, 5, 6)),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else None)
    @pytest.mark.parametrize("noise", [True, False])
    def test_forward_array_equals_forward(self, module, shape, noise):
        module.set_noise_enabled(noise)
        x = _module_input(shape, seed=len(shape))
        graph = graph_oracle.forward(module, Tensor(x)).data
        assert _bits(module.forward_array(x)) == _bits(graph)


class TestConvQNetwork:
    def test_forward_shape(self):
        net = ConvQNetwork(step_dim=30, n_actions=49,
                           config=ConvNetConfig(window=64), seed=0)
        out = net.forward(np.zeros((2, 30, 64)))
        assert out.shape == (2, 49)

    def test_rejects_history_of_another_window(self):
        """A window mismatch is named, not a reshape error."""
        net = ConvQNetwork(step_dim=30, n_actions=49,
                           config=ConvNetConfig(window=16, channels=(8,)), seed=0)
        with pytest.raises(ValueError, match=r"window 32 != network window 16"):
            net.forward(np.zeros((2, 30, 32)))

    def test_parameters_grow_with_action_space(self):
        small = ConvQNetwork(step_dim=30, n_actions=49, seed=0)
        big = ConvQNetwork(step_dim=30, n_actions=329, seed=0)
        assert big.n_parameters() > small.n_parameters()

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            ConvQNetwork(step_dim=4, n_actions=3,
                         config=ConvNetConfig(window=4, channels=(8, 8, 8)))


class TestShaping:
    def test_securing_nodes_is_rewarded(self):
        shaper = PotentialShaper(gamma=0.99, a_weight=1.0, b_weight=2.0)
        phi_bad = shaper.potential(3, 1)  # -(3 + 2)
        phi_good = shaper.potential(1, 0)
        assert shaper.shape(phi_bad, phi_good) > 0
        assert shaper.shape(phi_good, phi_bad) < 0

    def test_telescoping_sum_is_policy_invariant(self):
        """Sum of discounted shaping terms collapses to -Phi(s0): the
        potential-based guarantee of Ng et al. (paper's non-bias claim)."""
        gamma = 0.9
        shaper = PotentialShaper(gamma)
        rng = np.random.default_rng(0)
        counts = [(int(rng.integers(5)), int(rng.integers(3))) for _ in range(20)]
        phis = [shaper.potential(w, s) for w, s in counts]
        shaped = 0.0
        for t in range(len(phis) - 1):
            done = t == len(phis) - 2
            shaped += gamma ** t * shaper.shape(phis[t], phis[t + 1], done=done)
        assert shaped == pytest.approx(-phis[0])

    def test_potential_from_info(self):
        shaper = PotentialShaper(0.99, 1.0, 2.0)
        info = {"n_ws_compromised": 2, "n_srv_compromised": 1}
        assert shaper.potential_from_info(info) == -(2 + 2)


class TestSchedules:
    def test_exponential_decay(self):
        eps = ExponentialDecay(1.0, 0.05, 0.999)
        assert eps(0) == 1.0
        assert eps(1) == pytest.approx(0.999)
        assert eps(100000) == 0.05

    def test_linear_schedule(self):
        beta = LinearSchedule(0.4, 1.0, 100)
        assert beta(0) == pytest.approx(0.4)
        assert beta(50) == pytest.approx(0.7)
        assert beta(100) == 1.0
        assert beta(500) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialDecay(decay=0.0)
        with pytest.raises(ValueError):
            LinearSchedule(0, 1, 0)
