"""Tests for Q-networks, features, shaping, and schedules."""

import copy
import sys
import threading

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
    Tensor,
    array_activation,
)
from repro.nn.tape import Tape
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    ConvQNetwork,
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
from repro.rl.qnetwork import (
    BLOCK_TOKENS,
    DISTINCT_MIN_TOKENS,
    ConvNetConfig,
    _RowPartition,
    _attention_rows,
    _layer_norm_rows,
    _mlp_rows,
)
from repro.sim.orchestrator import enumerate_actions
from repro.defenders import ACSOPolicy
from repro.validation import StochasticQPolicy, collect_logged_episodes
from repro.validation.fqe import PreparedChunk


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
    """Without ``grad`` the Q-network runs on plain ndarrays; its
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
        feats = _random_features(topo, batch, seed=batch)

        graph = graph_oracle.q_forward(qnet, *feats)
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
        with pytest.raises(RuntimeError):
            qnet.forward(np.zeros((1, 2, NODE_FEATURE_DIM)),
                         np.zeros((1, 1, PLC_FEATURE_DIM)),
                         np.zeros((1, GLOBAL_FEATURE_DIM)))

    def test_dqn_loss_sequence_unchanged(self, tiny_tables, monkeypatch):
        """A seeded 20-update training run takes the same actions and
        losses whether its untaped passes (action selection, double-DQN
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

        def oracle_without_grad(net, *feats, grad=False):
            if grad:
                return fused(net, *feats, grad=True)
            return graph_oracle.q_forward(net, *feats)

        monkeypatch.setattr(AttentionQNetwork, "forward", oracle_without_grad)
        graph = run()
        assert len(fast[0]) == 20
        assert fast == graph


class _Taped(AssertionError):
    """Raised by the patched taped forward."""


class TestInferenceCallSites:
    """Every inference caller runs the untaped pass and enters it
    through ``AttentionQNetwork.forward``, where perfbench's
    ``qnet.forward`` span attributes it. The taped forward is patched
    to raise, so a caller that asks for a tape fails here."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The ``grad`` argument of every ``forward`` call, in order."""
        calls = []
        forward = AttentionQNetwork.forward

        def counted(net, *feats, grad=False):
            calls.append(grad)
            return forward(net, *feats, grad=grad)

        def taped(*args, **kwargs):
            raise _Taped("the taped forward ran")

        monkeypatch.setattr(AttentionQNetwork, "forward", counted)
        monkeypatch.setattr(AttentionQNetwork, "_forward_array", taped)
        return calls

    def test_acso_decision(self, calls, tiny_tables):
        env = repro.make_env(tiny_network(tmax=20), seed=0)
        policy = ACSOPolicy(AttentionQNetwork(PARITY_CONFIGS["compact"], seed=2),
                            tiny_tables)
        policy.reset(env)
        policy.act(env.reset(seed=0))
        assert calls == [False]

    def test_dqn_action_selection_and_targets(self, calls, tiny_tables):
        """Greedy collection runs one untaped forward per step; an update
        runs the target and online networks' untaped forwards, then
        the one taped forward of the loss."""
        env = repro.make_env(tiny_network(tmax=60), seed=0)
        trainer = DQNTrainer(
            env, AttentionQNetwork(PARITY_CONFIGS["compact"], seed=3),
            ACSOFeaturizer(env.topology, tiny_tables),
            DQNConfig(batch_size=4, warmup=10**6, n_step=2, eps_start=0.0,
                      eps_end=0.0, seed=0),
        )
        trainer.train(episodes=1, seed=4, max_steps=12)
        assert calls == [False] * 12
        assert len(trainer.replay) >= 4
        calls.clear()
        with pytest.raises(_Taped):
            trainer.update()
        assert calls == [False, False, True]

    @pytest.fixture()
    def logged(self, tiny_tables):
        """A target policy and one logged tiny-network episode."""
        env = repro.make_env(tiny_network(tmax=30), seed=0)
        qnet = AttentionQNetwork(PARITY_CONFIGS["compact"], seed=1) \
            .bind_topology(env.topology)
        target = StochasticQPolicy(qnet, tiny_tables, temperature=0.5,
                                   epsilon=0.05, seed=5)
        episode, = collect_logged_episodes(env, target, episodes=1, seed=0,
                                           max_steps=30)
        return qnet, target, episode

    def test_target_policy_scoring(self, logged, calls):
        _, target, episode = logged
        calls.clear()
        target.action_probs_batch(episode.features, episode.masks)
        assert calls == [False]

    @pytest.mark.parametrize("keep", [True, False])
    def test_prepared_chunk_policy_values(self, logged, calls, keep):
        qnet, target, episode = logged
        chunk = PreparedChunk([episode], 0, episode.gamma, target, keep)
        calls.clear()
        chunk.policy_values(qnet, np.arange(len(episode)))
        assert calls and not any(calls)


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

    @pytest.mark.parametrize("network", ["tiny", "paper"])
    @pytest.mark.parametrize("config", ["compact", "default"])
    def test_row_blocks_equal_one_piece_at_block_boundaries(
            self, config, network, tiny_topology, paper_topology):
        """A no-grad forward of more than ``k`` rows runs as blocks of
        ``k`` (``repro.rl.qnetwork.BLOCK_TOKENS`` over the tokens per
        row); around each boundary its outputs equal the one-piece
        forward's bit for bit."""
        topo = paper_topology if network == "paper" else tiny_topology
        net = AttentionQNetwork(PARITY_CONFIGS[config], seed=6) \
            .bind_topology(topo)
        k = net._block_rows
        assert k == max(1, BLOCK_TOKENS // (topo.n_nodes + topo.n_plcs + 1))

        def output(feats):
            return _bits(net.forward(*feats).data)

        for batch in sorted({max(1, k - 1), k, k + 1, 2 * k + 1}):
            feats = _random_features(topo, batch, seed=batch)
            blocked = output(feats)
            net._block_rows = batch  # the same forward in one piece
            whole = output(feats)
            net._block_rows = k
            assert blocked == whole, batch



def _duplicated_states(topo, seed):
    """One state per duplicate pattern, by name: (N, Fn), (M, Fp), (G,)."""
    n, m = topo.n_nodes, topo.n_plcs
    rng = np.random.default_rng(seed)

    def fresh():
        return [x[0] for x in _random_features(topo, 1, rng.integers(1 << 30))]

    states = {"no duplicates": fresh()}
    node, plc, glob = fresh()
    states["every PLC row equal"] = (node, np.repeat(plc[:1], m, axis=0), glob)
    node, plc, glob = fresh()
    states["every node row equal"] = (np.repeat(node[:1], n, axis=0), plc, glob)
    node, plc, glob = fresh()
    states["every row equal"] = (np.repeat(node[:1], n, axis=0),
                                 np.repeat(plc[:1], m, axis=0), glob)
    node, plc, glob = fresh()
    node[1:] = node[1]  # node 0 alone, the rest one group
    states["a one-token group"] = (node, np.repeat(plc[:1], m, axis=0), glob)
    node, plc, glob = fresh()
    states["a few groups"] = (node[rng.integers(0, 3, n)],
                              plc[rng.integers(0, 2, m)], glob)
    return states


#: the Q-networks that score exchangeable node and PLC rows, by name
DISTINCT_ROW_NETWORKS = {"plain": AttentionQNetwork}
NETWORK_KINDS = sorted(DISTINCT_ROW_NETWORKS)


def _distinct_net(kind, config, topo):
    net = DISTINCT_ROW_NETWORKS[kind](PARITY_CONFIGS[config], seed=8) \
        .bind_topology(topo)
    # the tiny topology is below DISTINCT_MIN_TOKENS: check its
    # arithmetic all the same
    net._distinct_rows = True
    return net


def _single_and_stacked(net, node, plc, glob):
    """The Q-values of one state alone (the distinct-row path) and as
    the first row of the same state stacked twice (the full forward)."""
    one = (node[None], plc[None], glob[None])
    two = (np.stack([node, node]), np.stack([plc, plc]), np.stack([glob, glob]))
    return (_bits(net.forward(*one).data[0]),
            _bits(net.forward(*two).data[0]))


class TestDistinctRows:
    """A no-grad forward of one state runs the encoders, the attention
    blocks' row-wise work and the heads' hidden layers on one row per
    group of byte-identical node or PLC rows
    (``repro.rl.qnetwork._RowPartition``). Every output must equal the
    full forward's (the same state stacked at B=2) bit for bit."""

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    @pytest.mark.parametrize("network", ["tiny", "paper"])
    @pytest.mark.parametrize("config", ["compact", "default", "paper"])
    def test_outputs_equal_the_full_forward(self, config, network, kind,
                                            tiny_topology, paper_topology):
        topo = paper_topology if network == "paper" else tiny_topology
        net = _distinct_net(kind, config, topo)
        for name, (node, plc, glob) in _duplicated_states(topo, 3).items():
            alone, stacked = _single_and_stacked(net, node, plc, glob)
            assert alone == stacked, name
            partition = net._partition
            assert partition.nodes.holds(node) and partition.plcs.holds(plc), \
                name

    def test_groups_keep_two_rows_and_heads_gather_their_tokens(
            self, paper_topology):
        """A one-group type still runs two rows (no one-row matmul where
        the full forward runs several); the noop token, one row in the
        full forward too, stays one row."""
        net = _distinct_net("plain", "compact", paper_topology)
        node, plc, glob = _duplicated_states(paper_topology, 3)["every row equal"]
        net.forward(node[None], plc[None], glob[None])
        partition = net._partition
        assert list(partition.nodes.rows) == [0, 0]
        assert list(partition.plcs.rows) == [0, 0]
        assert len(partition.keys) == paper_topology.n_nodes \
            + paper_topology.n_plcs + 1
        distinct = np.arange(len(partition.nodes.rows)
                             + len(partition.plcs.rows) + 1)
        for (head, index, _), (own, rows, gather) in zip(net._heads,
                                                         partition.heads):
            assert own is head
            tokens = len(partition.keys[index])
            # one token reads its row as it is, no gather
            assert (gather is None) if tokens == 1 else len(gather) == tokens
            assert len(distinct[rows]) == (1 if tokens == 1 else 2)

    def test_recorded_episode_states(self, paper_topology, tiny_tables):
        """Featurized states of a paper-network episode, whose node rows
        repeat by type and role."""
        env = repro.make_env(paper_network(tmax=40), seed=0)
        featurizer = ACSOFeaturizer(env.topology, tiny_tables)
        net = AttentionQNetwork(QNetConfig(), seed=8).bind_topology(env.topology)
        assert net._distinct_rows
        features = featurizer.update(env.reset(seed=4))
        rng = np.random.default_rng(0)
        for step in range(30):
            alone, stacked = _single_and_stacked(
                net, features.node, features.plc, features.glob)
            assert alone == stacked, step
            action = int(rng.integers(len(net.action_list)))
            obs, _, done, _ = env.step(net.action_list[action])
            if done:
                break
            features = featurizer.update(obs)

    @pytest.mark.parametrize("change", ["moved belief", "signed zero", "nan"])
    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_changed_rows_are_regrouped(self, change, kind, tiny_topology,
                                        paper_topology):
        """The partition of the last state is reused only while every
        row is byte-equal to its group's row: a row that changed since,
        even to a float-equal value, is regrouped."""
        for topo in (tiny_topology, paper_topology):
            net = _distinct_net(kind, "compact", topo)
            node, plc, glob = _duplicated_states(topo, 5)["every row equal"]
            node[:, 0] = 0.0
            plc[:, 0] = 0.0
            _single_and_stacked(net, node, plc, glob)
            kept = net._partition
            node, plc = node.copy(), plc.copy()
            if change == "moved belief":
                node[2, :3] = node[2, :3] + np.array([1e-12, -1e-12, 0.0])
                plc[1, 0] = np.nextafter(plc[1, 0], np.inf)
            elif change == "signed zero":  # float-equal, not byte-equal
                node[2, 0] = -0.0
                plc[1, 0] = -0.0
            else:
                node[2, 1] = np.nan
                plc[1, 2] = np.nan
            alone, stacked = _single_and_stacked(net, node, plc, glob)
            assert alone == stacked
            partition = net._partition
            assert partition is not kept
            assert partition.nodes.holds(node) and partition.plcs.holds(plc)
            # node 2 and PLC 1 now sit in groups of their own
            assert list(partition.nodes.rep_of).count(2) == 1
            assert list(partition.plcs.rep_of).count(1) == 1

    @pytest.mark.parametrize("network", ["tiny", "paper"])
    def test_rows_that_became_equal_are_regrouped(self, network,
                                                  tiny_topology,
                                                  paper_topology):
        """Rows of groups of one that become byte-equal merge: a
        partition whose rows all still equal their groups' rows is not
        reused once two of its groups are equal."""
        topo = paper_topology if network == "paper" else tiny_topology
        net = _distinct_net("plain", "compact", topo)
        node, plc, glob = _duplicated_states(topo, 7)["no duplicates"]
        _single_and_stacked(net, node, plc, glob)
        node, plc = node.copy(), plc.copy()
        node[2] = node[0]
        plc[1:] = plc[0]
        alone, stacked = _single_and_stacked(net, node, plc, glob)
        assert alone == stacked
        partition = net._partition
        assert partition.nodes.rep_of[2] == 0
        assert list(partition.plcs.rows) == [0, 0]
        assert len(partition.nodes.first) == topo.n_nodes - 1

    def test_threads_sharing_a_network(self, paper_topology):
        """Threads scoring their own states on one network get the full
        forward's bits: each reads the shared partition once and checks
        it against its own rows before using it."""
        net = _distinct_net("plain", "compact", paper_topology)
        states = [list(_duplicated_states(paper_topology, seed).values())
                  for seed in range(4)]
        want = [[_single_and_stacked(net, *state)[1] for state in mine]
                for mine in states]
        failures = []

        def work(mine, expected):
            for _ in range(50):
                for (node, plc, glob), bits in zip(mine, expected):
                    got = net.forward(node[None], plc[None], glob[None])
                    if _bits(got.data[0]) != bits:
                        failures.append(bits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=pair)
                       for pair in zip(states, want)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures

    def test_partition_reused_while_rows_hold(self, paper_topology):
        net = _distinct_net("plain", "compact", paper_topology)
        node, plc, glob = _duplicated_states(paper_topology, 6)["a few groups"]
        _single_and_stacked(net, node, plc, glob)
        kept = net._partition
        glob = glob + 1.0  # the global features are not grouped
        alone, stacked = _single_and_stacked(net, node.copy(), plc.copy(), glob)
        assert alone == stacked
        assert net._partition is kept
        assert isinstance(kept, _RowPartition)

    def test_rule_and_full_forward_paths(self, tiny_topology, paper_topology):
        """The distinct-row path runs only on a no-grad forward of one
        state of a network of at least DISTINCT_MIN_TOKENS tokens."""
        for topo in (tiny_topology, paper_topology):
            net = AttentionQNetwork(QNetConfig(), seed=1).bind_topology(topo)
            tokens = topo.n_nodes + topo.n_plcs + 1
            assert net._distinct_rows == (tokens >= DISTINCT_MIN_TOKENS)
            feats = _random_features(topo, 2, seed=0)
            net.forward(*feats)
            net.forward(*(x[:1] for x in feats), grad=True)
            assert net._partition is None
            net.forward(*(x[:1] for x in feats))
            assert (net._partition is not None) == net._distinct_rows
        assert tiny_topology.n_nodes + tiny_topology.n_plcs + 1 \
            < DISTINCT_MIN_TOKENS <= paper_topology.n_nodes \
            + paper_topology.n_plcs + 1


def _program_net(name, topo):
    return AttentionQNetwork(PARITY_CONFIGS[name], seed=9).bind_topology(topo)


def _taped(net, node, plc, glob) -> bytes:
    """The taped forward's output: the training path, which records a
    backward step per module."""
    return _bits(net._forward_array(node, plc, glob,
                                    tape=Tape(input_grad=False)))


def _program(net, node, plc, glob) -> bytes:
    return _bits(net._infer(node, plc, glob))


class TestInferenceProgram:
    """The no-grad forward is one straight-line program
    (``AttentionQNetwork._infer``); the taped ``_forward_array`` is its
    differential oracle. Every output must match it byte for byte."""

    @pytest.mark.parametrize("network", ["tiny", "small", "paper"])
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_batches_equal_the_taped_forward(self, name, network,
                                             tiny_topology, paper_topology):
        topo = {"tiny": tiny_topology, "paper": paper_topology,
                "small": build_topology(small_network().topology)}[network]
        net = _program_net(name, topo)
        k = net._block_rows
        for batch in sorted({1, 2, 3, k, k + 1, 156}):
            feats = _random_features(topo, batch, seed=batch)
            assert _program(net, *feats) == _taped(net, *feats), batch
        # the entry point runs the program
        assert _bits(net.forward(*feats).data) == _taped(net, *feats)

    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("network", ["tiny", "small", "paper"])
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_one_state_equals_the_taped_forward(self, name, network, distinct,
                                                tiny_topology, paper_topology):
        """One state runs as 2-D rows, on its distinct rows or on all."""
        topo = {"tiny": tiny_topology, "paper": paper_topology,
                "small": build_topology(small_network().topology)}[network]
        net = _program_net(name, topo)
        net._distinct_rows = distinct
        for pattern, state in _duplicated_states(topo, 11).items():
            one = tuple(x[None] for x in state)
            assert _program(net, *one) == _taped(net, *one), pattern
            assert (net._partition is not None) == distinct

    def test_recorded_paper_episode(self, paper_topology, tiny_tables):
        """The featurized states of a 30-step paper-network episode, one
        by one (the distinct-row path) and as one batch."""
        env = repro.make_env(paper_network(tmax=40), seed=0)
        featurizer = ACSOFeaturizer(env.topology, tiny_tables)
        net = AttentionQNetwork(QNetConfig(), seed=8).bind_topology(env.topology)
        assert net._distinct_rows
        states = [featurizer.update(env.reset(seed=4))]
        rng = np.random.default_rng(0)
        for _ in range(29):
            action = int(rng.integers(len(net.action_list)))
            obs, _, done, _ = env.step(net.action_list[action])
            assert not done
            states.append(featurizer.update(obs))
        for step, state in enumerate(states):
            one = (state.node[None], state.plc[None], state.glob[None])
            assert _program(net, *one) == _taped(net, *one), step
        stacked = stack_features(states)
        assert _program(net, *stacked) == _taped(net, *stacked)

    def test_distinct_token_rows_attend_over_all_tokens(self):
        """With ``keys`` (each token's row), an attention block run on the
        distinct token rows gives each token's row of the block run on
        every token: queries on the distinct rows, keys and values
        gathered back to all tokens in token order."""
        block = AttentionBlock(8, 2, ff_hidden=16, rng=np.random.default_rng(7))
        rng = np.random.default_rng(3)
        for rows, tokens in [(2, 9), (3, 3), (5, 17)]:
            distinct = _module_input((rows, 8), seed=rows)
            keys = np.concatenate([np.arange(rows),
                                   rng.integers(0, rows, tokens - rows)])
            rng.shuffle(keys)
            full = block.forward_array(distinct[keys])
            mine = _attention_rows(block, distinct, keys)
            for token, row in enumerate(keys):
                assert _bits(mine[row]) == _bits(full[token]), (rows, token)
        batch = _module_input((3, 6, 8), seed=4)
        assert _bits(_attention_rows(block, batch, None)) \
            == _bits(block.forward_array(batch))

    @pytest.mark.parametrize("shape", [(5, 6), (2, 5, 6)])
    def test_row_helpers_equal_the_module_forwards(self, shape):
        """The program's straight-line MLP and layer norm equal the
        modules' ``forward_array`` (edge-case inputs included); with
        ``rows`` the MLP equals its hidden layers' forwards, then the
        gather of ``rows``, then the output layer's forward."""
        mlp = MLP([6, 9, 9, 4], rng=np.random.default_rng(2))
        norm = LayerNorm(6)
        norm.gamma.data = np.random.default_rng(3).normal(size=6)
        norm.beta.data = np.random.default_rng(4).normal(size=6)
        x = _module_input(shape, seed=len(shape))
        assert _bits(_mlp_rows(mlp, x)) == _bits(mlp.forward_array(x))
        rows = np.array([4, 0, 0, 2])
        leaky_relu = array_activation("leaky_relu")[0]
        *hidden, last = mlp.linears
        h = x
        for linear in hidden:
            h = leaky_relu(linear.forward_array(h))
        assert _bits(_mlp_rows(mlp, x, rows)) \
            == _bits(last.forward_array(h[..., rows, :]))
        assert _bits(_layer_norm_rows(norm, x)) == _bits(norm.forward_array(x))


#: the attention networks whose forwards and backward steps write in place
IN_PLACE_NETWORKS = {
    "plain": lambda: AttentionQNetwork(PARITY_CONFIGS["compact"], seed=4),
}


def _backward(net, feats, seed):
    """Forward with gradients on the parameters and the inputs, then
    backward of sum(w * q); returns every gradient, parameters first."""
    inputs = [Tensor(x, requires_grad=True) for x in feats]
    net.zero_grad()
    q = net.forward(*inputs, grad=True)
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
        q = net.forward(*inputs, grad=True)
        grad_out = np.random.default_rng(0).normal(size=q.shape)
        grad_bits = _bits(grad_out)
        q.backward(grad_out)
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
        q = net.forward(*inputs, grad=True)
        other = _random_features(tiny_topology, batch, seed=batch + 100)
        net.forward(*other, grad=True)  # a second taped call
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
            other.forward(*feats, grad=True).backward(
                np.ones((4, other.n_actions)))
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
    ], ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else None)
    @pytest.mark.parametrize("taped", [True, False])
    def test_forward_array_equals_forward(self, module, shape, taped):
        """Recording the backward steps on a tape leaves the output's
        bits as they are without one."""
        x = _module_input(shape, seed=len(shape))
        graph = graph_oracle.forward(module, Tensor(x)).data
        tape = Tape() if taped else None
        assert _bits(module.forward_array(x, tape)) == _bits(graph)
        assert bool(tape is not None and tape.steps) == taped


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
