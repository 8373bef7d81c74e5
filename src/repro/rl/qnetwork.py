"""Q-networks: the attention architecture of Fig 5 and the
convolutional baseline of Table 7.

The attention network embeds every computing node, every PLC, and one
learned "no-action" seed token into a shared latent space, runs global
self-attention so each token sees the rest of the network, appends the
global PLC summary, and decodes per-type action values through shared
heads. All sub-graphs of a node type share parameters, so the
parameter count does not grow with the number of nodes -- the paper's
central scaling argument.

With autograd disabled (:func:`repro.nn.no_grad`) the attention
network's :meth:`~AttentionQNetwork.forward` runs on plain ndarrays
through the modules' ``forward_array`` methods: no :class:`Tensor` per
op and no graph, with Q-values bitwise equal to the graph forward. Every
no-grad caller (greedy action selection, DQN targets, FQE, OPE
propensities) takes that path; the graph forward remains the training
path and the differential oracle. Subclasses that override ``forward``
(dueling, C51) keep their graph path.

The convolutional baseline flattens the whole network into one vector
per time step and strides over the history window; its output layer is
one unit per action, so its size grows linearly with the network (329
outputs on the paper topology).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.topology import Topology
from repro.nn import (
    AttentionBlock,
    Conv1d,
    MLP,
    Module,
    Parameter,
    Tensor,
    concat,
    is_grad_enabled,
)
from repro.rl.features import (
    GLOBAL_FEATURE_DIM,
    NODE_FEATURE_DIM,
    PLC_FEATURE_DIM,
    FeatureSet,
    stack_features,
)
from repro.sim.orchestrator import (
    HOST_ACTIONS,
    PLC_ACTIONS,
    SERVER_ACTIONS,
    DefenderAction,
    DefenderActionType,
)

__all__ = ["QNetConfig", "AttentionQNetwork", "ConvQNetwork"]


@dataclass(frozen=True)
class QNetConfig:
    d_model: int = 32
    n_heads: int = 2
    n_attention_layers: int = 1
    encoder_hidden: int = 64
    encoder_layers: int = 2
    head_hidden: int = 64
    final_tanh: bool = True
    #: value range of the tanh head in normalized-return units; the
    #: trainer scales rewards by (1 - gamma) so task returns are O(1),
    #: but shaped returns can reach +/- (A*nW + B*nS) on a fully
    #: compromised network -- the scale must cover that envelope
    q_scale: float = 24.0
    #: replace the output heads with NoisyLinear stacks (Rainbow's
    #: learned-exploration component; see benchmarks/bench_rl_ablation)
    noisy_heads: bool = False
    #: sigma0 initialization for noisy heads
    noisy_sigma0: float = 0.5

    @staticmethod
    def paper() -> "QNetConfig":
        """Exact Table 6 widths (4-layer encoders, 128-wide attention)."""
        return QNetConfig(
            d_model=32,
            n_heads=2,
            n_attention_layers=2,
            encoder_hidden=64,
            encoder_layers=4,
            head_hidden=128,
        )


def _encoder_dims(in_dim: int, hidden: int, out: int, layers: int) -> list[int]:
    return [in_dim] + [hidden] * max(0, layers - 1) + [out]


class AttentionQNetwork(Module):
    """Size-agnostic Q-network; bind a topology before use."""

    def __init__(self, config: QNetConfig | None = None, seed: int = 0):
        self.config = config or QNetConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        self.node_encoder = MLP(
            _encoder_dims(NODE_FEATURE_DIM, cfg.encoder_hidden, cfg.d_model,
                          cfg.encoder_layers),
            rng=rng,
        )
        self.plc_encoder = MLP(
            _encoder_dims(PLC_FEATURE_DIM, cfg.encoder_hidden, cfg.d_model,
                          max(2, cfg.encoder_layers - 1)),
            rng=rng,
        )
        self.noop_seed = Parameter(rng.normal(scale=0.1, size=cfg.d_model))
        self.blocks = [
            AttentionBlock(cfg.d_model, cfg.n_heads, ff_hidden=2 * cfg.d_model,
                           rng=rng)
            for _ in range(cfg.n_attention_layers)
        ]
        head_in = cfg.d_model + GLOBAL_FEATURE_DIM
        self.host_head = self._make_head(head_in, len(HOST_ACTIONS), rng)
        self.server_head = self._make_head(head_in, len(SERVER_ACTIONS), rng)
        self.plc_head = self._make_head(head_in, len(PLC_ACTIONS), rng)
        self.noop_head = self._make_head(head_in, 1, rng)
        # topology binding (not parameters; re-computed per network size)
        self._host_ids: np.ndarray = np.zeros(0, np.int64)
        self._server_ids: np.ndarray = np.zeros(0, np.int64)
        self._n_nodes = 0
        self._n_plcs = 0
        self.action_list: list[DefenderAction] = []

    # ------------------------------------------------------------------
    def bind_topology(self, topology: Topology) -> "AttentionQNetwork":
        """Attach a network topology; parameters are unchanged.

        The same trained weights can therefore be evaluated on networks
        of different size (Section 4.4).
        """
        self._host_ids = np.array(
            [n.node_id for n in topology.nodes if not n.is_server], np.int64
        )
        self._server_ids = np.array(
            [n.node_id for n in topology.nodes if n.is_server], np.int64
        )
        self._n_nodes = topology.n_nodes
        self._n_plcs = topology.n_plcs
        actions: list[DefenderAction] = [DefenderAction(DefenderActionType.NOOP)]
        for node_id in self._host_ids:
            actions.extend(DefenderAction(a, int(node_id)) for a in HOST_ACTIONS)
        for node_id in self._server_ids:
            actions.extend(DefenderAction(a, int(node_id)) for a in SERVER_ACTIONS)
        for plc_id in range(self._n_plcs):
            actions.extend(DefenderAction(a, plc_id) for a in PLC_ACTIONS)
        self.action_list = actions
        return self

    @property
    def n_actions(self) -> int:
        return len(self.action_list)

    def clone(self, seed: int = 0) -> "AttentionQNetwork":
        """Fresh network of the same class and config (target nets)."""
        return type(self)(self.config, seed=seed)

    # ------------------------------------------------------------------
    def _make_head(self, head_in: int, out_dim: int, rng) -> Module:
        """Build one per-type output head (plain or noisy MLP)."""
        cfg = self.config
        dims = [head_in, cfg.head_hidden, out_dim]
        if cfg.noisy_heads:
            from repro.nn import NoisyMLP

            return NoisyMLP(dims, sigma0=cfg.noisy_sigma0, rng=rng)
        return MLP(dims, rng=rng)

    def _check_bound(self) -> None:
        if self._n_nodes == 0:
            raise RuntimeError("bind_topology() must be called before forward()")

    def _contextualize(self, node_feats, plc_feats, glob_feats):
        """Encoders + attention; returns (tokens, glob tensor, batch).

        Shared by this class and the dueling / distributional variants.
        """
        self._check_bound()
        node_feats = node_feats if isinstance(node_feats, Tensor) else Tensor(node_feats)
        plc_feats = plc_feats if isinstance(plc_feats, Tensor) else Tensor(plc_feats)
        glob_feats = glob_feats if isinstance(glob_feats, Tensor) else Tensor(glob_feats)
        batch = node_feats.shape[0]
        cfg = self.config

        node_tokens = self.node_encoder(node_feats)
        plc_tokens = self.plc_encoder(plc_feats)
        ones = Tensor(np.ones((batch, 1, 1)))
        noop_token = ones * self.noop_seed.reshape(1, 1, cfg.d_model)
        tokens = concat([node_tokens, plc_tokens, noop_token], axis=1)
        for block in self.blocks:
            tokens = block(tokens)
        return tokens, glob_feats, batch

    def _with_global(self, ctx: Tensor, glob_feats: Tensor, batch: int) -> Tensor:
        tiles = Tensor(np.ones((batch, ctx.shape[1], 1)))
        g = tiles * glob_feats.reshape(batch, 1, GLOBAL_FEATURE_DIM)
        return concat([ctx, g], axis=-1)

    def _split_contexts(self, tokens: Tensor):
        """(host, server-or-None, plc, noop) context token groups."""
        host_ctx = tokens[:, self._host_ids, :]
        server_ctx = (
            tokens[:, self._server_ids, :] if len(self._server_ids) else None
        )
        plc_ctx = tokens[:, self._n_nodes:self._n_nodes + self._n_plcs, :]
        noop_ctx = tokens[:, self._n_nodes + self._n_plcs:, :]
        return host_ctx, server_ctx, plc_ctx, noop_ctx

    def _head_outputs(self, tokens, glob_feats, batch, per_action: int = 1):
        """Concatenated head outputs in action-list order.

        Returns a (B, n_actions * per_action) tensor; ``per_action`` is
        1 for scalar Q heads and n_atoms for distributional heads.
        """
        host_ctx, server_ctx, plc_ctx, noop_ctx = self._split_contexts(tokens)
        parts = [
            self.noop_head(self._with_global(noop_ctx, glob_feats, batch))
            .reshape(batch, per_action)
        ]
        host_q = self.host_head(self._with_global(host_ctx, glob_feats, batch))
        parts.append(
            host_q.reshape(batch, len(self._host_ids) * len(HOST_ACTIONS) * per_action)
        )
        if server_ctx is not None:
            server_q = self.server_head(
                self._with_global(server_ctx, glob_feats, batch)
            )
            parts.append(
                server_q.reshape(
                    batch, len(self._server_ids) * len(SERVER_ACTIONS) * per_action
                )
            )
        if self._n_plcs:
            plc_q = self.plc_head(self._with_global(plc_ctx, glob_feats, batch))
            parts.append(
                plc_q.reshape(batch, self._n_plcs * len(PLC_ACTIONS) * per_action)
            )
        return concat(parts, axis=1)

    def _soft_clip(self, q: Tensor) -> Tensor:
        """Near-identity for |q| << q_scale, bounded at +/- q_scale
        (a bare tanh would saturate at initialization)."""
        cfg = self.config
        if not cfg.final_tanh:
            return q
        return (q * (1.0 / cfg.q_scale)).tanh() * cfg.q_scale

    def forward(self, node_feats, plc_feats, glob_feats) -> Tensor:
        """(B,N,Fn), (B,M,Fp), (B,G) -> (B, n_actions) Q-values.

        Action layout: [noop, host menus (host order), server menus,
        PLC menus], matching :attr:`action_list`. Under ``no_grad`` the
        result is a graph-free Tensor computed on ndarrays.
        """
        if not is_grad_enabled():
            return Tensor(self._forward_array(node_feats, plc_feats, glob_feats))
        tokens, glob, batch = self._contextualize(node_feats, plc_feats, glob_feats)
        q = self._head_outputs(tokens, glob, batch)
        return self._soft_clip(q)

    # ------------------------------------------------------------------
    # graph-free inference: the methods above on ndarrays, bit for bit
    # ------------------------------------------------------------------
    def _forward_array(self, node_feats, plc_feats, glob_feats) -> np.ndarray:
        self._check_bound()
        node, plc, glob = (
            x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
            for x in (node_feats, plc_feats, glob_feats)
        )
        batch = node.shape[0]
        n, m = node.shape[1], plc.shape[1]
        # [node tokens | PLC tokens | noop seed] filled in place: the
        # graph's concat of a ones-product, value for value
        tokens = np.empty((batch, n + m + 1, self.config.d_model))
        tokens[:, :n] = self.node_encoder.forward_array(node)
        tokens[:, n:n + m] = self.plc_encoder.forward_array(plc)
        tokens[:, n + m] = self.noop_seed.data
        for block in self.blocks:
            tokens = block.forward_array(tokens)
        return self._soft_clip_array(self._head_outputs_array(tokens, glob, batch))

    def _with_global_array(self, ctx: np.ndarray, glob: np.ndarray,
                           batch: int) -> np.ndarray:
        d = ctx.shape[-1]
        out = np.empty((batch, ctx.shape[1], d + GLOBAL_FEATURE_DIM))
        out[..., :d] = ctx
        out[..., d:] = glob.reshape(batch, 1, GLOBAL_FEATURE_DIM)
        return out

    def _head_outputs_array(self, tokens: np.ndarray, glob: np.ndarray,
                            batch: int) -> np.ndarray:
        host_ctx, server_ctx, plc_ctx, noop_ctx = self._split_contexts(tokens)
        heads = [(self.noop_head, noop_ctx), (self.host_head, host_ctx)]
        if server_ctx is not None:
            heads.append((self.server_head, server_ctx))
        if self._n_plcs:
            heads.append((self.plc_head, plc_ctx))
        outputs = [head.forward_array(self._with_global_array(ctx, glob, batch))
                   for head, ctx in heads]
        return np.concatenate(
            [out.reshape(batch, out.shape[1] * out.shape[2]) for out in outputs],
            axis=1,
        )

    def _soft_clip_array(self, q: np.ndarray) -> np.ndarray:
        cfg = self.config
        if not cfg.final_tanh:
            return q
        return np.tanh(q * (1.0 / cfg.q_scale)) * cfg.q_scale

    def q_values(self, features: FeatureSet) -> np.ndarray:
        """Inference helper for a single step."""
        from repro.nn import no_grad

        with no_grad():
            node, plc, glob = stack_features([features])
            return self.forward(node, plc, glob).data[0]


@dataclass(frozen=True)
class ConvNetConfig:
    window: int = 64
    channels: tuple[int, ...] = (64, 64, 64)
    kernel: int = 4
    stride: int = 4
    mlp_hidden: int = 128
    final_tanh: bool = True
    q_scale: float = 4.0

    @staticmethod
    def paper() -> "ConvNetConfig":
        """Table 7: three conv layers 256/128/64, MLP 256."""
        return ConvNetConfig(window=64, channels=(256, 128, 64), mlp_hidden=256)


class ConvQNetwork(Module):
    """Baseline temporal convolution network (Table 7).

    The output layer enumerates every action, so parameters grow with
    the protected network -- the scaling failure the attention
    architecture avoids.
    """

    #: history array layout for WindowedDQNTrainer: (step_dim, window)
    history_layout = "fw"

    def __init__(self, step_dim: int, n_actions: int,
                 config: ConvNetConfig | None = None, seed: int = 0):
        self.config = config or ConvNetConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        dims = (step_dim, *cfg.channels)
        self.convs = [
            Conv1d(dims[i], dims[i + 1], cfg.kernel, cfg.stride, rng=rng)
            for i in range(len(cfg.channels))
        ]
        remaining = cfg.window
        for _ in cfg.channels:
            remaining = (remaining - cfg.kernel) // cfg.stride + 1
        if remaining < 1:
            raise ValueError("history window too small for conv stack")
        self.flat_dim = cfg.channels[-1] * remaining
        self.mlp = MLP([self.flat_dim, cfg.mlp_hidden, n_actions], rng=rng)
        self.n_actions = n_actions
        self.step_dim = step_dim

    def forward(self, history) -> Tensor:
        """(B, step_dim, window) -> (B, n_actions)."""
        x = history if isinstance(history, Tensor) else Tensor(history)
        for conv in self.convs:
            x = conv(x).leaky_relu()
        x = x.reshape(x.shape[0], self.flat_dim)
        q = self.mlp(x)
        if self.config.final_tanh:
            q = (q * (1.0 / self.config.q_scale)).tanh() * self.config.q_scale
        return q
