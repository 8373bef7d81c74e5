"""Q-networks: the attention architecture of Fig 5 and the
convolutional baseline of Table 7.

The attention network embeds every computing node, every PLC, and one
learned "no-action" seed token into a shared latent space, runs global
self-attention so each token sees the rest of the network, appends the
global PLC summary, and decodes per-type action values through shared
heads. All sub-graphs of a node type share parameters, so the
parameter count does not grow with the number of nodes -- the paper's
central scaling argument.

The attention network has one numeric forward, on plain ndarrays
through the modules' ``forward_array`` methods. Under autograd the whole
network -- encoders, attention, heads, the dueling combination, the soft
clip -- is a single graph node: the forward records a hand-written
backward step per module on a :class:`~repro.nn.tape.Tape`, and the
node's backward replays it into per-parameter (and, if they require
grad, per-feature) gradients; when no feature requires grad, the
encoders' first layers and the heads skip the feature gradients. The
backward steps hold the tape's gradient table, not the tape, so the
graph is freed by reference counting once its backward has run or its
output is dropped. Under :func:`repro.nn.no_grad` nothing is recorded,
and a batch of more than ``BLOCK_TOKENS // tokens`` rows runs as
consecutive row blocks (:func:`in_row_blocks`), which bounds a
forward's temporaries at one block and returns the one-piece forward's
bits. Forward values are bitwise equal to the per-op autograd graph
of the same computation, and gradients agree with it to rounding; the
test suite keeps that graph as the differential oracle. The dueling and
C51 variants reuse the same node (extra value head; a log-softmax over
atom logits).

The convolutional baseline flattens the whole network into one vector
per time step and strides over the history window; its output layer is
one unit per action, so its size grows linearly with the network (329
outputs on the paper topology). It is one graph node too, as is the
DRQN baseline (:mod:`repro.rl.drqn`); their backwards are bitwise equal
to the per-op graph of the same computation.
"""

from __future__ import annotations

import functools
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
    array_activation,
)
from repro.nn.tape import array_node, branch
from repro.rl.features import (
    GLOBAL_FEATURE_DIM,
    NODE_FEATURE_DIM,
    PLC_FEATURE_DIM,
    FeatureSet,
    RawHistoryEncoder,
    stack_features,
)
from repro.sim.orchestrator import (
    HOST_ACTIONS,
    PLC_ACTIONS,
    SERVER_ACTIONS,
    DefenderAction,
    DefenderActionType,
    enumerate_actions,
)

__all__ = ["QNetConfig", "AttentionQNetwork", "ConvQNetwork", "WindowedQNetwork"]


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


#: token rows (batch rows x tokens per row) that one no-grad forward
#: block holds: a larger batch runs as consecutive blocks of
#: ``BLOCK_TOKENS // tokens`` rows, so a forward's transient memory is
#: one block's, not the batch's, and its working set stays small.
#: Chosen from the sweep in ``benchmarks/bench_qnet_batch.py``
#: (``BENCH_qnet_batch.json``) and perfbench's ``ope-report``.
BLOCK_TOKENS = 512


def in_row_blocks(forward):
    """Run an array forward ``(node, plc, glob, tape=None)`` without a
    tape on more than ``_block_rows`` rows as consecutive row blocks,
    written in order into one output array. Rows are bitwise independent
    of the batch they are scored in
    (``tests/test_rl_qnet.py::TestRowIndependence``), so the result is
    the one-piece forward's, bit for bit."""

    @functools.wraps(forward)
    def run(self, node, plc, glob, tape=None):
        self._check_bound()
        rows = self._block_rows
        if tape is not None or len(node) <= rows:
            return forward(self, node, plc, glob, tape)
        first = forward(self, node[:rows], plc[:rows], glob[:rows])
        out = np.empty((len(node), *first.shape[1:]), dtype=first.dtype)
        out[:rows] = first
        for i in range(rows, len(node), rows):
            out[i:i + rows] = forward(self, node[i:i + rows], plc[i:i + rows],
                                      glob[i:i + rows])
        return out

    return run


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
        self._block_rows = 1
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
        tokens = self._n_nodes + self._n_plcs + 1
        self._block_rows = max(1, BLOCK_TOKENS // tokens)
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

    @staticmethod
    def stack_states(states: list[FeatureSet]) -> tuple:
        """Batch per-step feature sets into :meth:`forward` arguments."""
        return stack_features(states)

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

    def forward(self, node_feats, plc_feats, glob_feats) -> Tensor:
        """(B,N,Fn), (B,M,Fp), (B,G) -> (B, n_actions) Q-values.

        Action layout: [noop, host menus (host order), server menus,
        PLC menus], matching :attr:`action_list`. The whole network is
        one graph node with a hand-written backward; under ``no_grad``
        the result is a plain Tensor and nothing is recorded.
        """
        return array_node(self._forward_array,
                          (node_feats, plc_feats, glob_feats), self)

    # ------------------------------------------------------------------
    # the one numeric forward (and, given a tape, its backward)
    # ------------------------------------------------------------------
    @in_row_blocks
    def _forward_array(self, node, plc, glob, tape=None) -> np.ndarray:
        batch, n, m = node.shape[0], node.shape[1], plc.shape[1]
        # the features' gradients are computed only when one is wanted
        wanted = tape is not None and tape.input_grad
        node_tape, plc_tape = branch(tape, wanted), branch(tape, wanted)
        trunk, heads = branch(tape), branch(tape)
        # [node tokens | PLC tokens | noop seed] filled in place: the
        # concat of a ones-product with the seed, value for value
        tokens = np.empty((batch, n + m + 1, self.config.d_model))
        tokens[:, :n] = self.node_encoder.forward_array(node, node_tape)
        tokens[:, n:n + m] = self.plc_encoder.forward_array(plc, plc_tape)
        tokens[:, n + m] = self.noop_seed.data
        for block in self.blocks:
            tokens = block.forward_array(tokens, trunk)
        out = self._output_array(
            self._heads_array(tokens, glob, heads, wanted), heads)
        if tape is not None:
            grads = tape.grads

            def backward(grad):
                grad_tokens, grad_glob = heads.backward(grad)
                grad_tokens = trunk.backward(grad_tokens)
                grads.add(self.noop_seed, grad_tokens[:, n + m].sum(axis=0))
                return (node_tape.backward(grad_tokens[:, :n]),
                        plc_tape.backward(grad_tokens[:, n:n + m]), grad_glob)

            tape.record(backward)
        return out

    def _head_groups(self) -> list[tuple[Module, object]]:
        """(head, token index) pairs in output order; an index is a
        slice or an array of node ids."""
        n, m = self._n_nodes, self._n_plcs
        groups = [(self.noop_head, slice(n + m, None)),
                  (self.host_head, self._host_ids)]
        if len(self._server_ids):
            groups.append((self.server_head, self._server_ids))
        if m:
            groups.append((self.plc_head, slice(n, n + m)))
        return groups

    def _heads_array(self, tokens: np.ndarray, glob: np.ndarray,
                     tape, glob_grad: bool) -> np.ndarray:
        """Each head on its tokens with the global features appended,
        flattened and concatenated: (B, sum of head widths). Its
        backward returns (token gradient, global-feature gradient), the
        latter None unless ``glob_grad``."""
        batch, n_tokens, d = tokens.shape
        groups = self._head_groups()
        head_tapes = [branch(tape) for _ in groups]
        # every token with the global features appended, filled once;
        # each head reads its rows of it
        x_all = np.empty((batch, n_tokens, d + GLOBAL_FEATURE_DIM))
        x_all[..., :d] = tokens
        x_all[..., d:] = glob.reshape(batch, 1, GLOBAL_FEATURE_DIM)
        outputs = [head.forward_array(x_all[:, index], head_tape)
                   for (head, index), head_tape in zip(groups, head_tapes)]
        flat = np.concatenate(
            [out.reshape(batch, out.shape[1] * out.shape[2]) for out in outputs],
            axis=1,
        )
        if tape is not None:
            splits = np.cumsum([out.shape[1] * out.shape[2]
                                for out in outputs])[:-1]

            def backward(grad):
                grad_tokens = np.zeros_like(tokens)
                grad_glob = np.zeros_like(glob) if glob_grad else None
                parts = np.split(grad, splits, axis=1)
                for (_, index), head_tape, part, out in zip(
                        groups, head_tapes, parts, outputs):
                    grad_x = head_tape.backward(part.reshape(out.shape))
                    grad_tokens[:, index] += grad_x[..., :d]
                    if glob_grad:
                        grad_glob += grad_x[..., d:].sum(axis=1)
                return grad_tokens, grad_glob

            tape.record(backward)
        return flat

    def _output_array(self, flat: np.ndarray, tape) -> np.ndarray:
        """Head outputs -> Q-values (subclasses combine them otherwise)."""
        return self._soft_clip_array(flat, tape)

    def _soft_clip_array(self, q: np.ndarray, tape) -> np.ndarray:
        """Near-identity for |q| << q_scale, bounded at +/- q_scale
        (a bare tanh would saturate at initialization)."""
        cfg = self.config
        if not cfg.final_tanh:
            return q
        t = q * (1.0 / cfg.q_scale)
        np.tanh(t, out=t)
        if tape is not None:
            tape.record(lambda grad: grad * (1.0 - t * t))
        return t * cfg.q_scale

    def q_values(self, features: FeatureSet) -> np.ndarray:
        """Inference helper for a single step (a batch of one, as views
        of ``features``' arrays)."""
        from repro.nn import no_grad

        with no_grad():
            return self.forward(features.node[None], features.plc[None],
                                features.glob[None]).data[0]


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


class WindowedQNetwork(Module):
    """A flat-output network over raw observation windows.

    The conv baseline and the DRQN read the
    :class:`~repro.rl.features.RawHistoryEncoder`'s ``(step_dim,
    window)`` history and output one value per entry of
    :func:`~repro.sim.orchestrator.enumerate_actions` -- the
    environment's own action order, not the attention network's.
    Subclasses take ``(step_dim, n_actions, config=..., seed=...)``.
    """

    step_dim: int
    n_actions: int

    def bind_topology(self, topology: Topology) -> "WindowedQNetwork":
        """Check the network fits ``topology`` and take its action list."""
        step_dim = RawHistoryEncoder.step_dim_for(topology)
        if self.step_dim != step_dim:
            raise ValueError(
                f"network step_dim {self.step_dim} != encoder step_dim "
                f"{step_dim} of this topology"
            )
        actions = enumerate_actions(topology)
        if self.n_actions != len(actions):
            raise ValueError(
                f"network n_actions {self.n_actions} != env {len(actions)}"
            )
        self.action_list = actions
        return self

    def clone(self, seed: int = 0) -> "WindowedQNetwork":
        """Fresh network of the same class, shape and config."""
        return type(self)(self.step_dim, self.n_actions, config=self.config,
                          seed=seed)

    @staticmethod
    def stack_states(states: list[np.ndarray]) -> tuple:
        """Batch ``(step_dim, window)`` histories for :meth:`forward`."""
        return (np.stack(states),)

    def _soft_clip_array(self, q: np.ndarray, tape) -> np.ndarray:
        """``tanh(q / q_scale) * q_scale`` when ``config.final_tanh``.

        The backward scales by ``q_scale`` and ``1 / q_scale`` in turn,
        as the per-op chain of the three ops does (the attention
        network's clip folds them away, which differs by rounding).
        """
        cfg = self.config
        if not cfg.final_tanh:
            return q
        inv_scale = 1.0 / cfg.q_scale
        t = np.tanh(q * inv_scale)
        if tape is not None:
            tape.record(
                lambda grad: grad * cfg.q_scale * (1.0 - t ** 2) * inv_scale)
        return t * cfg.q_scale


class ConvQNetwork(WindowedQNetwork):
    """Baseline temporal convolution network (Table 7).

    The output layer enumerates every action, so parameters grow with
    the protected network -- the scaling failure the attention
    architecture avoids.
    """

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

    def forward_array(self, history: np.ndarray, tape=None) -> np.ndarray:
        """(B, step_dim, window) -> (B, n_actions)."""
        if history.shape[-1] != self.config.window:
            raise ValueError(
                f"history window {history.shape[-1]} != network window "
                f"{self.config.window}; build the RawHistoryEncoder with "
                f"window={self.config.window}"
            )
        leaky_relu, leaky_relu_backward = array_activation("leaky_relu")
        x = history
        for conv in self.convs:
            pre = conv.forward_array(x, tape)
            x = leaky_relu(pre)
            if tape is not None:
                tape.record(functools.partial(leaky_relu_backward, pre, x))
        shape = x.shape
        x = x.reshape(shape[0], self.flat_dim)
        if tape is not None:
            tape.record(lambda grad: grad.reshape(shape))
        return self._soft_clip_array(self.mlp.forward_array(x, tape), tape)
