"""Q-networks: the attention architecture of Fig 5 and the
convolutional baseline of Table 7.

The attention network embeds every computing node, every PLC, and one
learned "no-action" seed token into a shared latent space, runs global
self-attention so each token sees the rest of the network, appends the
global PLC summary, and decodes per-type action values through shared
heads. All sub-graphs of a node type share parameters, so the
parameter count does not grow with the number of nodes -- the paper's
central scaling argument.

The attention network has two numeric forwards on plain ndarrays, and
the caller picks one with ``forward``'s ``grad`` argument. The taped
forward (``_forward_array``, ``grad=True``) composes the modules'
``forward_array`` methods: the whole network --
encoders, attention, heads, the soft clip -- is a single graph node
whose forward records a hand-written backward step per module on a
:class:`~repro.nn.tape.Tape`, and whose backward replays it into
per-parameter (and, if they require grad, per-feature) gradients; when
no feature requires grad, the encoders' first layers and the heads skip
the feature gradients. The backward steps hold the
tape's gradient table, not the tape, so the graph is freed by
reference counting once its backward has run or its output is dropped.
By default (``grad=False``) nothing is recorded and the inference
program runs instead (``_infer``): straight-line array code over the
layers' parameter arrays, bitwise equal to the taped forward (its
differential oracle in the test suite). A batch of more than
``BLOCK_TOKENS // tokens`` rows runs as consecutive row blocks
(:func:`in_row_blocks`), which bounds a forward's temporaries at one
block and returns the one-piece forward's bits; a single state runs as
2-D rows, on one row per group of byte-identical node or PLC rows
(:class:`_RowPartition`, on networks of at least
``DISTINCT_MIN_TOKENS`` tokens). Forward values are bitwise equal to
the per-op autograd graph of the same computation, and gradients agree
with it to rounding; the test suite keeps that graph as the
differential oracle too.

The convolutional baseline flattens the whole network into one vector
per time step and strides over the history window; its output layer is
one unit per action, so its size grows linearly with the network (329
outputs on the paper topology). It is one graph node too; its backward
is bitwise equal to the per-op graph of the same computation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.net.topology import Topology
from repro.nn import (
    AttentionBlock,
    Conv1d,
    LayerNorm,
    MLP,
    Module,
    MultiHeadSelfAttention,
    Parameter,
    Tensor,
    array_activation,
)
from repro.nn.tape import array_node, as_array, branch
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

#: tokens (nodes + PLCs + 1) from which an untaped forward of one state
#: runs on its distinct node and PLC rows (:class:`_RowPartition`).
#: Below it, grouping the rows costs more than it saves. Median ms per
#: one-state forward over recorded states, distinct rows vs all rows,
#: 30 alternated pairs in one process (2-CPU Intel Xeon, OpenBLAS;
#: bitwise-equal outputs): tiny network, 11 tokens, 94
#: ``dqn-train`` states, 0.227 vs 0.192 (all rows faster in 30 of 30);
#: inasim-small, 47 tokens, 0.260 vs 0.285 (distinct faster in 24);
#: paper, 84 tokens, 0.263 vs 0.436 (distinct faster in 28).
DISTINCT_MIN_TOKENS = 32


def in_row_blocks(program):
    """Run the inference program ``(node, plc, glob)`` on more than
    ``_block_rows`` rows as consecutive row blocks, written in order
    into one output array. Rows are bitwise independent of the batch
    they are scored in (``tests/test_rl_qnet.py::TestRowIndependence``),
    so the result is the one-piece program's, bit for bit."""

    @functools.wraps(program)
    def run(self, node, plc, glob):
        rows = self._block_rows
        if len(node) <= rows:
            return program(self, node, plc, glob)
        first = program(self, node[:rows], plc[:rows], glob[:rows])
        out = np.empty((len(node), *first.shape[1:]), dtype=first.dtype)
        out[:rows] = first
        for i in range(rows, len(node), rows):
            out[i:i + rows] = program(self, node[i:i + rows], plc[i:i + rows],
                                      glob[i:i + rows])
        return out

    return run


def _dot(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight``: ``np.dot`` on one state's 2-D rows, the same BLAS
    call with less dispatch (``np.dot`` contracts a batch's 3-D rows
    otherwise, so batches keep ``@``)."""
    return np.dot(x, weight) if x.ndim == 2 else x @ weight


def _mlp_rows(mlp: MLP, x: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """``MLP.forward_array(x)`` of a leaky-ReLU MLP with a linear output
    layer (the network's own MLPs), straight over the layers' arrays.
    With ``rows``, the output layer runs on those rows of the last
    hidden activations: (..., R, in) -> (..., len(rows), out)."""
    *hidden, last = mlp.linears
    for linear in hidden:
        x = _dot(x, linear.weight.data)
        x += linear.bias.data
        np.maximum(x, x * 0.01, out=x)
    if rows is not None:
        x = x[..., rows, :]
    out = _dot(x, last.weight.data)
    out += last.bias.data
    return out


def _layer_norm_rows(norm: LayerNorm, x: np.ndarray) -> np.ndarray:
    """``LayerNorm.forward_array(x)``, straight over its arrays."""
    scale = 1.0 / float(x.shape[-1])
    mu = np.add.reduce(x, axis=-1, keepdims=True) * scale
    normed = x - mu
    out = normed * normed
    var = np.add.reduce(out, axis=-1, keepdims=True) * scale
    var += norm.eps
    normed /= np.sqrt(var, out=var)
    np.multiply(normed, norm.gamma.data, out=out)
    out += norm.beta.data
    return out


def _self_attention_rows(attn: MultiHeadSelfAttention, x: np.ndarray,
                         keys: np.ndarray | None) -> np.ndarray:
    """``MultiHeadSelfAttention.forward_array(x)`` on (..., R, D) rows,
    straight over its arrays; ``keys`` as in :func:`_attention_rows`.
    Its temporaries die when it returns, before the feed-forward runs."""
    d, heads, d_head = attn.d_model, attn.n_heads, attn.d_head
    projected = _dot(x, attn.qkv.weight.data)
    projected += attn.qkv.bias.data
    per_head = projected.shape[:-1] + (heads, d_head)
    q = projected[..., :d].reshape(per_head).swapaxes(-2, -3)
    if keys is not None:
        projected = projected[..., keys, :]
    kv_head = projected.shape[:-1] + (heads, d_head)
    k = projected[..., d:2 * d].reshape(kv_head).swapaxes(-2, -3)
    v = projected[..., 2 * d:].reshape(kv_head).swapaxes(-2, -3)
    # softmax(q k^T * scale) on the one score buffer
    weights = q @ k.swapaxes(-1, -2)
    weights *= 1.0 / math.sqrt(d_head)
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    merged = (weights @ v).swapaxes(-2, -3).reshape(x.shape)
    out = _dot(merged, attn.out.weight.data)
    out += attn.out.bias.data
    return out


def _attention_rows(block: AttentionBlock, x: np.ndarray,
                    keys: np.ndarray | None) -> np.ndarray:
    """``AttentionBlock.forward_array(x)`` on (..., R, D) token rows,
    straight over the block's arrays. With ``keys`` (the distinct row
    of each of the T tokens), ``x`` holds distinct token rows, each of
    which attends over the keys and values of all T tokens in token
    order, so each output row equals that row of the forward of
    ``x[..., keys, :]``."""
    attended = _self_attention_rows(block.attn,
                                    _layer_norm_rows(block.ln1, x), keys)
    attended += x  # the residual, x + attended
    out = _mlp_rows(block.ff, _layer_norm_rows(block.ln2, attended))
    out += attended
    return out


def _at_least_two(rows: list[int], full: int) -> list[int]:
    """The ``rows`` a matmul runs on where the full forward runs ``full``:
    one row only if ``full`` is one, since a one-row matmul goes through
    gemv and rounds otherwise."""
    return rows * 2 if len(rows) == 1 and full > 1 else rows


def _index(rows: list[int]) -> slice | np.ndarray:
    """``rows`` as the slice they span when they run consecutively (a
    view, where an index array gathers a copy of the same rows), else
    as an index array."""
    if rows and rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows, dtype=np.int64)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of ``rows`` (R, F)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))) \
        .reshape(len(rows)).tolist()


class _Groups:
    """One entity type's rows (R, F) in byte-identical groups."""

    __slots__ = ("data", "first", "group", "rep_of", "rows", "_spans")

    def __init__(self, rows: np.ndarray):
        keys = _row_keys(rows)
        # each distinct row's first index: the reversed walk writes it last
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        number = dict(zip(first, range(len(first))))
        starts = list(first.values())
        #: the first row of each group, and the group of each row
        self.first = np.array(starts, dtype=np.int64)
        self.group = np.fromiter(map(number.__getitem__, keys), np.int64,
                                 len(keys))
        self.rep_of = self.first[self.group]
        #: the rows the forward runs on
        self.rows = np.array(_at_least_two(starts, len(keys)), dtype=np.int64)
        #: the bytes of the rows, and of each group's first row in them
        self.data = rows.tobytes()
        width = rows.shape[1] * rows.itemsize
        self._spans = [(i * width, (i + 1) * width) for i in starts]

    def holds(self, rows: np.ndarray) -> bool:
        """Are these the groups of ``rows``: every row byte-equal to its
        group's first row, and no two first rows equal?"""
        data = rows.tobytes()
        if data == self.data:
            return True
        if len(rows) != len(self.group) \
                or rows.take(self.rep_of, axis=0).tobytes() != data:
            return False
        return len({data[a:b] for a, b in self._spans}) == len(self._spans)


def _head_rows(keys: list[int]):
    """A head's (distinct rows, gather back to its tokens) from the
    distinct row of each of its tokens; the gather is None where it is
    the identity."""
    rows = sorted(set(keys))
    if rows == keys:
        return _index(rows), None
    position = {row: i for i, row in enumerate(rows)}
    return (_index(_at_least_two(rows, len(keys))),
            np.array([position[row] for row in keys], dtype=np.int64))


class _RowPartition:
    """One state's node and PLC rows in byte-identical groups.

    Rows in one group give bit-identical tokens at every layer, since
    the network shares its parameters across the entities of a type and
    BLAS computes each row of a matmul independently of the others. So a
    no-grad forward of one state runs the encoders, the attention
    blocks' row-wise work and each head's hidden layer on one row per
    group (``nodes.rows``, ``plcs.rows``, the noop seed last). Each
    attention layer gathers its keys and values back to every token
    (``keys``), so every softmax still sums over all tokens in order,
    and each head's output layer runs on all of its tokens (``heads``:
    head, distinct rows, gather), as in the full forward: an output of
    width <= 2 rounds otherwise.

    A network keeps the partition of its last state and reuses it while
    it is still the partition of the state (``holds``). It is immutable
    and swapped as one object, so a concurrent caller never reads half
    of one.
    """

    __slots__ = ("nodes", "plcs", "keys", "heads")

    def __init__(self, net: "AttentionQNetwork", nodes: _Groups,
                 plcs: _Groups):
        self.nodes, self.plcs = nodes, plcs
        gn, gm = len(nodes.rows), len(plcs.rows)
        #: the distinct row of every token: nodes, PLCs, noop seed
        self.keys = np.concatenate([nodes.group, gn + plcs.group, [gn + gm]])
        self.heads = [(head, *_head_rows(self.keys[index].tolist()))
                      for head, index, _ in net._heads]


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
        self.host_head = MLP([head_in, cfg.head_hidden, len(HOST_ACTIONS)],
                             rng=rng)
        self.server_head = MLP([head_in, cfg.head_hidden, len(SERVER_ACTIONS)],
                               rng=rng)
        self.plc_head = MLP([head_in, cfg.head_hidden, len(PLC_ACTIONS)],
                            rng=rng)
        self.noop_head = MLP([head_in, cfg.head_hidden, 1], rng=rng)
        # topology binding (not parameters; re-computed per network size)
        self._topology: Topology | None = None
        self._host_ids: np.ndarray = np.zeros(0, np.int64)
        self._server_ids: np.ndarray = np.zeros(0, np.int64)
        self._n_nodes = 0
        self._n_plcs = 0
        self._block_rows = 1
        self._distinct_rows = False
        self._partition: _RowPartition | None = None
        #: (head, token index, None) in output order: the head rows of
        #: the taped forward, and of the program without a partition
        self._heads: tuple = ()
        self.action_list: list[DefenderAction] = []

    # ------------------------------------------------------------------
    def bind_topology(self, topology: Topology) -> "AttentionQNetwork":
        """Attach a network topology; parameters are unchanged.

        The same trained weights can therefore be evaluated on networks
        of different size (Section 4.4). Binding the topology the
        network is already bound to keeps the binding, action list
        included.
        """
        if topology is self._topology:
            return self
        self._topology = topology
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
        self._distinct_rows = tokens >= DISTINCT_MIN_TOKENS
        self._partition = None
        n, m = self._n_nodes, self._n_plcs
        heads = [(self.noop_head, slice(n + m, None)),
                 (self.host_head, _index(self._host_ids.tolist()))]
        if len(self._server_ids):
            heads.append((self.server_head, _index(self._server_ids.tolist())))
        if m:
            heads.append((self.plc_head, slice(n, n + m)))
        self._heads = tuple((head, index, None) for head, index in heads)
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
    def _check_bound(self) -> None:
        if self._n_nodes == 0:
            raise RuntimeError("bind_topology() must be called before forward()")

    def forward(self, node_feats, plc_feats, glob_feats,
                grad: bool = False) -> Tensor:
        """(B,N,Fn), (B,M,Fp), (B,G) -> (B, n_actions) Q-values.

        Action layout: [noop, host menus (host order), server menus,
        PLC menus], matching :attr:`action_list`. By default nothing is
        recorded: the inference program runs (:meth:`_infer`) and the
        result is a Tensor without a graph. With ``grad`` the whole
        network is one graph node with a hand-written backward (the
        training pass).
        """
        self._check_bound()
        if grad:
            return array_node(self._forward_array,
                              (node_feats, plc_feats, glob_feats), self)
        return Tensor(self._infer(as_array(node_feats), as_array(plc_feats),
                                  as_array(glob_feats)))

    # ------------------------------------------------------------------
    # the inference program (no tape)
    # ------------------------------------------------------------------
    @in_row_blocks
    def _infer(self, node, plc, glob) -> np.ndarray:
        """The no-grad forward, bitwise equal to :meth:`_forward_array`.

        Straight-line array code over the parameter arrays of the
        encoders, the attention trunk and the heads. One state runs as
        2-D rows, on one row per group of byte-identical node or PLC
        rows on networks of at least ``DISTINCT_MIN_TOKENS`` tokens
        (:class:`_RowPartition`); a batch runs as (B, T, D) rows, in
        row blocks (:func:`in_row_blocks`).
        """
        keys, heads = None, self._heads
        if len(node) == 1:
            node, plc, glob = node[0], plc[0], glob[0]
            if self._distinct_rows:
                partition = self._partition_of(node, plc)
                node = node.take(partition.nodes.rows, axis=0)
                plc = plc.take(partition.plcs.rows, axis=0)
                keys, heads = partition.keys, partition.heads
        n, m = node.shape[-2], plc.shape[-2]
        d = self.config.d_model
        # [node tokens | PLC tokens | noop seed] filled in place
        tokens = np.empty(node.shape[:-2] + (n + m + 1, d))
        tokens[..., :n, :] = _mlp_rows(self.node_encoder, node)
        tokens[..., n:n + m, :] = _mlp_rows(self.plc_encoder, plc)
        tokens[..., n + m, :] = self.noop_seed.data
        for block in self.blocks:
            tokens = _attention_rows(block, tokens, keys)
        # every token with the global features appended; each head
        # reads its rows of it (with a partition: its distinct rows,
        # and its output layer runs on the gather of its tokens)
        x_all = np.empty(tokens.shape[:-1] + (d + GLOBAL_FEATURE_DIM,))
        x_all[..., :d] = tokens
        x_all[..., d:] = glob[..., None, :]
        lead = tokens.shape[:-2] + (-1,)
        parts = [_mlp_rows(head, x_all[..., index, :], rows).reshape(lead)
                 for head, index, rows in heads]
        flat = np.concatenate(parts, axis=-1)
        return self._soft_clip_array(flat.reshape(-1, flat.shape[-1]), None)

    # ------------------------------------------------------------------
    # the taped forward (training), and the program's differential oracle
    # ------------------------------------------------------------------
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
        out = self._soft_clip_array(
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

    def _partition_of(self, node: np.ndarray, plc: np.ndarray) -> _RowPartition:
        """The row partition of one state's (N, Fn) and (M, Fp) features:
        the last state's if it still holds, else a new one."""
        last = self._partition
        if last is None:
            nodes, plcs = _Groups(node), _Groups(plc)
        else:
            nodes_hold, plcs_hold = last.nodes.holds(node), last.plcs.holds(plc)
            if nodes_hold and plcs_hold:
                return last
            nodes = last.nodes if nodes_hold else _Groups(node)
            plcs = last.plcs if plcs_hold else _Groups(plc)
        partition = self._partition = _RowPartition(self, nodes, plcs)
        return partition

    def _heads_array(self, tokens: np.ndarray, glob: np.ndarray,
                     tape, glob_grad: bool) -> np.ndarray:
        """Each head on its tokens with the global features appended,
        flattened and concatenated: (B, sum of head widths). Its
        backward returns (token gradient, global-feature gradient), the
        latter None unless ``glob_grad``."""
        batch, n_tokens, d = tokens.shape
        groups = self._heads
        head_tapes = [branch(tape) for _ in groups]
        # every token with the global features appended, filled once;
        # each head reads its rows of it
        x_all = np.empty((batch, n_tokens, d + GLOBAL_FEATURE_DIM))
        x_all[..., :d] = tokens
        x_all[..., d:] = glob.reshape(batch, 1, GLOBAL_FEATURE_DIM)
        outputs = [head.forward_array(x_all[:, index], head_tape)
                   for (head, index, _), head_tape in zip(groups, head_tapes)]
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
                for (_, index, _), head_tape, part, out in zip(
                        groups, head_tapes, parts, outputs):
                    grad_x = head_tape.backward(part.reshape(out.shape))
                    grad_tokens[:, index] += grad_x[..., :d]
                    if glob_grad:
                        grad_glob += grad_x[..., d:].sum(axis=1)
                return grad_tokens, grad_glob

            tape.record(backward)
        return flat

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


class ConvQNetwork(Module):
    """Baseline temporal convolution network (Table 7).

    It reads the :class:`~repro.rl.features.RawHistoryEncoder`'s
    ``(step_dim, window)`` history and outputs one value per entry of
    :func:`~repro.sim.orchestrator.enumerate_actions` -- the
    environment's own action order, not the attention network's. The
    output layer enumerates every action, so parameters grow with the
    protected network -- the scaling failure the attention architecture
    avoids.
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

    def bind_topology(self, topology: Topology) -> "ConvQNetwork":
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

    def clone(self, seed: int = 0) -> "ConvQNetwork":
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
