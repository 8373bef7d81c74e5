"""Experiment E7: architecture ablation (Fig 5 vs Table 7).

The paper's central architectural claim: the attention network's
parameter count is independent of the protected network's size, while
the baseline convolutional network grows with it (its output layer
enumerates all 329 actions on the evaluation network). This bench
reports parameter counts across network sizes and the forward-pass
latency of both models.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro.config import paper_network, small_network, tiny_network
from repro.net import build_topology
from repro.rl import AttentionQNetwork, ConvQNetwork, QNetConfig
from repro.rl.features import (
    GLOBAL_FEATURE_DIM,
    NODE_FEATURE_DIM,
    PLC_FEATURE_DIM,
    RawHistoryEncoder,
)
from repro.sim.orchestrator import enumerate_actions


def test_parameter_scaling(benchmark):
    def build_table() -> list[str]:
        rows = ["network     nodes  plcs  actions  attention-params  conv-params"]
        attention = AttentionQNetwork(QNetConfig(), seed=0)
        for name, preset in (
            ("tiny", tiny_network),
            ("small", small_network),
            ("paper", paper_network),
        ):
            topo = build_topology(preset().topology)
            attention.bind_topology(topo)
            encoder = RawHistoryEncoder(topo, window=64)
            n_actions = len(enumerate_actions(topo))
            conv = ConvQNetwork(encoder.step_dim, n_actions, seed=0)
            rows.append(
                f"{name:10s}  {topo.n_nodes:5d}  {topo.n_plcs:4d}  "
                f"{attention.n_actions:7d}  {attention.n_parameters():16d}  "
                f"{conv.n_parameters():11d}"
            )
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    write_result("architecture.txt", "\n".join(rows))

    # the paper's claim, as an assertion
    small_topo = build_topology(small_network().topology)
    paper_topo = build_topology(paper_network().topology)
    attn_small = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(small_topo)
    attn_paper = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(paper_topo)
    assert attn_small.n_parameters() == attn_paper.n_parameters()
    conv_small = ConvQNetwork(
        RawHistoryEncoder(small_topo, 64).step_dim,
        len(enumerate_actions(small_topo)),
        seed=0,
    )
    conv_paper = ConvQNetwork(
        RawHistoryEncoder(paper_topo, 64).step_dim,
        len(enumerate_actions(paper_topo)),
        seed=0,
    )
    assert conv_paper.n_parameters() > conv_small.n_parameters()


def test_attention_forward_latency(benchmark):
    topo = build_topology(paper_network().topology)
    qnet = AttentionQNetwork(QNetConfig(), seed=0).bind_topology(topo)
    rng = np.random.default_rng(0)
    node = rng.random((1, topo.n_nodes, NODE_FEATURE_DIM))
    plc = rng.random((1, topo.n_plcs, PLC_FEATURE_DIM))
    glob = rng.random((1, GLOBAL_FEATURE_DIM))

    def forward():
        return qnet.forward(node, plc, glob).data

    out = benchmark(forward)
    assert out.shape == (1, qnet.n_actions)


def test_conv_forward_latency(benchmark):
    topo = build_topology(paper_network().topology)
    encoder = RawHistoryEncoder(topo, window=64)
    conv = ConvQNetwork(encoder.step_dim, len(enumerate_actions(topo)), seed=0)
    history = np.random.default_rng(0).random((1, encoder.step_dim, 64))

    def forward():
        return conv.forward(history).data

    out = benchmark(forward)
    assert out.shape == (1, 329)
