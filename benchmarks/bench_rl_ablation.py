"""Experiment E9 (extension): Rainbow-component ablation.

The paper adopts double DQN, prioritized replay, and n-step TD (Section
4.2) without ablating them individually, and leaves the remaining
Rainbow components (dueling heads, noisy-net exploration, distributional
learning) untried. This bench trains the paper's configuration and one
variant without each of its components for a short budget on the tiny
network with a time-scaled attacker, and reports training-signal
statistics: final-episode shaped return, mean TD loss, and steps taken.

With CI budgets these runs are far too short for policy-quality claims;
the bench verifies every variant *trains* (finite loss, full budget).
Set REPRO_EPISODES higher and extend max_steps for a real comparison.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro
from benchmarks.conftest import episodes_per_cell, write_result
from repro.config import tiny_network
from repro.dbn import fit_dbn
from repro.defenders import SemiRandomPolicy
from repro.rl import (
    ACSOFeaturizer,
    AttentionQNetwork,
    DQNConfig,
    DQNTrainer,
    QNetConfig,
)

_QNET = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32, head_hidden=32)
_BASE = dict(
    batch_size=16,
    warmup=32,
    update_every=4,
    target_update=100,
    eps_decay=0.995,
    buffer_size=5_000,
    n_step=8,
)


def _env(seed=0):
    cfg = tiny_network(tmax=150)
    return repro.make_env(cfg.with_apt(replace(cfg.apt, time_scale=10.0)), seed=seed)


def _variants():
    """(name, qnet factory, DQNConfig) per ablation."""
    return [
        (
            "paper (double+PER+n8)",
            lambda: AttentionQNetwork(_QNET, seed=0),
            DQNConfig(**_BASE),
        ),
        (
            "no double DQN",
            lambda: AttentionQNetwork(_QNET, seed=0),
            DQNConfig(**{**_BASE, "double_dqn": False}),
        ),
        (
            "uniform replay",
            lambda: AttentionQNetwork(_QNET, seed=0),
            DQNConfig(**{**_BASE, "prioritized": False}),
        ),
        (
            "1-step TD",
            lambda: AttentionQNetwork(_QNET, seed=0),
            DQNConfig(**{**_BASE, "n_step": 1}),
        ),
    ]


@pytest.fixture(scope="module")
def ablation_tables():
    cfg = tiny_network(tmax=150)
    return fit_dbn(
        lambda: repro.make_env(cfg),
        lambda: SemiRandomPolicy(rate=3.0),
        episodes=4,
        seed=11,
        max_steps=150,
    )


def test_rainbow_component_ablation(benchmark, ablation_tables):
    episodes = episodes_per_cell(2)
    max_steps = 120

    def run():
        rows = []
        for name, qnet_factory, cfg in _variants():
            env = _env(seed=3)
            featurizer = ACSOFeaturizer(env.topology, ablation_tables)
            trainer = DQNTrainer(env, qnet_factory(), featurizer, cfg)
            history = trainer.train(episodes=episodes, seed=20, max_steps=max_steps)
            losses = [h.mean_loss for h in history if h.mean_loss > 0]
            rows.append((
                name,
                history[-1].env_return,
                float(np.mean(losses)) if losses else float("nan"),
                trainer.total_steps,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Rainbow component ablation "
        f"({episodes} episodes x {max_steps} steps, tiny network)",
        f"{'variant':<24} {'return':>10} {'mean loss':>10} {'steps':>7}",
    ]
    for name, ret, loss, steps in rows:
        lines.append(f"{name:<24} {ret:>10.1f} {loss:>10.4f} {steps:>7}")
    write_result("rl_ablation.txt", "\n".join(lines))

    # every variant must produce finite losses and complete its budget
    for name, ret, loss, steps in rows:
        assert np.isfinite(ret), name
        assert np.isfinite(loss), name
        assert steps == episodes * max_steps, name
