"""Large-margin pretraining from expert demonstrations.

The paper's appendix reports pretraining with a target margin
delta = 0.05 and margin weighting lambda = 0.1 (selected by coordinate
ascent). Following DQfD, the pretraining loss combines a value-
regression term with a large-margin classification term that pushes the
greedy policy toward the demonstrated actions:

    L = huber(Q(s, aE) - G(s)) + lambda_margin * [max_a(Q(s,a) + m(a,aE)) - Q(s,aE)]

where G(s) is the demonstration's Monte-Carlo return-to-go. Using the
observed return instead of a bootstrapped target anchors the value
scale: with a bootstrap, the margin term and the max operator chase
each other upward until the tanh value heads saturate.

Demonstrations come from the DBN expert restricted to one action per
step, so they live in the same single-action decision space as the DQN
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.nn import Adam, margin_loss
from repro.rl.dqn import DQNConfig
from repro.rl.features import ACSOFeaturizer, stack_features
from repro.rl.qnetwork import AttentionQNetwork
from repro.rl.replay import Transition
from repro.rl.shaping import PotentialShaper
from repro.sim.vec_env import VectorEnv, drive_vec_episodes, fan_out

__all__ = ["collect_demonstrations", "pretrain", "PretrainConfig"]


@dataclass
class PretrainConfig:
    iterations: int = 500
    batch_size: int = 64
    lr: float = 1e-3
    margin: float = 0.05  # paper's target margin delta
    margin_weight: float = 0.1  # paper's margin weighting lambda
    grad_clip: float = 10.0
    seed: int = 0


def collect_demonstrations(
    env,
    expert,
    featurizer: ACSOFeaturizer,
    qnet: AttentionQNetwork,
    episodes: int = 3,
    seed: int = 0,
    max_steps: int | None = None,
    dqn_config: DQNConfig | None = None,
) -> list[Transition]:
    """Run the (single-action) expert and record 1-step transitions.

    Rewards are shaped and normalized exactly as in the DQN trainer
    (:meth:`DQNConfig.reward_terms`), and each transition carries its
    Monte-Carlo return-to-go, so pretraining and fine-tuning regress the
    same value scale.
    """
    cfg = dqn_config or DQNConfig()
    gamma = env.config.reward.gamma
    shaper = PotentialShaper(gamma, cfg.shaping_a, cfg.shaping_b)
    shaping_weight, scale = cfg.reward_terms(gamma)
    qnet.bind_topology(env.topology)
    action_index = {a: i for i, a in enumerate(qnet.action_list)}
    demos: list[Transition] = []
    venv = VectorEnv([env], auto_reset=False)
    lane: dict = {}

    def on_episode_start(slot: int, ep: int, obs) -> None:
        expert.reset(env)
        featurizer.reset()
        lane["start"] = len(demos)
        lane["features"] = featurizer.update(obs)
        lane["phi"] = shaper.potential_from_info(venv.reset_infos[slot])

    def act(slots, observations):
        actions = expert.act(observations[0])
        # an empty decision is the noop, index 0
        lane["action"] = action_index.get(actions[0], 0) if actions else 0
        return [actions[:1]]

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        phi_next = shaper.potential_from_info(info)
        r = (reward + shaping_weight
             * shaper.shape(lane["phi"], phi_next, done)) * scale
        lane["phi"] = phi_next
        next_features = featurizer.update(obs)
        demos.append(Transition(lane["features"], lane["action"], r,
                                next_features, done, gamma))
        lane["features"] = next_features

    def on_episode_end(slot: int, ep: int, obs) -> None:
        # annotate Monte-Carlo return-to-go for value anchoring
        g = 0.0
        for i in reversed(range(lane["start"], len(demos))):
            g = demos[i].reward + gamma * g
            demos[i] = replace(demos[i], mc_return=g)

    drive_vec_episodes(venv, fan_out(episodes), seed=seed,
                       max_steps=max_steps,
                       on_episode_start=on_episode_start, act=act,
                       on_step=on_step, on_episode_end=on_episode_end)
    return demos


def pretrain(
    qnet: AttentionQNetwork,
    demos: list[Transition],
    config: PretrainConfig | None = None,
) -> list[float]:
    """Optimize the value-regression + margin loss over demo batches."""
    cfg = config or PretrainConfig()
    if not demos:
        raise ValueError("no demonstrations provided")
    if any(d.mc_return is None for d in demos):
        raise ValueError("demonstrations must carry mc_return annotations")
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(qnet.named_parameters(), lr=cfg.lr, grad_clip=cfg.grad_clip)
    losses: list[float] = []

    for _ in range(cfg.iterations):
        batch_idx = rng.integers(len(demos), size=min(cfg.batch_size, len(demos)))
        batch = [demos[int(i)] for i in batch_idx]
        states = stack_features([tr.state for tr in batch])
        actions = np.array([tr.action for tr in batch], np.int64)
        returns = np.array([tr.mc_return for tr in batch])

        optimizer.zero_grad()
        loss = margin_loss(qnet.forward(*states, grad=True), actions, returns,
                           margin=cfg.margin, margin_weight=cfg.margin_weight)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return losses
