"""Episode runner used by all experiments.

Every function here is a set of callbacks on
:func:`~repro.sim.vec_env.drive_policies`, the library's one episode
loop with one policy per lane. :func:`run_episode` and
:func:`evaluate_policy` drive a plain environment as a one-lane vector
env with the caller's policy object itself, so a stochastic policy
keeps its RNG stream across episodes. :func:`evaluate_policy_vec` fans
the same seeded episodes out over a
:class:`~repro.sim.vec_env.VectorEnv` and produces identical metrics
for deterministic policies (episode ``i`` always runs with seed
``seed + i`` against a freshly reset policy). Each lane keeps its own
horizon and discount (``lane_config(i)``).
"""

from __future__ import annotations

import copy
import time

from repro.eval.metrics import EpisodeMetrics, aggregate
from repro.sim.vec_env import VectorEnv, drive_policies, fan_out

__all__ = [
    "run_episode",
    "evaluate_policy",
    "evaluate_policy_vec",
]


class _Lane:
    """Running tallies of one episode on one lane."""

    __slots__ = ("gamma", "discounted", "discount", "cost", "compromised",
                 "t", "info", "started")

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.discounted = 0.0
        self.discount = 1.0
        self.cost = 0.0
        self.compromised = 0
        self.t = 0
        self.info: dict = {}
        self.started = time.perf_counter()

    def record(self, reward: float, info: dict) -> None:
        self.t = info["t"]
        self.discounted += self.discount * reward
        self.discount *= self.gamma
        self.cost += info["it_cost"]
        self.compromised += info["n_compromised"]
        self.info = info

    def metrics(self, seed: int | None) -> EpisodeMetrics:
        steps = max(self.t, 1)
        return EpisodeMetrics(
            discounted_return=self.discounted,
            final_plcs_offline=int(self.info.get("n_plcs_offline", 0)),
            avg_it_cost=self.cost / steps,
            avg_nodes_compromised=self.compromised / steps,
            steps=self.t,
            seed=seed,
            wall_time=time.perf_counter() - self.started,
        )


def _drive_metrics(venv, policies, assign, seed, max_steps, on_done) -> None:
    """Drive ``policies[i]`` on lane ``i``; ``on_done(slot, ep,
    metrics)`` fires as each episode completes."""
    lanes: list[_Lane | None] = [None] * venv.num_envs

    def on_episode_start(slot: int, ep: int, obs) -> None:
        lanes[slot] = _Lane(venv.lane_config(slot).reward.gamma)

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        lanes[slot].record(reward, info)

    def on_episode_end(slot: int, ep: int, obs) -> None:
        on_done(slot, ep, lanes[slot].metrics(
            None if seed is None else seed + ep))

    drive_policies(venv, policies, assign, seed=seed, max_steps=max_steps,
                   on_episode_start=on_episode_start, on_step=on_step,
                   on_episode_end=on_episode_end)


def run_episode(env, policy, seed: int | None = None,
                max_steps: int | None = None) -> EpisodeMetrics:
    """Run one full episode and compute the paper's metrics."""
    _, (metrics,) = evaluate_policy(env, policy, 1, seed=seed,
                                    max_steps=max_steps)
    return metrics


def evaluate_policy(env, policy, episodes: int, seed: int | None = 0,
                    max_steps: int | None = None, on_episode=None):
    """Run ``episodes`` seeded episodes; returns (aggregate, per-episode).

    ``on_episode(index, metrics)`` — when given — fires as each episode
    completes; the evaluation service uses it for progress reporting,
    incremental run-store writes, and cooperative cancellation (an
    exception raised inside the callback aborts the loop).
    """
    results: list[EpisodeMetrics] = []

    def on_done(slot: int, ep: int, metrics: EpisodeMetrics) -> None:
        results.append(metrics)
        if on_episode is not None:
            on_episode(ep, metrics)

    _drive_metrics(VectorEnv([env], auto_reset=False), [policy],
                   fan_out(episodes), seed, max_steps, on_done)
    return aggregate(results), results


def _lane_policies(policy, n: int) -> list:
    """A clone of ``policy`` per lane, or an instance from a factory."""
    from repro.defenders.base import DefenderPolicy

    if isinstance(policy, DefenderPolicy):
        return [copy.deepcopy(policy) for _ in range(n)]
    if callable(policy):
        return [policy() for _ in range(n)]
    raise TypeError("policy must be a DefenderPolicy or a factory")


def evaluate_policy_vec(venv, policy, episodes: int, seed: int = 0,
                        max_steps: int | None = None, on_episode=None):
    """Batched :func:`evaluate_policy`: fan episodes over a VectorEnv.

    Episode ``i`` runs with seed ``seed + i`` against its lane's clone
    of ``policy`` (or a fresh instance, when ``policy`` is a
    zero-argument factory), reset per episode, so for deterministic
    policies the (aggregate, per-episode) result matches the single-env
    path exactly. Lanes are stepped in lockstep; each picks up the next
    pending episode as it finishes, and each honours its own
    ``lane_config(i)`` horizon and discount. ``on_episode(index,
    metrics)`` fires as episodes complete (in completion order, not
    index order).
    """
    results: list[EpisodeMetrics | None] = [None] * episodes

    def on_done(slot: int, ep: int, metrics: EpisodeMetrics) -> None:
        results[ep] = metrics
        if on_episode is not None:
            on_episode(ep, metrics)

    _drive_metrics(venv, _lane_policies(policy, venv.num_envs),
                   fan_out(episodes), seed, max_steps, on_done)
    return aggregate(results), results
