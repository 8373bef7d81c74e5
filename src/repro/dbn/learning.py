"""Learning the DBN's conditional probability tables from data.

The paper runs 1,000 episodes with a random defender, records states,
actions, and observations, and builds probability tables by counting.
:func:`collect_episode` logs one episode; :func:`fit_tables` turns logs
into Laplace-smoothed tables; :func:`fit_dbn` is the one-call helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dbn.filter import DBNTables
from repro.dbn.states import (
    N_ACTION_CATEGORIES,
    N_MU_BUCKETS,
    N_SCAN_TYPES,
    N_STATES,
    SCAN_TYPE_INDEX,
    action_category,
    ActionCategory,
    canonical_states,
    mu_bucket,
)
from repro.sim.vec_env import VectorEnv, drive_policies, fan_out

__all__ = ["EpisodeLog", "collect_episode", "fit_tables", "fit_dbn"]


@dataclass
class EpisodeLog:
    """Ground-truth trace of one episode for table fitting."""

    #: canonical state per node per step, shape (T+1, N)
    states: np.ndarray
    #: defender action category completing on each node, shape (T, N)
    action_cats: np.ndarray
    #: max alert severity per node per step, shape (T, N)
    alert_levels: np.ndarray
    #: completed scans: (t, node, scan_type_index, detected)
    scans: list[tuple[int, int, int, bool]] = field(default_factory=list)


def collect_episode(env, policy, seed: int | None = None,
                    max_steps: int | None = None) -> EpisodeLog:
    """Run one episode and log everything the table fitter needs (the
    ground-truth condition matrix comes from the step info)."""
    n = env.topology.n_nodes
    states: list[np.ndarray] = []
    action_cats, alert_levels = [], []
    scans: list[tuple[int, int, int, bool]] = []

    def on_episode_start(slot: int, ep: int, obs) -> None:
        states.append(canonical_states(env.sim.state.conditions))

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        t = info["t"]
        states.append(canonical_states(info["conditions"]))
        cats = np.zeros(n, dtype=np.int64)
        for action in obs.completed_actions:
            cat = action_category(action.atype)
            if cat is not ActionCategory.NONE and action.target is not None \
                    and action.target < n:
                cats[action.target] = int(cat)
        action_cats.append(cats)
        alert_levels.append(obs.alert_severity_per_node(n))
        for result in obs.scan_results:
            idx = SCAN_TYPE_INDEX.get(result.action_type)
            if idx is not None:
                scans.append((t, result.node_id, idx, result.detected))

    drive_policies(VectorEnv([env], auto_reset=False), [policy], fan_out(1),
                   seed=seed, max_steps=max_steps,
                   on_episode_start=on_episode_start, on_step=on_step)
    return EpisodeLog(
        states=np.array(states),
        action_cats=np.array(action_cats),
        alert_levels=np.array(alert_levels),
        scans=scans,
    )


def fit_tables(logs: list[EpisodeLog], smoothing: float = 0.5) -> DBNTables:
    """Count-based maximum likelihood tables with Laplace smoothing."""
    trans = np.full(
        (N_MU_BUCKETS, N_ACTION_CATEGORIES, N_STATES, N_STATES), smoothing
    )
    # bias the prior toward self-transitions so sparsely observed
    # (mu, action) cells behave sensibly instead of diffusing mass
    trans += 10.0 * smoothing * np.eye(N_STATES)
    alert = np.full((N_STATES, 4), smoothing)
    scan = np.full((N_SCAN_TYPES, N_STATES, 2), smoothing)

    # every (step, node) of every log as flat index columns, counted with
    # one np.add.at per table: the counts are sums of 1.0 onto 0.5 and
    # 5.5, exact in any order
    mu, cats, s_prev, s_next, levels = [], [], [], [], []
    scan_keys = []
    for log in logs:
        steps = log.action_cats.shape[0]
        if steps:
            prev = log.states[:steps]
            # mu bucket of each step, looked up by its compromised count
            buckets = np.array([mu_bucket(c) for c in range(prev.shape[1] + 1)])
            mu.append(np.repeat(buckets[(prev >= 2).sum(axis=1)], prev.shape[1]))
            cats.append(log.action_cats.ravel())
            s_prev.append(prev.ravel())
            s_next.append(log.states[1:steps + 1].ravel())
            levels.append(log.alert_levels.ravel())
        if log.scans:
            t, node, scan_idx, detected = np.array(log.scans, np.int64).T
            scan_keys.append((scan_idx, log.states[t, node], detected))
    if mu:
        s_next = np.concatenate(s_next)
        np.add.at(trans, (np.concatenate(mu), np.concatenate(cats),
                          np.concatenate(s_prev), s_next), 1.0)
        np.add.at(alert, (s_next, np.concatenate(levels)), 1.0)
    if scan_keys:
        np.add.at(scan, tuple(np.concatenate(column)
                              for column in zip(*scan_keys)), 1.0)

    trans /= trans.sum(axis=-1, keepdims=True)
    alert /= alert.sum(axis=-1, keepdims=True)
    scan /= scan.sum(axis=-1, keepdims=True)
    return DBNTables(trans, alert, scan)


def fit_dbn(env_factory, policy_factory, episodes: int,
            seed: int = 0, max_steps: int | None = None,
            smoothing: float = 0.5) -> DBNTables:
    """Generate data with a (random) defender policy and fit the DBN.

    ``env_factory()`` and ``policy_factory()`` build fresh instances;
    episodes are seeded ``seed, seed+1, ...`` for reproducibility.
    """
    logs = []
    for i in range(episodes):
        env = env_factory()
        policy = policy_factory()
        logs.append(collect_episode(env, policy, seed=seed + i, max_steps=max_steps))
    return fit_tables(logs, smoothing=smoothing)
