"""DBN validation (paper Section 4.3).

The paper validates the filter by "measuring the maximum KL divergence
of the DBN belief and the true state over many episodes". With a
one-hot truth distribution, KL(truth || belief) reduces to the negative
log belief assigned to the true state; we report its maximum and mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbn.filter import DBNFilter, DBNTables
from repro.dbn.states import canonical_states
from repro.sim.vec_env import VectorEnv, drive_policies, fan_out

__all__ = ["DBNValidationResult", "validate_dbn"]


@dataclass(frozen=True)
class DBNValidationResult:
    max_kl: float
    mean_kl: float
    accuracy: float  # fraction of node-steps where argmax belief == truth
    steps: int


def validate_dbn(
    env_factory,
    policy_factory,
    tables: DBNTables,
    episodes: int = 5,
    seed: int = 1000,
    max_steps: int | None = None,
    clip: float = 1e-6,
) -> DBNValidationResult:
    """Track beliefs alongside ground truth and score them.

    Episode ``i`` runs seeded ``seed + i`` on a fresh environment and
    policy from the factories.
    """
    max_kl = 0.0
    total_kl = 0.0
    correct = 0
    count = 0

    for i in range(episodes):
        env = env_factory()
        dbn = DBNFilter(tables, env.topology)

        def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
            nonlocal max_kl, total_kl, correct, count
            beliefs = dbn.update(obs)
            truth = canonical_states(info["conditions"])
            p_true = np.clip(beliefs[np.arange(len(truth)), truth], clip, 1.0)
            kls = -np.log(p_true)
            max_kl = max(max_kl, float(kls.max()))
            total_kl += float(kls.sum())
            correct += int((beliefs.argmax(axis=1) == truth).sum())
            count += len(truth)

        drive_policies(VectorEnv([env], auto_reset=False), [policy_factory()],
                       fan_out(1), seed=seed + i, max_steps=max_steps,
                       on_step=on_step)

    return DBNValidationResult(
        max_kl=max_kl,
        mean_kl=total_kl / max(count, 1),
        accuracy=correct / max(count, 1),
        steps=count,
    )
