#!/usr/bin/env python
"""Regenerate the golden-trajectory fixtures.

Each built-in scenario gets a JSON digest of a seeded 32-step rollout
under the deterministic playbook defender: per-step rewards, done
flags, alert counts, a short hash of each step's action-validity mask,
and a hash of the full observation (alert stream, scan results, PLC
status, busy/quarantine vectors). The replay test
(``tests/test_golden_trajectories.py``) compares fresh rollouts against
these digests, so any engine change that shifts the dynamics — reward
math, attacker FSM, IDS draws, mitigation effects, RNG scheduling —
fails loudly instead of silently redefining what "the paper scenario"
means.

An engine pass that *intentionally* changes the trajectory
distribution (e.g. a reseeding-schedule change) must regenerate the
fixtures and say so in its PR:

    PYTHONPATH=src python tests/golden/regenerate.py

A second family, ``tests/golden/acso/*.json``, pins the learned
defender on top of the dynamics: a seeded 64-step rollout under an
ACSO policy built from an untrained seeded ``AttentionQNetwork`` and
DBN tables fit from two seeded ``SemiRandomPolicy`` episodes (nothing
is downloaded). It records the chosen action indices, the rewards and
a hash of every Q-vector the policy computed, so a change to Q-network
inference, the featurizer, the DBN filter or the action mask fails
here even when the engine is untouched. Q-vectors are hashed after
rounding to 1e-9, so the fixture holds across BLAS builds; the bitwise
contract between the inference path and the autograd path is checked
on one machine by ``tests/test_rl_qnet.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).parent
SEED = 20260401
STEPS = 32

ACSO_DIR = GOLDEN_DIR / "acso"
ACSO_SCENARIOS = ("inasim-tiny-v1", "inasim-paper-v1")
ACSO_STEPS = 64
#: length of each of the two DBN-fitting episodes
ACSO_FIT_STEPS = 200
#: Q-vectors are hashed at this many decimals (see the module docstring)
Q_DECIMALS = 9


def mask_digest(mask) -> str:
    """Short stable hash of a boolean action-validity mask."""
    return hashlib.sha256(mask.astype("uint8").tobytes()).hexdigest()[:16]


def observation_digest(obs) -> str:
    """Short stable hash of everything the defender observed this step."""
    h = hashlib.sha256()
    h.update(str(obs.t).encode())
    for alert in obs.alerts:
        h.update(
            f"A{alert.t},{alert.severity},{alert.node_id},{alert.device_id}"
            .encode()
        )
    for scan in obs.scan_results:
        h.update(f"S{scan.t},{scan.node_id},{int(scan.detected)}".encode())
    for vector in (obs.plc_disrupted, obs.plc_destroyed, obs.node_busy,
                   obs.plc_busy, obs.quarantined):
        h.update(vector.astype("uint8").tobytes())
    return h.hexdigest()[:16]


def rollout_digest(scenario_id: str, seed: int = SEED,
                   steps: int = STEPS) -> dict:
    """Seeded playbook-policy rollout digest for one scenario."""
    import repro
    from repro.defenders import PlaybookPolicy

    env = repro.make(scenario_id)
    obs = env.reset(seed=seed)
    policy = PlaybookPolicy()  # deterministic, alert-reactive
    policy.reset(env)
    rewards, dones, alerts, masks, observations = [], [], [], [], []
    for _ in range(steps):
        masks.append(mask_digest(env.action_mask()))
        obs, reward, done, _ = env.step(policy.act(obs))
        rewards.append(reward)
        dones.append(bool(done))
        alerts.append(len(obs.alerts))
        observations.append(observation_digest(obs))
        if done:
            break
    return {
        "scenario_id": scenario_id,
        "seed": seed,
        "steps": len(rewards),
        "policy": "playbook",
        "rewards": rewards,
        "dones": dones,
        "n_alerts": alerts,
        "action_mask_sha256_16": masks,
        "observation_sha256_16": observations,
    }


def q_digest(q_vectors) -> str:
    """Short stable hash of a sequence of Q-vectors (rounded, -0 folded)."""
    import numpy as np

    h = hashlib.sha256()
    for q in q_vectors:
        h.update((np.round(q, Q_DECIMALS) + 0.0).tobytes())
    return h.hexdigest()[:16]


def acso_policy(scenario_id: str, seed: int = SEED):
    """Untrained seeded ACSO policy over DBN tables fit from two seeded
    semi-random episodes on ``scenario_id``."""
    import repro
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy
    from repro.defenders.acso import ACSOPolicy
    from repro.rl import AttentionQNetwork, QNetConfig

    tables = fit_dbn(lambda: repro.make(scenario_id),
                     lambda: SemiRandomPolicy(rate=5.0, seed=seed),
                     episodes=2, seed=seed, max_steps=ACSO_FIT_STEPS)
    return ACSOPolicy(AttentionQNetwork(QNetConfig(), seed=seed), tables)


def acso_rollout_digest(scenario_id: str, seed: int = SEED,
                        steps: int = ACSO_STEPS) -> dict:
    """Seeded ACSO-policy rollout digest for one scenario."""
    import repro

    policy = acso_policy(scenario_id, seed)
    env = repro.make(scenario_id)
    obs = env.reset(seed=seed)
    policy.reset(env)
    qnet = policy.qnet
    q_vectors = []
    q_values = qnet.q_values

    def recorded(features):
        q = q_values(features)
        q_vectors.append(q.copy())
        return q

    qnet.q_values = recorded  # instance attribute shadows the method
    actions, rewards, dones = [], [], []
    try:
        for _ in range(steps):
            chosen = policy.act(obs)
            actions.append(qnet.action_list.index(chosen[0]) if chosen else 0)
            obs, reward, done, _ = env.step(chosen)
            rewards.append(reward)
            dones.append(bool(done))
            if done:
                break
    finally:
        del qnet.q_values
    return {
        "scenario_id": scenario_id,
        "seed": seed,
        "steps": len(rewards),
        "policy": "acso-untrained",
        "actions": actions,
        "rewards": rewards,
        "dones": dones,
        "q_sha256_16": q_digest(q_vectors),
    }


def fixture_path(scenario_id: str) -> pathlib.Path:
    return GOLDEN_DIR / (scenario_id.replace("/", "__") + ".json")


def acso_fixture_path(scenario_id: str) -> pathlib.Path:
    return ACSO_DIR / (scenario_id.replace("/", "__") + ".json")


def _write(path: pathlib.Path, digest: dict) -> None:
    with open(path, "w") as handle:
        json.dump(digest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path.relative_to(GOLDEN_DIR)}: {digest['steps']} steps")


def main() -> None:
    import repro

    for spec in repro.scenarios.BUILTIN_SCENARIOS:
        _write(fixture_path(spec.scenario_id), rollout_digest(spec.scenario_id))
    ACSO_DIR.mkdir(exist_ok=True)
    for scenario_id in ACSO_SCENARIOS:
        _write(acso_fixture_path(scenario_id), acso_rollout_digest(scenario_id))


if __name__ == "__main__":
    main()
