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

A third family, ``tests/golden/loops/*.json``, pins every episode loop
of the library on the tiny network: the DQN trainer on a plain
environment (epsilon-greedy with prioritized or uniform replay) and on
a two-lane vector environment, the conv
baseline, seeded evaluation, logged-episode collection for OPE, trace
recording, DBN fitting and validation, and
demonstration collection. Training cells digest every episode's
statistics and the final weights; the others digest what the loop
returns. Two OPE cells pin the offline-scoring path: ``ope-trace``
digests every record column and the manifest's episode table of a
two-lane on-disk trace, and ``ope-suite`` every estimate of the OPE
suite over that trace. Floats are hashed at ``Q_DECIMALS`` like the Q-vectors above,
so reordering a loop's resets, seeds, RNG draws or horizon checks fails
here.
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

LOOPS_DIR = GOLDEN_DIR / "loops"
#: horizon of every loop cell's episodes
LOOP_STEPS = 30


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


def float_digest(values) -> str:
    """:func:`q_digest` of a flat sequence of floats."""
    import numpy as np

    return q_digest([np.asarray(values, dtype=float)])


def _loop_config():
    from repro.config import tiny_network

    return tiny_network(tmax=LOOP_STEPS + 10)


def _loop_env(seed: int = SEED):
    import repro

    return repro.make_env(_loop_config(), seed=seed)


def _loop_tables():
    from repro.dbn import fit_dbn
    from repro.defenders import SemiRandomPolicy

    return fit_dbn(_loop_env, lambda: SemiRandomPolicy(rate=3.0, seed=SEED),
                   episodes=2, seed=SEED, max_steps=LOOP_STEPS)


def _compact_qnet_config(**overrides):
    from repro.rl import QNetConfig

    return QNetConfig(d_model=8, n_heads=2, encoder_hidden=16,
                      head_hidden=16, **overrides)


def _loop_dqn_config(**overrides):
    from repro.rl import DQNConfig

    settings = dict(batch_size=8, warmup=16, update_every=2,
                    target_update=25, eps_decay=0.99, buffer_size=500,
                    n_step=3, seed=SEED)
    settings.update(overrides)
    return DQNConfig(**settings)


def _training_digest(trainer, max_steps: int | None = LOOP_STEPS) -> dict:
    history = trainer.train(3, seed=SEED, max_steps=max_steps)
    return {
        "episodes": [
            {"episode": s.episode, "steps": s.steps,
             "plcs_offline": s.plcs_offline,
             "floats_sha256_16": float_digest(
                 [s.env_return, s.shaped_return, s.mean_loss, s.epsilon])}
            for s in history
        ],
        "total_steps": trainer.total_steps,
        "weights_sha256_16": q_digest(
            [p.data.ravel() for _, p in trainer.qnet.named_parameters()]),
    }


def _attention_trainer(env, qnet_overrides=None, dqn_overrides=None):
    from repro.rl import ACSOFeaturizer, AttentionQNetwork, DQNTrainer

    qnet = AttentionQNetwork(_compact_qnet_config(**(qnet_overrides or {})),
                             seed=SEED)
    return DQNTrainer(env, qnet, ACSOFeaturizer(env.topology, _loop_tables()),
                      _loop_dqn_config(**(dqn_overrides or {})))


def _loop_dqn_per() -> dict:
    return _training_digest(_attention_trainer(_loop_env()))


def _loop_dqn_uniform() -> dict:
    return _training_digest(_attention_trainer(
        _loop_env(), dqn_overrides={"prioritized": False}))


def _loop_dqn_vec2() -> dict:
    from repro.sim.vec_env import VectorEnv

    # no step cap: episodes end on the environment's own horizon
    venv = VectorEnv([_loop_env(SEED), _loop_env(SEED + 1)])
    return _training_digest(_attention_trainer(venv), max_steps=None)


def _loop_conv() -> dict:
    from repro.rl import ConvQNetwork, DQNTrainer, RawHistoryEncoder
    from repro.rl.qnetwork import ConvNetConfig

    env = _loop_env()
    step_dim = RawHistoryEncoder(env.topology).step_dim
    qnet = ConvQNetwork(step_dim, env.n_actions,
                        ConvNetConfig(window=8, channels=(8,), kernel=4,
                                      stride=4, mlp_hidden=16), seed=SEED)
    encoder = RawHistoryEncoder(env.topology, window=qnet.config.window)
    return _training_digest(DQNTrainer(env, qnet, encoder, _loop_dqn_config()))


def _metrics_digest(metrics) -> dict:
    return {"steps": metrics.steps, "seed": metrics.seed,
            "final_plcs_offline": metrics.final_plcs_offline,
            "floats_sha256_16": float_digest(
                [metrics.discounted_return, metrics.avg_it_cost,
                 metrics.avg_nodes_compromised])}


def _loop_evaluate() -> dict:
    from repro.defenders import SemiRandomPolicy
    from repro.eval.runner import evaluate_policy

    aggregate, episodes = evaluate_policy(
        _loop_env(), SemiRandomPolicy(rate=3.0, seed=SEED), 3, seed=SEED,
        max_steps=LOOP_STEPS)
    return {"episodes": [_metrics_digest(m) for m in episodes]}


def _features_digest(features) -> list:
    return [features.node.ravel(), features.plc.ravel(), features.glob]


def _loop_logged() -> dict:
    from repro.rl import AttentionQNetwork
    from repro.validation import StochasticQPolicy, collect_logged_episodes

    behavior = StochasticQPolicy(
        AttentionQNetwork(_compact_qnet_config(), seed=SEED), _loop_tables(),
        temperature=1.0, epsilon=0.2, seed=SEED)
    logs = collect_logged_episodes(_loop_env(), behavior, 3, seed=SEED,
                                   max_steps=LOOP_STEPS)
    out = []
    for log in logs:
        arrays = []
        for t in range(len(log)):
            arrays += [log.features.node[t].ravel(),
                       log.features.plc[t].ravel(), log.features.glob[t]]
            arrays.append(log.masks[t].astype(float))
        arrays += _features_digest(log.final_features)
        arrays.append(log.final_mask.astype(float))
        out.append({
            "seed": log.seed, "steps": len(log), "gamma": log.gamma,
            "actions": log.actions.tolist(),
            "floats_sha256_16": float_digest(
                list(log.rewards) + list(log.behavior_probs)),
            "states_sha256_16": q_digest(arrays),
        })
    return {"episodes": out}


def _ope_record(path):
    """Record 3 seeded episodes over two lanes into a trace at ``path``;
    returns the DBN tables the behaviour policy used."""
    from repro.rl import AttentionQNetwork
    from repro.sim.vec_env import VectorEnv
    from repro.validation import (
        StochasticQPolicy,
        TraceWriter,
        record_episodes_vec,
    )

    tables = _loop_tables()
    qnet = AttentionQNetwork(_compact_qnet_config(), seed=SEED)

    def behavior(ep: int):
        return StochasticQPolicy(qnet, tables, temperature=1.0, epsilon=0.2,
                                 seed=SEED + ep)

    venv = VectorEnv([_loop_env(SEED), _loop_env(SEED + 1)])
    # 40-row shards: two episodes land in the first shard, one in the second
    with TraceWriter(path, shard_rows=40, meta={"seed": SEED}) as writer:
        record_episodes_vec(venv, behavior, 3, writer, seed=SEED,
                            max_steps=LOOP_STEPS)
    return tables


def _loop_ope_trace() -> dict:
    import tempfile

    import numpy as np

    from repro.validation import TraceDataset
    from repro.validation.tracestore import (
        BREAKDOWN_FIELDS,
        INFO_SCALAR_FIELDS,
    )

    with tempfile.TemporaryDirectory() as tmp:
        _ope_record(tmp)
        dataset = TraceDataset(tmp)
        records = np.concatenate(list(dataset.iter_shards()))
        shards = [{"rows": s["rows"], "nbytes": s["nbytes"],
                   "episodes": s["episodes"]} for s in dataset.shards]
    # integer columns exactly, float columns through the rounded digests
    ints = ("episode", "lane", "kind", "done", "action") + tuple(
        name for name in INFO_SCALAR_FIELDS if name != "it_cost")
    out = {name: records[name].tolist() for name in ints}
    out["shards"] = shards
    out["floats_sha256_16"] = float_digest(
        np.concatenate([records["reward"], records["behavior_prob"]]))
    out["info_sha256_16"] = float_digest(np.concatenate(
        [records["it_cost"]]
        + [records[f"rb_{name}"] for name in BREAKDOWN_FIELDS]))
    out["states_sha256_16"] = q_digest(
        [records[name].ravel() for name in ("node", "plc", "glob")]
        + [records["mask"].ravel().astype(float)])
    return out


def _loop_ope_suite() -> dict:
    import tempfile

    from repro.rl import AttentionQNetwork
    from repro.validation import StochasticQPolicy, TraceDataset, run_ope_suite

    topology = _loop_env().topology
    with tempfile.TemporaryDirectory() as tmp:
        tables = _ope_record(tmp)
        target_qnet = AttentionQNetwork(_compact_qnet_config(), seed=SEED + 1)
        target = StochasticQPolicy(target_qnet.bind_topology(topology),
                                   tables, temperature=0.5, epsilon=0.05,
                                   seed=SEED)
        eval_qnet = AttentionQNetwork(_compact_qnet_config(), seed=SEED + 2)
        report = run_ope_suite(
            TraceDataset(tmp), target, eval_qnet.bind_topology(topology),
            n_boot=200, bootstrap_seed=SEED,
            fqe_options={"iterations": 2, "epochs_per_iteration": 1,
                         "batch_size": 16, "chunk_episodes": 2,
                         "seed": SEED})
    return {
        "episodes": report.episodes,
        "transitions": report.transitions,
        "estimates_sha256_16": {
            name: float_digest([e.estimate, e.lower, e.upper, e.stderr,
                                e.ess])
            for name, e in report.estimates.items()
        },
        "fqe_losses_sha256_16": float_digest(report.fqe_losses),
        "fqe_reward_scale": report.fqe_reward_scale,
    }


def _loop_trace() -> dict:
    from repro.defenders import PlaybookPolicy
    from repro.sim.trace import record_episode

    trace = record_episode(_loop_env(), PlaybookPolicy(), seed=SEED,
                           max_steps=LOOP_STEPS)
    h = hashlib.sha256()
    for step in trace.steps:
        h.update(repr(step).encode())
    return {"seed": trace.seed, "policy": trace.policy,
            "steps": len(trace), "steps_sha256_16": h.hexdigest()[:16]}


def _loop_fit_dbn() -> dict:
    tables = _loop_tables()
    return {"tables_sha256_16": q_digest(
        [tables.transition.ravel(), tables.alert_lik.ravel(),
         tables.scan_lik.ravel()])}


def _loop_validate_dbn() -> dict:
    from repro.dbn import validate_dbn
    from repro.defenders import SemiRandomPolicy

    result = validate_dbn(_loop_env, lambda: SemiRandomPolicy(rate=3.0),
                          _loop_tables(), episodes=2, seed=SEED,
                          max_steps=LOOP_STEPS)
    return {"steps": result.steps, "floats_sha256_16": float_digest(
        [result.max_kl, result.mean_kl, result.accuracy])}


def _loop_demonstrations() -> dict:
    from repro.defenders import DBNExpertPolicy
    from repro.rl import ACSOFeaturizer, AttentionQNetwork
    from repro.rl.pretrain import collect_demonstrations

    env = _loop_env()
    tables = _loop_tables()
    demos = collect_demonstrations(
        env, DBNExpertPolicy(tables, max_actions=1, seed=SEED),
        ACSOFeaturizer(env.topology, tables),
        AttentionQNetwork(_compact_qnet_config(), seed=SEED),
        episodes=2, seed=SEED, max_steps=LOOP_STEPS,
        dqn_config=_loop_dqn_config())
    arrays = []
    for tr in demos:
        arrays += _features_digest(tr.state) + _features_digest(tr.next_state)
    return {
        "transitions": len(demos),
        "actions": [tr.action for tr in demos],
        "dones": [bool(tr.done) for tr in demos],
        "floats_sha256_16": float_digest(
            [v for tr in demos for v in (tr.reward, tr.discount,
                                         tr.mc_return)]),
        "states_sha256_16": q_digest(arrays),
    }


#: loop cell name -> its digest function (one fixture each)
LOOP_CELLS = {
    "dqn-egreedy-per": _loop_dqn_per,
    "dqn-uniform": _loop_dqn_uniform,
    "dqn-vec2": _loop_dqn_vec2,
    "conv": _loop_conv,
    "evaluate-policy": _loop_evaluate,
    "logged-episodes": _loop_logged,
    "record-episode": _loop_trace,
    "fit-dbn": _loop_fit_dbn,
    "validate-dbn": _loop_validate_dbn,
    "demonstrations": _loop_demonstrations,
    "ope-trace": _loop_ope_trace,
    "ope-suite": _loop_ope_suite,
}


def loop_fixture_path(cell: str) -> pathlib.Path:
    return LOOPS_DIR / f"{cell}.json"


def fixture_path(scenario_id: str) -> pathlib.Path:
    return GOLDEN_DIR / (scenario_id.replace("/", "__") + ".json")


def acso_fixture_path(scenario_id: str) -> pathlib.Path:
    return ACSO_DIR / (scenario_id.replace("/", "__") + ".json")


def _write(path: pathlib.Path, digest: dict) -> None:
    with open(path, "w") as handle:
        json.dump(digest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path.relative_to(GOLDEN_DIR)}")


def main() -> None:
    import repro

    for spec in repro.scenarios.BUILTIN_SCENARIOS:
        _write(fixture_path(spec.scenario_id), rollout_digest(spec.scenario_id))
    ACSO_DIR.mkdir(exist_ok=True)
    for scenario_id in ACSO_SCENARIOS:
        _write(acso_fixture_path(scenario_id), acso_rollout_digest(scenario_id))
    LOOPS_DIR.mkdir(exist_ok=True)
    for cell, build in LOOP_CELLS.items():
        _write(loop_fixture_path(cell), build())


if __name__ == "__main__":
    main()
