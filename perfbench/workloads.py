"""The benchmark's three workloads: the paper's own uses of the system.

Each workload is a closed loop with one client: it sends its next
request only after the previous one returned. A request is one
operation a user of the reproduction waits for, sized as a real caller
in the repository sizes it (see perfbench/README.md):

* ``acso-eval`` -- one 400-step episode of the ACSO defender (attention
  Q-network over DBN beliefs) on the paper network, as ``repro simulate
  --policy acso --max-steps 400`` runs it;
* ``dqn-train`` -- one 120-step double-DQN training episode in the
  configuration of ``benchmarks/bench_rl_ablation.py``;
* ``ope-report`` -- scoring one candidate checkpoint offline with the
  ``repro ope report`` defaults: the OPE suite over an on-disk trace,
  its run-store row, and the promotion verdict against a baseline.

Every request of a workload does the same amount of work from the same
starting state: per-request episode seeds differ, but training state
and run stores do not grow from one request to the next, so the median
request stands for every request of the run.

``setup()`` builds everything a request needs and runs one warm-up
request, so lazy initialisation lands in set-up time, not in the first
timed request. ``prepare()`` restores the per-request starting state
outside the timed part. ``check()`` verifies outputs against the
program's stated contracts after the timed loop. Inputs come from the
run seed only.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from pathlib import Path

import numpy as np

import repro
from repro.config import tiny_network
from repro.dbn import fit_dbn
from repro.defenders import SemiRandomPolicy
from repro.defenders.acso import ACSOPolicy
from repro.eval.runner import evaluate_policy, evaluate_policy_vec
from repro.rl import AttentionQNetwork, QNetConfig
from repro.rl.dqn import DQNConfig, DQNTrainer
from repro.rl.features import ACSOFeaturizer
from repro.serve import RunStore, promote_checkpoint
from repro.sim.vec_env import VectorEnv
from repro.validation import (
    StochasticQPolicy,
    TraceDataset,
    TraceWriter,
    collect_logged_episodes,
    record_episodes_vec,
    run_ope_suite,
)

#: the compact Q-network of ``bench_rl_ablation.py``, ``bench_ope.py``
#: and ``repro ope record``
_COMPACT_QNET = QNetConfig(d_model=16, n_heads=2, encoder_hidden=32,
                           head_hidden=32)


def _base_seed(seed: int) -> int:
    """A bounded episode-seed base drawn from the run seed."""
    return int(np.random.default_rng(seed).integers(1, 2**30))


def _fit_tables(make_env, seed: int, rate: float, max_steps=None):
    """DBN tables fit from four random-defender episodes, as the CLI and
    the benchmark fixtures fit them when no tables file is given."""
    return fit_dbn(make_env, lambda: SemiRandomPolicy(rate=rate),
                   episodes=4, seed=seed, max_steps=max_steps)


class Workload:
    """One workload: set-up, a request, and the output checks."""

    name = ""
    #: the environment class a traced run times as the simulator layer
    env_cls = None

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.base = _base_seed(seed)
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed: restore the starting state of request ``index``."""

    def request(self, index: int) -> None:
        """Timed request ``index`` (``-1`` is the set-up warm-up)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the outputs of the timed requests."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` acquired, also after a partial set-up."""


class AcsoEval(Workload):
    """Paper network, one ACSO episode of 400 decisions per request."""

    name = "acso-eval"
    scenario = "inasim-paper-v1"
    #: the evaluation horizon of ``bench_size_generalization.py``
    horizon = 400

    def setup(self) -> None:
        self.env = repro.make(self.scenario, horizon=self.horizon)
        self.env_cls = type(self.env)
        config = self.env.config
        self.tables = _fit_tables(lambda: repro.make_env(config), self.seed,
                                  rate=5.0)
        qnet = AttentionQNetwork(QNetConfig(), seed=self.seed)
        self.policy = ACSOPolicy(qnet, self.tables)
        self.results: list[tuple[int, list]] = []
        self.request(-1)

    def _seed(self, index: int) -> int:
        return self.base + index + 1

    def request(self, index: int) -> None:
        _, episodes = evaluate_policy(self.env, self.policy, 1,
                                      seed=self._seed(index),
                                      max_steps=self.horizon)
        if index >= 0:
            self.results.append((self._seed(index), episodes))

    def check(self) -> list[str]:
        problems = []
        for seed, (episode,) in self.results:
            if not math.isfinite(episode.discounted_return) \
                    or episode.steps != self.horizon:
                problems.append(f"acso-eval seed {seed}: return "
                                f"{episode.discounted_return}, "
                                f"{episode.steps} steps")
        # batched lockstep lanes must reproduce the single-env episodes
        # of the first two requests (EpisodeMetrics equality leaves out
        # wall time)
        venv = repro.make_vec(self.scenario, 2, seed=self.seed,
                              backend="batched", horizon=self.horizon)
        try:
            _, batched = evaluate_policy_vec(venv, self.policy, 2,
                                             seed=self._seed(0),
                                             max_steps=self.horizon)
        finally:
            venv.close()
        if batched != [episode for _, (episode,) in self.results[:2]]:
            problems.append("acso-eval: batched lanes differ from the "
                            "single-env requests")
        return problems


#: ``bench_rl_ablation.py``'s DQN settings (its "paper" cell)
_ABLATION_DQN = dict(batch_size=16, warmup=32, update_every=4,
                     target_update=100, eps_decay=0.995, buffer_size=5_000,
                     n_step=8)


class DqnTrain(Workload):
    """``bench_rl_ablation.py``'s paper cell: tiny network with a 10x
    faster attacker, compact Q-network, one 120-step episode per request,
    each from the same trained-once trainer state."""

    name = "dqn-train"
    horizon = 120

    def _build(self) -> DQNTrainer:
        """A seeded trainer after one warm-up episode (replay past its
        warm-up size, so every request takes gradient steps)."""
        config = tiny_network(tmax=150)
        tables = _fit_tables(lambda: repro.make_env(config), self.seed,
                             rate=3.0, max_steps=150)
        env = repro.make_env(config.with_apt(
            dataclasses.replace(config.apt, time_scale=10.0)), seed=self.seed)
        self.env_cls = type(env)
        trainer = DQNTrainer(env, AttentionQNetwork(_COMPACT_QNET,
                                                    seed=self.seed),
                             ACSOFeaturizer(env.topology, tables),
                             DQNConfig(**_ABLATION_DQN, seed=self.seed))
        trainer.train(1, seed=self.base, max_steps=self.horizon)
        return trainer

    def _copy(self, trainer: DQNTrainer) -> DQNTrainer:
        """An independent trainer in ``trainer``'s state; the env is
        shared, since every episode starts with a seeded reset."""
        return copy.deepcopy(trainer, memo={id(trainer.env): trainer.env})

    def _train(self, trainer: DQNTrainer, index: int):
        return trainer.train(1, seed=self.base + index + 1,
                             max_steps=self.horizon)[-1]

    def setup(self) -> None:
        self.snapshot = self._build()
        self.stats: list = []

    def prepare(self, index: int) -> None:
        self.trainer = self._copy(self.snapshot)

    def request(self, index: int) -> None:
        self.stats.append(self._train(self.trainer, index))

    def check(self) -> list[str]:
        problems = []
        for index, episode in enumerate(self.stats):
            if not (math.isfinite(episode.mean_loss) and episode.mean_loss > 0.0
                    and episode.steps == self.horizon):
                problems.append(f"dqn-train request {index}: loss "
                                f"{episode.mean_loss}, {episode.steps} steps")
        # a seeded trainer is deterministic: rebuild it from scratch and
        # replay the first and last requests
        rebuilt = self._build()
        for index in (0, len(self.stats) - 1):
            if self._train(self._copy(rebuilt), index) != self.stats[index]:
                problems.append(f"dqn-train request {index}: a rebuilt "
                                "trainer did not reproduce the episode")
        return problems


class OpeReport(Workload):
    """``repro ope report`` defaults over the trace shape of
    ``bench_ope.py``'s accuracy cell (tiny network, 6 episodes of 25
    steps, recorded over 4 lanes as ``repro ope record`` does); each
    request scores one candidate checkpoint into a fresh run store that
    holds the baseline's row, then judges it against the baseline."""

    name = "ope-report"
    horizon = 25
    episodes = 6
    lanes = 4
    #: ``repro ope report`` defaults
    report_options = {"clip": None, "alpha": 0.05, "n_boot": 2000,
                      "bootstrap_seed": 0}
    fqe_options = {"iterations": 3, "epochs_per_iteration": 1,
                   "chunk_episodes": 64, "seed": 0}

    def _behaviour(self, ep: int) -> StochasticQPolicy:
        # ``repro ope record`` defaults
        return StochasticQPolicy(self.behaviour_net, self.tables,
                                 temperature=1.0, epsilon=0.3,
                                 seed=self.base + ep)

    def setup(self) -> None:
        self.config = tiny_network(tmax=self.horizon)
        self.tables = _fit_tables(lambda: repro.make_env(self.config),
                                  self.seed, rate=5.0)
        self.trace = self.scratch / "trace"
        venv = VectorEnv([repro.make_env(self.config, seed=self.base + i)
                          for i in range(self.lanes)], base_seed=self.base)
        try:
            self.topology = venv.topology
            self.behaviour_net = AttentionQNetwork(
                _COMPACT_QNET, seed=self.seed).bind_topology(self.topology)
            with TraceWriter(self.trace, meta={"seed": self.base}) as writer:
                record_episodes_vec(venv, self._behaviour, self.episodes,
                                    writer, seed=self.base,
                                    max_steps=self.horizon)
        finally:
            venv.close()
        self.baseline = self._suite(TraceDataset(self.trace), -1).to_dict()
        self.reports: list[tuple[Path, str, dict, dict]] = []

    def _net(self, seed: int) -> AttentionQNetwork:
        return AttentionQNetwork(_COMPACT_QNET, seed=seed).bind_topology(
            self.topology)

    def _suite(self, episodes, index: int):
        """The suite for candidate ``index`` (``-1`` is the baseline)."""
        seed = self.base + 2 + index
        target = StochasticQPolicy(self._net(seed), self.tables,
                                   temperature=0.25, epsilon=0.05, seed=seed)
        # FQE fits the evaluation network in place: a fresh one per
        # report, as ``repro ope report`` builds it
        return run_ope_suite(episodes, target,
                             self._net(self.fqe_options["seed"]),
                             fqe_options=self.fqe_options,
                             **self.report_options)

    def _store_path(self, index: int) -> Path:
        return self.scratch / f"runs-{index}.sqlite"

    def prepare(self, index: int) -> None:
        with RunStore(str(self._store_path(index))) as store:
            self.baseline_id = self._record(store, -1, self.baseline)

    def _record(self, store: RunStore, index: int, report: dict) -> str:
        run_id = store.create_run("ope-report", policy="stochastic-q",
                                  seed=index, episodes=report["episodes"],
                                  detail={"trace": str(self.trace)},
                                  status="queued")
        store.mark_running(run_id)
        store.finish_run(run_id, metrics=report)
        return run_id

    def request(self, index: int) -> None:
        report = self._suite(TraceDataset(self.trace), index).to_dict()
        path = self._store_path(index)
        with RunStore(str(path)) as store:
            run_id = self._record(store, index, report)
            decision = promote_checkpoint(store, run_id, self.baseline_id)
        self.reports.append((path, run_id, report, decision))

    def check(self) -> list[str]:
        problems = []
        for path, run_id, report, decision in self.reports:
            for name, estimate in report["estimates"].items():
                values = (estimate["estimate"], estimate["lower"],
                          estimate["upper"])
                if not (all(map(math.isfinite, values))
                        and estimate["lower"] <= estimate["upper"]):
                    problems.append(f"ope-report {run_id} {name}: {values}")
            expected = ("promote" if decision["candidate_lower"]
                        >= decision["baseline_lower"] else "hold")
            with RunStore(str(path)) as store:
                stored = store.get_run(run_id)["metrics"]["estimates"]
                promotions = store.promotions(limit=None)
            if decision["verdict"] != expected \
                    or stored != report["estimates"] or len(promotions) != 1:
                problems.append(f"ope-report {run_id}: stored report, "
                                "verdict or promotion row disagrees with "
                                "the lower bounds")
        # the trace must hold the episodes a single env logs, and the
        # suite over the disk shards must equal the suite in memory
        env = repro.make_env(self.config)
        memory = [
            collect_logged_episodes(env, self._behaviour(ep), 1,
                                    seed=self.base + ep,
                                    max_steps=self.horizon)[0]
            for ep in range(self.episodes)
        ]
        for ep, (disk, mem) in enumerate(zip(TraceDataset(self.trace),
                                             memory)):
            if [(s.action, s.behavior_prob, s.reward) for s in disk.steps] \
                    != [(s.action, s.behavior_prob, s.reward)
                        for s in mem.steps]:
                problems.append(f"ope-report: trace episode {ep} differs "
                                "from the single-env log")
        if self._suite(memory, 0).to_dict()["estimates"] \
                != self.reports[0][2]["estimates"]:
            problems.append("ope-report: disk and in-memory suites differ")
        return problems


WORKLOADS = {cls.name: cls for cls in (AcsoEval, DqnTrain, OpeReport)}


def trace_layers(recorder, workload: Workload) -> None:
    """Wrap each layer's entry points in spans (``--trace 1`` runs)."""
    import repro.defenders.acso as acso_module
    import repro.rl.dqn as dqn_module
    from repro.dbn.filter import DBNFilter
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.rl.replay import PrioritizedReplay
    from repro.validation import datasets, suite

    hooks = [
        (ACSOPolicy, "reset", "policy.reset"),
        (ACSOFeaturizer, "reset", "policy.reset"),
        (ACSOFeaturizer, "update", "featurize"),
        (DBNFilter, "update", "dbn.filter"),
        (acso_module, "valid_action_mask", "action_mask"),
        (dqn_module, "valid_action_mask", "action_mask"),
        (AttentionQNetwork, "forward", "qnet.forward"),
        (Tensor, "backward", "qnet.backward"),
        (Adam, "step", "optimizer"),
        (PrioritizedReplay, "add", "replay"),
        (PrioritizedReplay, "sample", "replay"),
        (PrioritizedReplay, "update_priorities", "replay"),
        (DQNTrainer, "update", "dqn.update"),
        (datasets, "_decode_episode", "ope.decode"),
        (StochasticQPolicy, "action_probs", "ope.propensity"),
        (StochasticQPolicy, "action_probs_batch", "ope.propensity"),
        (suite, "_stats_arrays", "ope.is_pass"),
        (suite, "fitted_q_evaluation", "ope.fqe"),
        (suite, "episode_dr_value", "ope.dr"),
        (suite, "bootstrap_ci", "ope.bootstrap"),
        (suite, "bootstrap_ratio_ci", "ope.bootstrap"),
    ]
    hooks += [(RunStore, method, "store")
              for method in ("__init__", "create_run", "mark_running",
                             "finish_run", "get_run", "record_promotion",
                             "close")]
    if workload.env_cls is not None:
        hooks += [(workload.env_cls, "step", "sim.step"),
                  (workload.env_cls, "reset", "sim.reset")]
    for owner, attr, name in hooks:
        recorder.wrap(owner, attr, name)
