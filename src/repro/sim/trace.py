"""Episode trace recording, JSONL serialization, and replay checks.

A trace is the defender-visible record of one episode -- actions
launched, alert volumes, rewards, and compromise telemetry per step --
plus enough metadata (seed, policy, horizon) to re-run it. Traces
support three workflows a deployed ACSO needs:

* **debugging**: inspect exactly what a policy saw and did at any hour;
* **regression**: :func:`verify_determinism` replays an episode and
  compares traces, guarding the simulator's determinism contract
  (episodes are a pure function of config, policy, and seed);
* **data export**: JSONL files feed external analysis without
  unpickling Python objects.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.sim.orchestrator import DefenderAction, DefenderActionType
from repro.sim.vec_env import VectorEnv, drive_policies, fan_out

__all__ = ["TraceStep", "EpisodeTrace", "record_episode", "verify_determinism"]


@dataclass(frozen=True)
class TraceStep:
    """One hour of defender-visible history."""

    t: int
    #: actions launched this step, as (action type value, target)
    actions: tuple[tuple[str, int | None], ...]
    reward: float
    it_cost: float
    n_alerts: int
    #: alert count by severity (1, 2, 3)
    alerts_by_severity: tuple[int, int, int]
    n_compromised: int
    n_plcs_offline: int
    apt_phase: str | None = None


@dataclass
class EpisodeTrace:
    """A full recorded episode."""

    seed: int | None
    policy: str
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def total_reward(self) -> float:
        return sum(s.reward for s in self.steps)

    @property
    def total_it_cost(self) -> float:
        return sum(s.it_cost for s in self.steps)

    @property
    def total_alerts(self) -> int:
        return sum(s.n_alerts for s in self.steps)

    def actions_taken(self) -> list[DefenderAction]:
        """Reconstruct the launched DefenderAction objects."""
        out = []
        for step in self.steps:
            for atype_value, target in step.actions:
                out.append(
                    DefenderAction(DefenderActionType(atype_value), target)
                )
        return out

    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> None:
        """Write one header line then one line per step."""
        with open(path, "w") as handle:
            header = {"seed": self.seed, "policy": self.policy,
                      "n_steps": len(self.steps)}
            handle.write(json.dumps(header) + "\n")
            for step in self.steps:
                record = asdict(step)
                record["actions"] = [list(a) for a in step.actions]
                record["alerts_by_severity"] = list(step.alerts_by_severity)
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "EpisodeTrace":
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        if not lines:
            raise ValueError(f"empty trace file: {path}")
        header, records = lines[0], lines[1:]
        steps = [
            TraceStep(
                t=r["t"],
                actions=tuple(
                    (a[0], a[1]) for a in r["actions"]
                ),
                reward=r["reward"],
                it_cost=r["it_cost"],
                n_alerts=r["n_alerts"],
                alerts_by_severity=tuple(r["alerts_by_severity"]),
                n_compromised=r["n_compromised"],
                n_plcs_offline=r["n_plcs_offline"],
                apt_phase=r.get("apt_phase"),
            )
            for r in records
        ]
        if header.get("n_steps") != len(steps):
            raise ValueError(
                f"trace truncated: header says {header.get('n_steps')} "
                f"steps, file has {len(steps)}"
            )
        return cls(seed=header.get("seed"), policy=header.get("policy", "?"),
                   steps=steps)


def record_episode(env, policy, seed: int | None = None,
                   max_steps: int | None = None) -> EpisodeTrace:
    """Run one episode and capture its trace."""
    trace = EpisodeTrace(seed=seed, policy=getattr(policy, "name", "?"))

    def on_step(slot: int, ep: int, obs, reward, done, info) -> None:
        severities = [0, 0, 0]
        for alert in obs.alerts:
            severities[alert.severity - 1] += 1
        trace.steps.append(
            TraceStep(
                t=info["t"],
                actions=tuple(
                    (a.atype.value, a.target) for a in info["launched"]
                ),
                reward=reward,
                it_cost=info["it_cost"],
                n_alerts=len(obs.alerts),
                alerts_by_severity=tuple(severities),
                n_compromised=info["n_compromised"],
                n_plcs_offline=info["n_plcs_offline"],
                apt_phase=info.get("apt_phase"),
            )
        )

    drive_policies(VectorEnv([env], auto_reset=False), [policy], fan_out(1),
                   seed=seed, max_steps=max_steps, on_step=on_step)
    return trace


def verify_determinism(env_factory, policy_factory, seed: int = 0,
                       max_steps: int | None = None) -> bool:
    """Record the same episode twice from fresh objects and compare.

    Returns True when the traces match step for step -- the
    reproducibility contract every experiment in this repository
    depends on.
    """
    first = record_episode(env_factory(), policy_factory(), seed=seed,
                           max_steps=max_steps)
    second = record_episode(env_factory(), policy_factory(), seed=seed,
                            max_steps=max_steps)
    return first.steps == second.steps
