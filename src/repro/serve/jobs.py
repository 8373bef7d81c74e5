"""Job payloads accepted by the evaluation service.

A job is a JSON object; :func:`parse_job` validates it into a
:class:`JobRequest` before it is queued, so malformed submissions are
rejected at the HTTP boundary (400) instead of failing inside a worker.

Two kinds are served, ``evaluate`` and ``simulate``: both run one
defender policy for ``episodes`` seeded episodes on a scenario (the two
names share an executor; ``simulate`` mirrors the CLI verb). Metrics
are produced by the exact :mod:`repro.eval.runner` code paths the
one-shot CLI uses, so a served evaluation is bit-identical to ``repro
simulate`` / ``repro evaluate`` for the same scenario, seed, and policy.

The scenario is named either by registry id (``{"scenario": "..."}``)
or shipped inline as a ScenarioSpec dict (``{"spec": {...}}`` — the
same JSON form :mod:`repro.scenarios.serialization` writes to disk), so
a client can submit scenarios the server never registered.

The ``policy`` names the CLI's catalogue
(:data:`~repro.defenders.POLICY_NAMES`); ``expert`` and ``acso`` read
artifact paths (``dbn`` / ``qnet``) on the server's filesystem. A job
does not name a vector-env engine: ``repro.make_vec`` picks it by lane
count, and a payload carrying a ``backend`` field is rejected as an
unknown field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.defenders.catalogue import POLICY_NAMES, TABLE_POLICIES, make_policy

__all__ = ["JobRequest", "JobError", "JobCancelled", "parse_job",
           "build_policy", "JOB_KINDS"]

JOB_KINDS = ("evaluate", "simulate")


class JobError(ValueError):
    """A malformed or unsatisfiable job payload (HTTP 400)."""


class JobCancelled(Exception):
    """Raised inside an executor to abort a cancelled job's episode loop."""


@dataclass
class JobRequest:
    """A validated job, ready for the queue."""

    kind: str = "evaluate"
    scenario: str | None = None
    spec: dict | None = None          # inline ScenarioSpec dict
    policy: str = "playbook"
    episodes: int = 1
    seed: int = 0
    max_steps: int | None = None
    num_envs: int = 1
    tags: list[str] = field(default_factory=list)
    dbn: str | None = None            # DBN tables artifact (expert/acso)
    qnet: str | None = None           # Q-network artifact (acso)

    def resolve_spec(self):
        """The :class:`~repro.scenarios.spec.ScenarioSpec` to run."""
        if self.scenario is not None:
            from repro.scenarios import get_scenario

            return get_scenario(self.scenario)
        from repro.scenarios.serialization import spec_from_dict

        return spec_from_dict(self.spec)

    @property
    def scenario_label(self) -> str:
        if self.scenario is not None:
            return self.scenario
        return self.spec.get("scenario_id", "<inline>")

    def to_payload(self) -> dict:
        """The JSON object a client posts (omits default-valued fields)."""
        payload: dict = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "kind" and value not in (None, [], f.default):
                payload[f.name] = value
        return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def parse_job(payload: dict) -> JobRequest:
    """Validate a JSON job payload into a :class:`JobRequest`."""
    _require(isinstance(payload, dict), "job payload must be a JSON object")
    known = set(JobRequest.__dataclass_fields__)
    unknown = set(payload) - known
    _require(not unknown, f"unknown job fields: {sorted(unknown)}")

    request = JobRequest(**payload)
    _require(request.kind in JOB_KINDS,
             f"unknown job kind {request.kind!r}; choose from {JOB_KINDS}")
    _require((request.scenario is None) != (request.spec is None),
             "exactly one of 'scenario' (a registry id) or 'spec' "
             "(an inline ScenarioSpec object) is required")
    if request.scenario is not None:
        _require(isinstance(request.scenario, str) and request.scenario,
                 "'scenario' must be a non-empty string")
    else:
        _require(isinstance(request.spec, dict),
                 "'spec' must be a ScenarioSpec JSON object")
        try:
            request.resolve_spec()
        except Exception as exc:
            raise JobError(f"invalid inline spec: {exc}") from None
    _require(request.policy in POLICY_NAMES,
             f"unknown policy {request.policy!r}; "
             f"choose from {POLICY_NAMES}")
    _require(request.policy not in TABLE_POLICIES or request.dbn,
             f"policy {request.policy!r} needs a 'dbn' artifact path")
    _require(isinstance(request.episodes, int) and request.episodes >= 1,
             "'episodes' must be a positive integer")
    _require(isinstance(request.seed, int), "'seed' must be an integer")
    _require(request.max_steps is None
             or (isinstance(request.max_steps, int) and request.max_steps >= 1),
             "'max_steps' must be a positive integer")
    _require(isinstance(request.num_envs, int) and request.num_envs >= 1,
             "'num_envs' must be a positive integer")
    _require(isinstance(request.tags, list)
             and all(isinstance(t, str) for t in request.tags),
             "'tags' must be a list of strings")
    return request


def build_policy(request: JobRequest):
    """Construct the defender policy a job names.

    The CLI's catalogue (:func:`~repro.defenders.make_policy`), minus
    its fit-tables-on-the-fly fallback: ``expert`` and ``acso`` jobs
    must name a ``dbn`` artifact so every run row is reproducible.
    """
    from repro.dbn import DBNTables

    return make_policy(request.policy, request.seed,
                       lambda: DBNTables.load(request.dbn), request.qnet)
