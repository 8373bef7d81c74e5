"""The full OPE estimator suite over one episode source.

:func:`run_ope_suite` is the offline half of checkpoint promotion: it
streams a logged-episode source (an in-memory list or an on-disk
:class:`~repro.validation.datasets.TraceDataset`) through every
estimator in this package — OIS / WIS / PDIS importance sampling, a
fitted-Q-evaluation fit, its direct-method read-out, and the
doubly-robust combination — and wraps each point estimate in a
percentile-bootstrap confidence interval. The resulting
:class:`OPESuiteReport` is plain data (``to_dict`` / ``to_json``), fit
for the run store, CI artifacts, and the serve layer's promotion rule,
which compares nothing but these CI lower bounds.

The estimators share one :class:`~repro.validation.fqe.PreparedLog`:
each chunk's episodes are decoded and joined into one transition
batch, and the target policy scores every logged and final state of
the chunk in one ``action_probs_batch`` call. The IS scalars, every
FQE pass and DR read that chunk instead of scoring the target again
per episode and per pass. A log of at most ``chunk_episodes`` episodes
(FQE's chunk size) is decoded, joined and scored once per suite; a
longer one keeps one chunk in memory and is prepared again on each
pass, scoring only the rows that pass reads. Memory stays one chunk:
a kept chunk adds ``rows x A`` floats of target distributions and as
many of fitted Q, each under half the chunk's feature bytes on the
paper network.

Every number is produced by the *same* per-episode reductions the
standalone estimators use (:func:`~repro.validation.ope.episode_ope_stats`,
:func:`~repro.validation.fqe.episode_dr_value`) on rows sliced from the
chunk's blocks. Q-network and target rows are bitwise independent of
the batch they are scored in, so a suite run over on-disk shards is
bit-identical to calling the individual estimators on the equivalent
in-memory episodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.validation.confidence import bootstrap_ci, bootstrap_ratio_ci
from repro.validation.fqe import (
    CHUNK_EPISODES,
    PreparedLog,
    episode_dr_value,
    fitted_q_evaluation,
)
from repro.validation.logging import LoggedEpisode
from repro.validation.ope import (
    _mean_stderr,
    _stats_arrays,
    effective_sample_size,
    episode_ope_stats,
)

__all__ = ["SuiteEstimate", "OPESuiteReport", "run_ope_suite"]

#: estimator keys a full report carries, in presentation order
SUITE_METHODS = ("DM", "FQE", "DR", "OIS", "WIS", "PDIS")


@dataclass(frozen=True)
class SuiteEstimate:
    """One estimator's value with its bootstrap interval."""

    method: str
    estimate: float
    lower: float
    upper: float
    stderr: float
    #: effective sample size of the trajectory weights; NaN for the
    #: model-based estimators, which use no importance weights
    ess: float
    episodes: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "stderr": self.stderr,
            "ess": None if np.isnan(self.ess) else self.ess,
            "episodes": self.episodes,
        }

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.method}: {self.estimate:.3f} "
                f"[{self.lower:.3f}, {self.upper:.3f}]")


@dataclass
class OPESuiteReport:
    """All estimates for one (log, target policy) pair."""

    estimates: dict[str, SuiteEstimate]
    episodes: int
    transitions: int
    alpha: float
    clip: float | None
    #: FQE fit diagnostics (per-iteration mean regression loss)
    fqe_losses: list[float] = field(default_factory=list)
    fqe_reward_scale: float = 1.0

    def __getitem__(self, method: str) -> SuiteEstimate:
        return self.estimates[method]

    def to_dict(self) -> dict:
        return {
            "episodes": self.episodes,
            "transitions": self.transitions,
            "alpha": self.alpha,
            "clip": self.clip,
            "fqe_losses": self.fqe_losses,
            "fqe_reward_scale": self.fqe_reward_scale,
            "estimates": {
                name: estimate.to_dict()
                for name, estimate in self.estimates.items()
            },
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_ope_suite(
    episodes: Iterable[LoggedEpisode],
    target_policy,
    eval_qnet,
    clip: float | None = None,
    alpha: float = 0.05,
    n_boot: int = 2000,
    bootstrap_seed: int = 0,
    fqe_options: dict | None = None,
) -> OPESuiteReport:
    """Every estimator + bootstrap CIs over one logged-episode source.

    ``episodes`` must be re-iterable (a list or a
    :class:`~repro.validation.datasets.TraceDataset`): the suite
    streams it in prepared chunks for the IS scalars, the FQE passes and
    DR with the fitted network — a log of one chunk is prepared once,
    and transitions are never materialized whole. ``eval_qnet`` is a *fresh* evaluation network already bound
    to the logging topology; it is trained in place by the FQE fit.
    ``fqe_options`` forwards keyword arguments to
    :func:`~repro.validation.fqe.fitted_q_evaluation` (iterations,
    chunk_episodes, seed, ...).

    DM is the fitted model's direct-method read-out — the
    policy-weighted Q at logged start states — and FQE reports the same
    fit with the same interval; they are listed separately so reports
    keep the conventional estimator names. Model-based entries carry
    ``ess = NaN`` (no importance weights involved).
    """
    prepared = PreparedLog(episodes, target_policy,
                           (fqe_options or {}).get("chunk_episodes",
                                                   CHUNK_EPISODES))
    weights, returns, pdis_values = _stats_arrays(
        episode_ope_stats(episode, target_policy, clip, label=index,
                          probs=probs)
        for index, episode, probs, _ in prepared.scored_episodes())
    n = len(weights)
    transitions = getattr(episodes, "num_transitions", None)
    if transitions is None:
        transitions = sum(len(episode) for episode in episodes)
    ess = effective_sample_size(weights)

    estimates: dict[str, SuiteEstimate] = {}

    ois_values = weights * returns
    ois_estimate, ois_stderr = _mean_stderr(ois_values)
    _, ois_lower, ois_upper = bootstrap_ci(ois_values, alpha, n_boot,
                                           bootstrap_seed)
    estimates["OIS"] = SuiteEstimate("OIS", ois_estimate, ois_lower,
                                     ois_upper, ois_stderr, ess, n)

    wis_estimate, wis_lower, wis_upper = bootstrap_ratio_ci(
        weights, returns, alpha, n_boot, bootstrap_seed
    )
    total = weights.sum()
    if total == 0.0:
        wis_residuals = np.zeros_like(returns)
    else:
        wis_residuals = (weights / total) * (returns - wis_estimate) * n
    _, wis_stderr = _mean_stderr(wis_residuals)
    estimates["WIS"] = SuiteEstimate("WIS", wis_estimate, wis_lower,
                                     wis_upper, wis_stderr, ess, n)

    pdis_estimate, pdis_stderr = _mean_stderr(pdis_values)
    _, pdis_lower, pdis_upper = bootstrap_ci(pdis_values, alpha, n_boot,
                                             bootstrap_seed)
    estimates["PDIS"] = SuiteEstimate("PDIS", pdis_estimate, pdis_lower,
                                      pdis_upper, pdis_stderr, ess, n)

    fit = fitted_q_evaluation(prepared, target_policy, eval_qnet,
                              **(fqe_options or {}))
    _, dm_lower, dm_upper = bootstrap_ci(fit.start_values, alpha, n_boot,
                                         bootstrap_seed)
    _, dm_stderr = _mean_stderr(fit.start_values)
    for name in ("DM", "FQE"):
        estimates[name] = SuiteEstimate(name, fit.value, dm_lower, dm_upper,
                                        dm_stderr, float("nan"), n)

    dr_values = np.array([
        episode_dr_value(episode, target_policy, fit.qnet, clip,
                         fit.reward_scale, label=index, probs=probs, q=q)[0]
        for index, episode, probs, q in prepared.scored_episodes(fit.qnet)
    ])
    dr_estimate, dr_stderr = _mean_stderr(dr_values)
    _, dr_lower, dr_upper = bootstrap_ci(dr_values, alpha, n_boot,
                                         bootstrap_seed)
    estimates["DR"] = SuiteEstimate("DR", dr_estimate, dr_lower, dr_upper,
                                    dr_stderr, ess, n)

    ordered = {name: estimates[name] for name in SUITE_METHODS}
    return OPESuiteReport(
        estimates=ordered, episodes=n, transitions=int(transitions),
        alpha=alpha, clip=clip, fqe_losses=fit.losses,
        fqe_reward_scale=fit.reward_scale,
    )
