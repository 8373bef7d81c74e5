"""Data-efficient policy validation via off-policy evaluation (OPE).

The paper's conclusion asks for "data-efficient methods to validate
learned policies performance" before deployment (Section 7): a new
ACSO policy must be assessed without handing it control of a live
network. This package implements the standard OPE toolchain on logged
INASIM episodes:

* :mod:`repro.validation.logging` -- behaviour policies with recorded
  action probabilities, and logged-episode recording into
  :class:`LoggedEpisode` column batches, the one shape every estimator
  reads;
* :mod:`repro.validation.ope` -- ordinary, weighted, and per-decision
  importance sampling estimators with effective-sample-size
  diagnostics;
* :mod:`repro.validation.fqe` -- fitted Q evaluation (model-based
  value regression) and the doubly-robust combination;
* :mod:`repro.validation.confidence` -- bootstrap confidence intervals
  and an empirical-Bernstein high-confidence lower bound (the
  "certify before deployment" number);
* :mod:`repro.validation.tracestore` /
  :mod:`repro.validation.datasets` -- the columnar on-disk episode
  log: streaming recorder over vectorized rollouts, chunked reader,
  crash-tolerant manifest;
* :mod:`repro.validation.suite` -- :func:`run_ope_suite`, every
  estimator with bootstrap CIs in one report (the promotion gate's
  input).
"""

from repro.validation.logging import (
    LoggedEpisode,
    StochasticQPolicy,
    UniformRandomPolicy,
    collect_logged_episodes,
)
from repro.validation.ope import (
    BehaviorSupportError,
    EpisodeOPEStats,
    OPEResult,
    effective_sample_size,
    episode_ope_stats,
    ordinary_importance_sampling,
    per_decision_importance_sampling,
    weighted_importance_sampling,
)
from repro.validation.fqe import FQEResult, doubly_robust, fitted_q_evaluation
from repro.validation.confidence import (
    bootstrap_ci,
    bootstrap_ratio_ci,
    empirical_bernstein_lower_bound,
)
from repro.validation.tracestore import (
    TraceDims,
    TraceError,
    TraceIntegrityError,
    TraceSchemaError,
    TraceWriter,
    record_episodes_vec,
    trace_record_dtype,
    write_episodes,
)
from repro.validation.datasets import TraceDataset, iter_episode_chunks
from repro.validation.suite import OPESuiteReport, SuiteEstimate, run_ope_suite

__all__ = [
    "LoggedEpisode",
    "StochasticQPolicy",
    "UniformRandomPolicy",
    "collect_logged_episodes",
    "BehaviorSupportError",
    "EpisodeOPEStats",
    "OPEResult",
    "effective_sample_size",
    "episode_ope_stats",
    "ordinary_importance_sampling",
    "weighted_importance_sampling",
    "per_decision_importance_sampling",
    "FQEResult",
    "fitted_q_evaluation",
    "doubly_robust",
    "bootstrap_ci",
    "bootstrap_ratio_ci",
    "empirical_bernstein_lower_bound",
    "TraceDims",
    "TraceError",
    "TraceIntegrityError",
    "TraceSchemaError",
    "TraceWriter",
    "trace_record_dtype",
    "write_episodes",
    "record_episodes_vec",
    "TraceDataset",
    "iter_episode_chunks",
    "OPESuiteReport",
    "SuiteEstimate",
    "run_ope_suite",
]
