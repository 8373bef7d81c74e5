"""Importance-sampling estimators of a target policy's value.

Given episodes logged under a behaviour policy b and a target policy
pi, each step has an importance ratio rho_t = pi(a_t|s_t) / b(a_t|s_t).
Three standard estimators (Precup 2000; Thomas 2015):

* **Ordinary IS**: mean over episodes of w_T * G, where w_T is the
  full-trajectory ratio product and G the discounted return. Unbiased,
  unbounded variance.
* **Weighted IS**: the w_T-weighted mean of returns. Biased, consistent,
  much lower variance.
* **Per-decision IS**: credit each reward only with the ratios up to
  its own time step: sum_t gamma^t w_t r_t. Unbiased with lower
  variance than ordinary IS.

The effective sample size ESS = (sum w)^2 / sum w^2 diagnoses weight
degeneracy -- the central failure mode over INASIM's 5,000-step
horizons, and the reason the doubly-robust estimator of
:mod:`repro.validation.fqe` exists.

Every estimator takes any *iterable* of logged episodes — an in-memory
list or a :class:`~repro.validation.datasets.TraceDataset` streaming
shards off disk — and makes exactly one pass, keeping only three
scalars per episode (:class:`EpisodeOPEStats`). Standalone, target
probabilities come from one ``target_policy.action_probs_batch(features,
masks)`` call over an episode's columns.
:func:`~repro.validation.suite.run_ope_suite` runs the same
per-episode reduction, :func:`episode_ope_stats`, on each episode's
rows of a prepared chunk's probability block
(:class:`~repro.validation.fqe.PreparedChunk`), scored once for every
estimator; target rows are bitwise independent of the batch they are
scored in, so the suite's numbers equal the standalone estimators bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.validation.logging import LoggedEpisode

__all__ = [
    "OPEResult",
    "EpisodeOPEStats",
    "BehaviorSupportError",
    "step_ratios",
    "episode_ope_stats",
    "collect_ope_stats",
    "wis_point_estimate",
    "effective_sample_size",
    "ordinary_importance_sampling",
    "weighted_importance_sampling",
    "per_decision_importance_sampling",
]


@dataclass(frozen=True)
class OPEResult:
    """A value estimate with sampling diagnostics."""

    estimate: float
    stderr: float
    #: effective sample size of the trajectory weights
    ess: float
    episodes: int
    method: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.method}: {self.estimate:.2f} +/- {self.stderr:.2f} "
            f"(ESS {self.ess:.1f} / {self.episodes})"
        )


class BehaviorSupportError(ValueError):
    """A logged step breaks the importance-sampling support condition.

    Raised — naming the offending episode and step — instead of letting
    a zero or denormal behaviour probability turn the trajectory weight
    into silent NaN/inf that poisons every downstream mean.
    """


def step_ratios(episode: LoggedEpisode, target_policy,
                clip: float | None = None,
                label: int | str | None = None) -> np.ndarray:
    """Per-step importance ratios pi(a_t|s_t) / b(a_t|s_t).

    ``target_policy`` must expose ``action_probs_batch(features,
    masks)`` over the episode's columns; ``clip`` truncates each ratio
    from above (weight clipping trades a small bias for bounded
    variance). A zero behaviour probability or a non-finite raw ratio
    raises :class:`BehaviorSupportError` naming the episode (``label``,
    or the episode's seed) and step — clipping happens *after* this
    check, so ``clip`` can never paper over a broken log by truncating
    an infinite ratio.
    """
    probs = target_policy.action_probs_batch(episode.features, episode.masks)
    return _ratios_from_probs(episode, probs, clip, label)


def _ratios_from_probs(episode: LoggedEpisode, probs: np.ndarray,
                      clip: float | None = None,
                      label: int | str | None = None) -> np.ndarray:
    """:func:`step_ratios` from the target's ``(T, A)`` distributions."""
    if label is None and episode.seed is not None:
        label = f"seed={episode.seed}"
    where = "episode" if label is None else f"episode {label}"
    behavior = episode.behavior_probs
    target = np.asarray(probs)[np.arange(len(episode)), episode.actions]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = target / behavior
    bad = (behavior <= 0) | ~np.isfinite(ratios)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        if behavior[t] <= 0:
            raise BehaviorSupportError(
                f"{where} step {t}: behaviour probability is zero; the "
                "behaviour policy must have full support over logged "
                "actions"
            )
        raise BehaviorSupportError(
            f"{where} step {t}: importance ratio is not finite "
            f"(target {target[t]!r} / behaviour {behavior[t]!r})"
        )
    if clip is not None:
        np.clip(ratios, 0.0, clip, out=ratios)
    return ratios


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish's ESS: (sum w)^2 / sum w^2 (0 when all weights vanish)."""
    weights = np.asarray(weights, dtype=float)
    finite = np.isfinite(weights)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"trajectory weight {bad} is {weights[bad]!r}; non-finite "
            "weights make the effective sample size meaningless — fix "
            "the log (see BehaviorSupportError) or clip the ratios"
        )
    denom = float((weights ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(weights.sum() ** 2 / denom)


@dataclass(frozen=True)
class EpisodeOPEStats:
    """The three per-episode scalars every IS estimator reduces over."""

    #: full-trajectory importance weight (product of step ratios)
    weight: float
    #: behaviour-policy discounted return
    ret: float
    #: per-decision IS value sum_t gamma^t w_t r_t
    pdis: float


def episode_ope_stats(episode: LoggedEpisode, target_policy,
                      clip: float | None = None,
                      label: int | str | None = None,
                      probs: np.ndarray | None = None) -> EpisodeOPEStats:
    """One streaming pass over an episode's steps → its IS scalars.

    ``probs`` are the target's ``(T, A)`` distributions at the
    episode's states when the caller holds them already (a prepared
    chunk does); otherwise ``target_policy`` scores them here.
    """
    if probs is None:
        ratios = step_ratios(episode, target_policy, clip, label=label)
    else:
        ratios = _ratios_from_probs(episode, probs, clip, label)
    cumulative = np.cumprod(ratios)
    discounts = episode.gamma ** np.arange(len(episode))
    pdis = float(np.sum(discounts * cumulative * episode.rewards))
    weight = float(cumulative[-1]) if len(cumulative) else 1.0
    return EpisodeOPEStats(weight=weight, ret=episode.discounted_return(),
                           pdis=pdis)


def collect_ope_stats(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> Iterator[EpisodeOPEStats]:
    """Stream :class:`EpisodeOPEStats` for an episode source.

    Works unchanged over a list or a
    :class:`~repro.validation.datasets.TraceDataset`; features are
    consumed one episode at a time and only the scalars survive.
    """
    for index, episode in enumerate(episodes):
        yield episode_ope_stats(episode, target_policy, clip, label=index)


def _stats_arrays(stats: Iterable[EpisodeOPEStats]):
    """Weights, returns and PDIS values of a stream of episode stats."""
    stats = list(stats)
    if not stats:
        raise ValueError("need at least one logged episode")
    return (
        np.array([s.weight for s in stats]),
        np.array([s.ret for s in stats]),
        np.array([s.pdis for s in stats]),
    )


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size <= 1:
        return float(values.mean()) if values.size else 0.0, 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def wis_point_estimate(weights: np.ndarray, returns: np.ndarray) -> float:
    """The self-normalized estimate sum_i (w_i / sum w) G_i."""
    total = weights.sum()
    if total == 0.0:
        return 0.0
    return float((weights / total) @ returns)


def ordinary_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Unbiased full-trajectory IS estimate of the target value."""
    weights, returns, _ = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip))
    estimate, stderr = _mean_stderr(weights * returns)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "OIS")


def weighted_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Self-normalized IS: biased, consistent, low variance."""
    weights, returns, _ = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip))
    total = weights.sum()
    if total == 0.0:
        estimate = 0.0
        residuals = np.zeros_like(returns)
    else:
        normalized = weights / total
        estimate = float(normalized @ returns)
        residuals = normalized * (returns - estimate) * len(weights)
    _, stderr = _mean_stderr(residuals)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "WIS")


def per_decision_importance_sampling(
    episodes: Iterable[LoggedEpisode], target_policy,
    clip: float | None = None,
) -> OPEResult:
    """Per-decision IS: each reward weighted by ratios up to its step."""
    weights, _, values = _stats_arrays(
        collect_ope_stats(episodes, target_policy, clip))
    estimate, stderr = _mean_stderr(values)
    return OPEResult(estimate, stderr, effective_sample_size(weights),
                     len(weights), "PDIS")
