"""Importance-sampling reductions of a target policy's value.

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

This module holds the per-episode reduction, :func:`episode_ope_stats`,
which keeps three scalars per episode (:class:`EpisodeOPEStats`), and
the helpers that reduce them. It never scores the target itself: the
target's ``(T, A)`` distributions come from a prepared chunk's
probability block (:class:`~repro.validation.fqe.PreparedChunk`), and
:func:`~repro.validation.suite.run_ope_suite` turns the scalars into
the OIS / WIS / PDIS estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.validation.logging import LoggedEpisode

__all__ = [
    "EpisodeOPEStats",
    "BehaviorSupportError",
    "step_ratios",
    "episode_ope_stats",
    "effective_sample_size",
]


class BehaviorSupportError(ValueError):
    """A logged step breaks the importance-sampling support condition.

    Raised — naming the offending episode and step — instead of letting
    a zero or denormal behaviour probability turn the trajectory weight
    into silent NaN/inf that poisons every downstream mean.
    """


def step_ratios(episode: LoggedEpisode, probs: np.ndarray,
                clip: float | None = None,
                label: int | str | None = None) -> np.ndarray:
    """Per-step importance ratios pi(a_t|s_t) / b(a_t|s_t).

    ``probs`` are the target's ``(T, A)`` distributions at the
    episode's logged states; ``clip`` truncates each ratio from above
    (weight clipping trades a small bias for bounded variance). A zero
    behaviour probability or a non-finite raw ratio raises
    :class:`BehaviorSupportError` naming the episode (``label``, or the
    episode's seed) and step — clipping happens *after* this check, so
    ``clip`` can never paper over a broken log by truncating an
    infinite ratio.
    """
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


def episode_ope_stats(episode: LoggedEpisode, probs: np.ndarray,
                      clip: float | None = None,
                      label: int | str | None = None) -> EpisodeOPEStats:
    """One episode's IS scalars from the target's ``(T, A)``
    distributions at its logged states."""
    ratios = step_ratios(episode, probs, clip, label)
    cumulative = np.cumprod(ratios)
    discounts = episode.gamma ** np.arange(len(episode))
    pdis = float(np.sum(discounts * cumulative * episode.rewards))
    weight = float(cumulative[-1]) if len(cumulative) else 1.0
    return EpisodeOPEStats(weight=weight, ret=episode.discounted_return(),
                           pdis=pdis)


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
