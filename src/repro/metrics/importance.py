"""Component-importance scoring for ablation studies.

An ablation study runs a *baseline* configuration plus one *variant*
per registered component, where the variant swaps exactly one baseline
component for the alternative under test.  The importance of a
baseline component — how much the metric degrades when it is replaced
by a given alternative — is then plain arithmetic over the paired
metric values, and this module keeps that arithmetic pure and
stateless so it can be property-tested in isolation (no engine, no
RNG):

* :func:`score_swap` — one ``(axis, component)`` swap against the
  baseline → an :class:`ImportanceScore` holding the per-metric deltas.
* :func:`rank_scores` — a deterministic total order over scores (most
  important first); invariant under run-set ordering by construction.
* :func:`swap_verdict` — the human-facing classification of one swap:
  ``load-bearing`` (replacing the baseline component hurts),
  ``harmful`` (replacing it *helps* — the baseline choice is flagged),
  or ``neutral``.

Sign conventions, fixed here once for every consumer:

* ``delta(metric)   = variant − baseline`` (what the swap did to the
  metric);
* ``importance(metric) = baseline − variant = −delta`` (how much the
  incumbent was worth; positive means the baseline component carries
  weight);
* a swap is *harmful on a metric* iff ``delta > 0`` — removing the
  incumbent improved the metric, exactly the "harmful component" flag
  of the ablation literature.

Metrics are "higher is better" throughout (acceptance ratio, mean
tightness — see :class:`repro.experiments.scenario.CellTally`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "ImportanceScore",
    "score_swap",
    "rank_scores",
    "swap_verdict",
    "VERDICT_LOAD_BEARING",
    "VERDICT_NEUTRAL",
    "VERDICT_HARMFUL",
]

VERDICT_LOAD_BEARING = "load-bearing"
VERDICT_NEUTRAL = "neutral"
VERDICT_HARMFUL = "harmful"


@dataclass(frozen=True)
class ImportanceScore:
    """Per-metric deltas of swapping one baseline component.

    ``axis`` names the design axis (``"heuristic"``, ``"allocator"``,
    …), ``component`` the alternative that was swapped *in*, and
    ``deltas`` holds ``(metric, variant − baseline)`` pairs in the
    study's metric-priority order (first metric ranks first).
    """

    axis: str
    component: str
    deltas: tuple[tuple[str, float], ...]

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(metric for metric, _ in self.deltas)

    def delta(self, metric: str) -> float:
        """``variant − baseline`` on ``metric``."""
        for name, value in self.deltas:
            if name == metric:
                return value
        raise ValidationError(
            f"score for {self.axis}={self.component} has no metric "
            f"{metric!r}; scored metrics: {list(self.metrics)}"
        )

    def importance(self, metric: str) -> float:
        """``baseline − variant``: positive means the baseline
        component is load-bearing on ``metric``."""
        return -self.delta(metric)


def score_swap(
    axis: str,
    component: str,
    baseline: Mapping[str, float],
    variant: Mapping[str, float],
    metrics: Sequence[str],
) -> ImportanceScore:
    """Score one swap: ``metrics`` are looked up in both mappings and
    differenced (``variant − baseline``).

    ``metrics`` fixes the priority order used by :func:`rank_scores`
    and :func:`swap_verdict`; every named metric must be present in
    both mappings (a missing metric is a programming error surfaced as
    a typed :class:`~repro.errors.ValidationError`, not a silent 0).
    """
    if not metrics:
        raise ValidationError("score_swap needs at least one metric")
    deltas = []
    for metric in metrics:
        if metric not in baseline or metric not in variant:
            raise ValidationError(
                f"cannot score {axis}={component}: metric {metric!r} "
                f"missing (baseline has {sorted(baseline)}, variant "
                f"has {sorted(variant)})"
            )
        deltas.append(
            (metric, float(variant[metric]) - float(baseline[metric]))
        )
    return ImportanceScore(
        axis=axis, component=component, deltas=tuple(deltas)
    )


def swap_verdict(score: ImportanceScore) -> str:
    """Classify one swap lexicographically over its metric order.

    The first metric with a non-zero delta decides: delta > 0 →
    ``"harmful"`` (the baseline component's removal improves the
    study's highest-priority differing metric), delta < 0 →
    ``"load-bearing"``.  All-zero deltas → ``"neutral"`` (the
    baseline-identity case).
    """
    for _, delta in score.deltas:
        if delta > 0:
            return VERDICT_HARMFUL
        if delta < 0:
            return VERDICT_LOAD_BEARING
    return VERDICT_NEUTRAL


def rank_scores(
    scores: Iterable[ImportanceScore],
) -> tuple[ImportanceScore, ...]:
    """Most-important-first total order over ``scores``.

    Sorts by importance on each metric in priority order (descending),
    breaking exact ties by ``(axis, component)`` — a *total* order, so
    the ranking is invariant to the order the run set was generated or
    executed in (property-tested in
    ``tests/metrics/test_importance_properties.py``).
    """
    ranked = sorted(
        scores,
        key=lambda s: (
            tuple(-s.importance(m) for m in s.metrics),
            s.axis,
            s.component,
        ),
    )
    return tuple(ranked)
