"""Property tests for the ablation importance-scoring math.

:mod:`repro.metrics.importance` is pure arithmetic, so its contracts
can be pinned exhaustively with hypothesis, independent of any engine
run:

* the baseline-identity swap (variant metrics == baseline metrics)
  scores zero importance on every metric, is never harmful, and gets
  the ``neutral`` verdict;
* :func:`~repro.metrics.importance.rank_scores` is invariant to the
  order the run set was generated or executed in (it is a total
  order);
* harmful flagging agrees with the sign of the metric delta — and
  importance is exactly its negation.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.metrics.importance import (
    VERDICT_HARMFUL,
    VERDICT_LOAD_BEARING,
    VERDICT_NEUTRAL,
    rank_scores,
    score_swap,
    swap_verdict,
)

METRICS = ("acceptance", "mean_tightness")

_values = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def _metric_map(draw_values):
    return dict(zip(METRICS, draw_values))


_metric_maps = st.lists(
    _values, min_size=len(METRICS), max_size=len(METRICS)
).map(_metric_map)

_components = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12
)


@st.composite
def _scores(draw):
    axis = draw(st.sampled_from(
        ("heuristic", "ordering", "admission", "allocator", "workload")
    ))
    component = draw(_components)
    baseline = draw(_metric_maps)
    variant = draw(_metric_maps)
    return score_swap(axis, component, baseline, variant, METRICS)


# -- baseline identity ------------------------------------------------------


@given(_metric_maps, _components)
def test_identity_swap_scores_zero(baseline, component):
    score = score_swap("heuristic", component, baseline, baseline, METRICS)
    for metric in METRICS:
        assert score.delta(metric) == 0.0
        assert score.importance(metric) == 0.0
    assert swap_verdict(score) == VERDICT_NEUTRAL


# -- ordering invariance ----------------------------------------------------


@given(st.lists(_scores(), min_size=0, max_size=12), st.randoms())
def test_ranking_invariant_to_runset_order(scores, rnd):
    shuffled = list(scores)
    rnd.shuffle(shuffled)
    assert rank_scores(shuffled) == rank_scores(scores)


@given(st.lists(_scores(), min_size=1, max_size=12))
def test_ranking_is_descending_importance(scores):
    ranked = rank_scores(scores)
    assert len(ranked) == len(scores)
    primary = METRICS[0]
    importances = [s.importance(primary) for s in ranked]
    assert importances == sorted(importances, reverse=True)


# -- delta and importance signs ---------------------------------------------


@given(_metric_maps, _metric_maps)
def test_harmful_agrees_with_delta_sign(baseline, variant):
    score = score_swap("admission", "x", baseline, variant, METRICS)
    for metric in METRICS:
        delta = variant[metric] - baseline[metric]
        assert score.delta(metric) == delta
        assert score.importance(metric) == -delta


@given(_metric_maps, _metric_maps)
def test_verdict_follows_first_differing_metric(baseline, variant):
    score = score_swap("workload", "x", baseline, variant, METRICS)
    verdict = swap_verdict(score)
    for metric in METRICS:
        delta = variant[metric] - baseline[metric]
        if delta > 0:
            assert verdict == VERDICT_HARMFUL
            break
        if delta < 0:
            assert verdict == VERDICT_LOAD_BEARING
            break
    else:
        assert verdict == VERDICT_NEUTRAL


# -- typed rejections -------------------------------------------------------


def test_score_swap_rejects_missing_metric():
    with pytest.raises(ValidationError, match="missing"):
        score_swap(
            "heuristic", "x", {"acceptance": 1.0}, {"acceptance": 1.0},
            METRICS,
        )


def test_score_swap_rejects_empty_metrics():
    with pytest.raises(ValidationError, match="at least one metric"):
        score_swap("heuristic", "x", {}, {}, ())


def test_delta_rejects_unscored_metric():
    score = score_swap(
        "heuristic", "x", {"acceptance": 1.0}, {"acceptance": 0.5},
        ("acceptance",),
    )
    with pytest.raises(ValidationError, match="no metric"):
        score.delta("mean_tightness")
