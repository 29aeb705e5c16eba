"""Unit tests for the improvement and tightness metrics."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.metrics.improvement import (
    acceptance_improvement,
    detection_speedup,
    tightness_gap,
)
from repro.metrics.tightness import (
    cumulative_tightness,
    tightness_per_task,
)
from repro.model.task import SecurityTask


class TestAcceptanceImprovement:
    def test_equal_ratios_zero(self):
        assert acceptance_improvement(0.5, 0.5) == 0.0

    def test_hydra_ahead(self):
        assert acceptance_improvement(1.0, 0.2) == pytest.approx(80.0)

    def test_single_dead_hydra_alive(self):
        assert acceptance_improvement(0.4, 0.0) == pytest.approx(100.0)

    def test_both_dead(self):
        assert acceptance_improvement(0.0, 0.0) == 0.0

    def test_bounded_by_100(self):
        assert acceptance_improvement(1.0, 0.0) <= 100.0

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValidationError):
            acceptance_improvement(1.5, 0.1)
        with pytest.raises(ValidationError):
            acceptance_improvement(0.5, -0.1)


class TestTightnessGap:
    def test_gap(self):
        assert tightness_gap(4.0, 3.0) == pytest.approx(25.0)

    def test_zero_gap(self):
        assert tightness_gap(4.0, 4.0) == 0.0

    def test_numerical_noise_clamped(self):
        assert tightness_gap(4.0, 4.0 + 1e-12) == 0.0

    def test_hydra_unschedulable_scores_100(self):
        assert tightness_gap(4.0, 0.0) == pytest.approx(100.0)

    def test_requires_positive_optimum(self):
        with pytest.raises(ValidationError):
            tightness_gap(0.0, 0.0)


class TestDetectionSpeedup:
    def test_faster_scheme_positive(self):
        assert detection_speedup([1.0, 1.0], [2.0, 2.0]) == pytest.approx(
            50.0
        )

    def test_equal_zero(self):
        assert detection_speedup([2.0], [2.0]) == 0.0

    def test_slower_scheme_negative(self):
        assert detection_speedup([3.0], [2.0]) < 0.0

    def test_infinite_observations_dropped(self):
        assert detection_speedup(
            [1.0, math.inf], [2.0, math.inf]
        ) == pytest.approx(50.0)

    def test_all_undetected_rejected(self):
        with pytest.raises(ValidationError):
            detection_speedup([math.inf], [1.0])


class TestTightnessHelpers:
    @pytest.fixture
    def tasks(self):
        return [
            SecurityTask(
                name="a", wcet=1.0, period_des=100.0, period_max=1000.0
            ),
            SecurityTask(
                name="b", wcet=1.0, period_des=200.0, period_max=2000.0
            ),
        ]

    def test_per_task(self, tasks):
        etas = tightness_per_task(tasks, {"a": 200.0, "b": 200.0})
        assert etas == {"a": pytest.approx(0.5), "b": pytest.approx(1.0)}

    def test_missing_period_rejected(self, tasks):
        with pytest.raises(ValidationError):
            tightness_per_task(tasks, {"a": 200.0})

    def test_cumulative_unweighted(self, tasks):
        total = cumulative_tightness(tasks, {"a": 200.0, "b": 200.0})
        assert total == pytest.approx(1.5)

    def test_cumulative_weighted(self, tasks):
        total = cumulative_tightness(
            tasks, {"a": 200.0, "b": 200.0}, weights={"a": 2.0}
        )
        assert total == pytest.approx(2.0)

    def test_out_of_range_period_rejected(self, tasks):
        with pytest.raises(ValidationError):
            cumulative_tightness(tasks, {"a": 50.0, "b": 200.0})
