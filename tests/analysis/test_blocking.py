"""Unit tests for blocking-aware schedulability (§V non-preemptive
security)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.blocking import (
    max_tolerable_blocking,
    rt_schedulable_with_blocking,
)
from repro.errors import ValidationError
from repro.model.task import RealTimeTask


def rt(name: str, wcet: float, period: float) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period)


class TestRtSchedulableWithBlocking:
    def test_zero_blocking_equals_plain_rta(self):
        tasks = [rt("a", 1, 4), rt("b", 2, 6), rt("c", 3, 12)]
        assert rt_schedulable_with_blocking(tasks, 0.0)

    def test_small_blocking_tolerated(self):
        tasks = [rt("a", 1, 4), rt("b", 2, 6)]
        # a: R = 1 + B ≤ 4 → B ≤ 3 at its level; b: R = 2 + B + ceil(R/4)
        # → with B=1: R = 3+ceil/… = 3+1=4 … ≤ 6 OK.
        assert rt_schedulable_with_blocking(tasks, 1.0)

    def test_large_blocking_rejected(self):
        tasks = [rt("a", 1, 4), rt("b", 2, 6)]
        assert not rt_schedulable_with_blocking(tasks, 3.5)

    def test_monotone_in_blocking(self):
        tasks = [rt("a", 2, 7), rt("b", 3, 20)]
        verdicts = [
            rt_schedulable_with_blocking(tasks, b)
            for b in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        # Once it flips to False it stays False.
        assert verdicts == sorted(verdicts, reverse=True)

    def test_negative_blocking_rejected(self):
        with pytest.raises(ValidationError):
            rt_schedulable_with_blocking([rt("a", 1, 4)], -0.5)

    def test_empty_core_always_fine(self):
        assert rt_schedulable_with_blocking([], 1e9)


class TestMaxTolerableBlocking:
    def test_empty_core_infinite(self):
        assert max_tolerable_blocking([]) == math.inf

    def test_single_task_budget_is_slack(self):
        # One task C=2, T=D=10: R = 2 + B ≤ 10 → B* = 8.
        budget = max_tolerable_blocking([rt("a", 2, 10)])
        assert budget == pytest.approx(8.0, abs=1e-4)

    def test_saturated_core_zero_budget(self):
        # Exactly-full harmonic set: any blocking breaks it.
        budget = max_tolerable_blocking([rt("a", 2, 4), rt("b", 4, 8)])
        assert budget == pytest.approx(0.0, abs=1e-4)

    def test_budget_is_achievable_and_tight(self):
        tasks = [rt("a", 1, 5), rt("b", 2, 12), rt("c", 1, 30)]
        budget = max_tolerable_blocking(tasks)
        assert rt_schedulable_with_blocking(tasks, budget - 1e-4)
        assert not rt_schedulable_with_blocking(tasks, budget + 1e-3)

    def test_bounded_by_smallest_deadline(self):
        tasks = [rt("a", 0.1, 5.0), rt("b", 0.1, 100.0)]
        assert max_tolerable_blocking(tasks) <= 5.0 + 1e-9
