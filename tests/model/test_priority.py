"""Unit tests for the priority-assignment policies."""

from __future__ import annotations

from repro.model.priority import (
    rate_monotonic_order,
    security_priority_order,
)
from repro.model.task import RealTimeTask, SecurityTask


def rt(name: str, wcet: float, period: float) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period)


def sec(name: str, tmax: float, tdes: float | None = None) -> SecurityTask:
    tdes = tdes if tdes is not None else tmax / 10.0
    return SecurityTask(
        name=name, wcet=1.0, period_des=tdes, period_max=tmax
    )


class TestRateMonotonicOrder:
    def test_shorter_period_first(self):
        tasks = [rt("slow", 1, 100), rt("fast", 1, 10)]
        assert [t.name for t in rate_monotonic_order(tasks)] == [
            "fast",
            "slow",
        ]

    def test_tie_broken_by_wcet_then_name(self):
        tasks = [rt("a", 1, 10), rt("b", 2, 10), rt("c", 2, 10)]
        ordered = [t.name for t in rate_monotonic_order(tasks)]
        assert ordered == ["b", "c", "a"]

    def test_deterministic_regardless_of_input_order(self):
        tasks = [rt("a", 1, 30), rt("b", 1, 20), rt("c", 1, 10)]
        assert rate_monotonic_order(tasks) == rate_monotonic_order(
            reversed(tasks)
        )


class TestSecurityPriorityOrder:
    def test_smaller_tmax_means_higher_priority(self):
        tasks = [sec("late", 1000.0), sec("early", 100.0)]
        assert [t.name for t in security_priority_order(tasks)] == [
            "early",
            "late",
        ]

    def test_tie_on_tmax_broken_by_tdes(self):
        a = SecurityTask(name="a", wcet=1, period_des=50, period_max=100)
        b = SecurityTask(name="b", wcet=1, period_des=20, period_max=100)
        assert [t.name for t in security_priority_order([a, b])] == [
            "b",
            "a",
        ]

    def test_total_deterministic_order(self):
        a = SecurityTask(name="a", wcet=1, period_des=50, period_max=100)
        b = SecurityTask(name="b", wcet=1, period_des=50, period_max=100)
        assert [t.name for t in security_priority_order([b, a])] == [
            "a",
            "b",
        ]
