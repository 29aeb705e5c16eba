"""Unit tests for the task models."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.model.task import (
    RealTimeTask,
    SecurityTask,
    TaskSet,
    total_utilization,
)


class TestRealTimeTask:
    def test_basic_construction(self):
        task = RealTimeTask(name="t", wcet=2.0, period=10.0)
        assert task.wcet == 2.0
        assert task.period == 10.0

    def test_implicit_deadline_defaults_to_period(self):
        task = RealTimeTask(name="t", wcet=2.0, period=10.0)
        assert task.deadline == 10.0

    def test_explicit_constrained_deadline(self):
        task = RealTimeTask(name="t", wcet=2.0, period=10.0, deadline=5.0)
        assert task.deadline == 5.0

    def test_utilization(self):
        task = RealTimeTask(name="t", wcet=2.5, period=10.0)
        assert task.utilization == pytest.approx(0.25)

    def test_rejects_nonpositive_wcet(self):
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=0.0, period=10.0)
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=-1.0, period=10.0)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=1.0, period=0.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=math.nan, period=10.0)
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=1.0, period=math.inf)

    def test_rejects_wcet_exceeding_deadline(self):
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=6.0, period=10.0, deadline=5.0)

    def test_rejects_deadline_beyond_period(self):
        with pytest.raises(ValidationError):
            RealTimeTask(name="t", wcet=1.0, period=10.0, deadline=12.0)

    def test_priority_excluded_from_equality(self):
        a = RealTimeTask(name="t", wcet=1.0, period=10.0)
        assert a == RealTimeTask(name="t", wcet=1.0, period=10.0, priority=5)

    def test_full_utilization_task_allowed(self):
        task = RealTimeTask(name="t", wcet=10.0, period=10.0)
        assert task.utilization == 1.0


class TestSecurityTask:
    def test_basic_construction(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=1000.0
        )
        assert task.period_des == 100.0
        assert task.period_max == 1000.0

    def test_desired_utilization(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=1000.0
        )
        assert task.utilization_des == pytest.approx(0.05)

    def test_rejects_des_above_max(self):
        with pytest.raises(ValidationError):
            SecurityTask(
                name="s", wcet=5.0, period_des=500.0, period_max=400.0
            )

    def test_rejects_wcet_above_desired_period(self):
        with pytest.raises(ValidationError):
            SecurityTask(
                name="s", wcet=101.0, period_des=100.0, period_max=400.0
            )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            SecurityTask(
                name="s",
                wcet=5.0,
                period_des=100.0,
                period_max=400.0,
                weight=0.0,
            )

    def test_equal_des_and_max_period(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=100.0
        )
        assert task.period_des == task.period_max

    def test_surface_not_part_of_equality(self):
        a = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=400.0,
            surface="fs",
        )
        b = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=400.0,
            surface="net",
        )
        assert a == b


class TestTaskSet:
    def test_len_and_iteration(self, rt_pair):
        assert len(rt_pair) == 2
        assert [t.name for t in rt_pair] == ["rt_fast", "rt_slow"]

    def test_index_by_position_and_name(self, rt_pair):
        assert rt_pair[0].name == "rt_fast"
        assert rt_pair["rt_slow"].wcet == 10.0

    def test_contains_name_and_object(self, rt_pair):
        assert "rt_fast" in rt_pair
        assert rt_pair[0] in rt_pair
        assert "nope" not in rt_pair

    def test_rejects_duplicate_names(self):
        task = RealTimeTask(name="t", wcet=1.0, period=10.0)
        with pytest.raises(ValidationError):
            TaskSet([task, task])

    def test_names(self, rt_pair):
        assert rt_pair.names == ("rt_fast", "rt_slow")

    def test_utilization_mixes_task_kinds(self):
        tasks = TaskSet(
            [
                RealTimeTask(name="r", wcet=1.0, period=10.0),
                SecurityTask(
                    name="s", wcet=10.0, period_des=100.0, period_max=500.0
                ),
            ]
        )
        assert total_utilization(tasks) == pytest.approx(0.1 + 0.1)

    def test_equality_and_hash(self, rt_pair):
        clone = TaskSet(list(rt_pair))
        assert clone == rt_pair
        assert hash(clone) == hash(rt_pair)

    def test_empty_set(self):
        empty = TaskSet()
        assert len(empty) == 0
        assert total_utilization(empty) == 0.0


class TestTotalUtilization:
    def test_empty(self):
        assert total_utilization([]) == 0.0

    def test_security_counted_at_desired_rate(self):
        sec = SecurityTask(
            name="s", wcet=10.0, period_des=100.0, period_max=1000.0
        )
        assert total_utilization([sec]) == pytest.approx(0.1)
