"""Unit tests for the allocation result types."""

from __future__ import annotations

import pytest

from repro.model.allocation import (
    Allocation,
    SecurityAssignment,
    as_allocation,
)
from repro.errors import ValidationError
from repro.model.task import SecurityTask


def sec(name: str = "s", tdes: float = 100.0, tmax: float = 1000.0,
        wcet: float = 5.0) -> SecurityTask:
    return SecurityTask(
        name=name, wcet=wcet, period_des=tdes, period_max=tmax
    )


class TestSecurityAssignment:
    def test_tightness_and_utilization(self):
        assignment = SecurityAssignment(task=sec(), core=0, period=200.0)
        assert assignment.tightness == pytest.approx(0.5)
        assert assignment.utilization == pytest.approx(5.0 / 200.0)

    def test_rejects_period_below_desired(self):
        with pytest.raises(ValidationError):
            SecurityAssignment(task=sec(), core=0, period=50.0)

    def test_rejects_period_above_max(self):
        with pytest.raises(ValidationError):
            SecurityAssignment(task=sec(), core=0, period=1500.0)

    def test_allows_boundary_periods(self):
        SecurityAssignment(task=sec(), core=0, period=100.0)
        SecurityAssignment(task=sec(), core=0, period=1000.0)


class TestAllocation:
    def make(self) -> Allocation:
        assignments = (
            SecurityAssignment(task=sec("a", 100, 1000), core=0, period=100.0),
            SecurityAssignment(task=sec("b", 100, 1000), core=1, period=200.0),
        )
        return Allocation(
            scheme="test", schedulable=True, assignments=assignments
        )

    def test_lookup_by_name_and_task(self):
        allocation = self.make()
        assert allocation.assignment_for("a").core == 0
        assert allocation.assignment_for(sec("b", 100, 1000)).core == 1

    def test_lookup_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            self.make().assignment_for("ghost")

    def test_periods_and_cores_mappings(self):
        allocation = self.make()
        assert allocation.periods() == {"a": 100.0, "b": 200.0}
        assert allocation.cores() == {"a": 0, "b": 1}

    def test_tasks_on_core(self):
        allocation = self.make()
        assert [a.task.name for a in allocation.tasks_on(0)] == ["a"]
        assert allocation.tasks_on(2) == ()

    def test_cumulative_tightness_unweighted(self):
        assert self.make().cumulative_tightness() == pytest.approx(1.5)

    def test_cumulative_tightness_weighted(self):
        allocation = self.make()
        assert allocation.cumulative_tightness(
            {"a": 2.0, "b": 4.0}
        ) == pytest.approx(2.0 + 2.0)

    def test_cumulative_tightness_adds_left_to_right(self):
        """0.1 + 0.2 + 0.3 added in order is 0.6000000000000001 on every
        Python version; a compensated sum (the builtin ``sum`` of floats
        from 3.12 on) would return 0.6."""
        assignments = tuple(
            SecurityAssignment(
                task=sec(name, tdes=tdes, tmax=1.0, wcet=0.01),
                core=0,
                period=1.0,
            )
            for name, tdes in (("a", 0.1), ("b", 0.2), ("c", 0.3))
        )
        allocation = Allocation(
            scheme="test", schedulable=True, assignments=assignments
        )
        assert allocation.cumulative_tightness() == 0.6000000000000001
        assert allocation.cumulative_tightness({}) == 0.6000000000000001

    def test_mean_tightness(self):
        assert self.make().mean_tightness() == pytest.approx(0.75)

    def test_security_utilization(self):
        assert self.make().security_utilization() == pytest.approx(
            0.05 + 0.025
        )

    def test_unschedulable_metrics_are_zero(self):
        allocation = Allocation(
            scheme="test", schedulable=False, failed_task="a"
        )
        assert allocation.cumulative_tightness() == 0.0
        assert allocation.mean_tightness() == 0.0

    def test_schedulable_with_failed_task_rejected(self):
        with pytest.raises(ValidationError):
            Allocation(scheme="t", schedulable=True, failed_task="a")

    def test_unschedulable_with_assignments_rejected(self):
        assignment = SecurityAssignment(task=sec(), core=0, period=100.0)
        with pytest.raises(ValidationError):
            Allocation(
                scheme="t", schedulable=False, assignments=(assignment,)
            )


class TestAsAllocation:
    def test_builds_in_priority_order(self, two_core_system):
        allocation = as_allocation(
            "x",
            two_core_system,
            {"sec_hi": 0, "sec_lo": 1},
            {"sec_hi": 100.0, "sec_lo": 150.0},
        )
        assert allocation.schedulable
        # sec_hi has smaller T_max → first.
        assert [a.task.name for a in allocation.assignments] == [
            "sec_hi",
            "sec_lo",
        ]

    def test_info_passthrough(self, two_core_system):
        allocation = as_allocation(
            "x",
            two_core_system,
            {"sec_hi": 0, "sec_lo": 1},
            {"sec_hi": 100.0, "sec_lo": 150.0},
            info={"k": 1},
        )
        assert allocation.info["k"] == 1
