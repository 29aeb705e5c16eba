"""Unit tests for the UAV task set and the Table I security suite."""

from __future__ import annotations

import pytest

from repro.analysis.rta import rta_schedulable
from repro.errors import ValidationError
from repro.taskgen.security_apps import (
    TABLE1_SPECS,
    TRIPWIRE_PRECEDENCE,
    table1_security_tasks,
)
from repro.taskgen.uav import UAV_TASK_TABLE, uav_rt_tasks


class TestUavTasks:
    def test_six_tasks_with_expected_roles(self):
        tasks = uav_rt_tasks()
        assert len(tasks) == 6
        assert set(tasks.names) == set(UAV_TASK_TABLE)

    def test_fits_one_core(self):
        # Required so the SingleCore baseline works on a 2-core
        # platform, as in the paper's Fig. 1.
        tasks = list(uav_rt_tasks())
        assert rta_schedulable(tasks)

    def test_moderate_utilization(self):
        total = sum(t.utilization for t in uav_rt_tasks())
        assert 0.4 < total < 0.8

    def test_scale_multiplies_wcets(self):
        base = uav_rt_tasks()
        scaled = uav_rt_tasks(scale=2.0)
        for name in base.names:
            assert scaled[name].wcet == pytest.approx(2.0 * base[name].wcet)
            assert scaled[name].period == base[name].period

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValidationError):
            uav_rt_tasks(scale=0.0)

    def test_rate_hierarchy(self):
        tasks = uav_rt_tasks()
        assert tasks["fast_navigation"].period < (
            tasks["slow_navigation"].period
        )
        assert tasks["controller"].period < tasks["guidance"].period


class TestTable1Suite:
    def test_six_tasks_matching_specs(self):
        tasks = table1_security_tasks()
        assert len(tasks) == 6
        assert set(tasks.names) == {s.name for s in TABLE1_SPECS}

    def test_five_tripwire_one_bro(self):
        apps = [s.application for s in TABLE1_SPECS]
        assert apps.count("tripwire") == 5
        assert apps.count("bro") == 1

    def test_periods_follow_paper_ranges(self):
        for task in table1_security_tasks():
            assert 1000.0 <= task.period_des <= 3000.0
            assert task.period_max == pytest.approx(10.0 * task.period_des)

    def test_distinct_surfaces(self):
        surfaces = [t.surface for t in table1_security_tasks()]
        assert len(set(surfaces)) == 6

    def test_suite_utilization_near_one(self):
        # Chosen so the SingleCore dedicated core must stretch periods
        # (see DESIGN §5); the suite must still fit when slowed to
        # T_max (util/10 ≪ 1).
        total = sum(t.utilization_des for t in table1_security_tasks())
        assert 0.9 < total < 1.4

    def test_wcet_scale(self):
        base = table1_security_tasks()
        scaled = table1_security_tasks(wcet_scale=0.5)
        for name in base.names:
            assert scaled[name].wcet == pytest.approx(0.5 * base[name].wcet)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValidationError):
            table1_security_tasks(wcet_scale=-1.0)

    def test_precedence_names_exist(self):
        names = {s.name for s in TABLE1_SPECS}
        for dependent, preds in TRIPWIRE_PRECEDENCE.items():
            assert dependent in names
            assert all(p in names for p in preds)

    def test_own_binary_checked_first(self):
        # The §V rule: every Tripwire checker depends on tw_own_binary.
        for dependent, preds in TRIPWIRE_PRECEDENCE.items():
            assert "tw_own_binary" in preds

    def test_own_binary_has_highest_priority(self):
        from repro.model.priority import security_priority_order

        ordered = security_priority_order(table1_security_tasks())
        assert ordered[0].name == "tw_own_binary"
