"""Unit tests for the joint per-assignment optimisation."""

from __future__ import annotations

import pytest

from linprog_reference import solve_lp_highs
from repro.core.hydra import HydraAllocator
from repro.errors import ValidationError
from repro.opt import joint
from repro.opt.joint import assignment_feasible, solve_assignment_lp


def all_on(system, core: int) -> dict[str, int]:
    return {name: core for name in system.security_tasks.names}


class TestAssignmentFeasible:
    def test_empty_core_feasible(self, two_core_system):
        assert assignment_feasible(
            two_core_system, all_on(two_core_system, 1)
        )

    def test_loaded_assignment(self, loaded_system):
        assert assignment_feasible(loaded_system, all_on(loaded_system, 0))

    def test_incomplete_assignment_rejected(self, two_core_system):
        with pytest.raises(ValidationError):
            assignment_feasible(two_core_system, {"sec_hi": 0})

    def test_unknown_core_rejected(self, two_core_system):
        with pytest.raises(ValidationError):
            assignment_feasible(
                two_core_system, {"sec_hi": 0, "sec_lo": 5}
            )

    def test_matches_lp_feasibility(self, loaded_system):
        # The fast check must agree with the LP on every assignment of
        # this 2-core, 3-task system.
        import itertools

        names = list(loaded_system.security_tasks.names)
        for combo in itertools.product([0, 1], repeat=len(names)):
            assignment = dict(zip(names, combo))
            fast = assignment_feasible(loaded_system, assignment)
            lp = solve_assignment_lp(loaded_system, assignment) is not None
            assert fast == lp, assignment


class TestSolveAssignmentLp:
    def test_relaxed_system_hits_desired_periods(self, two_core_system):
        solution = solve_assignment_lp(
            two_core_system, all_on(two_core_system, 1)
        )
        assert solution is not None
        for name, period in solution.periods.items():
            task = two_core_system.security_tasks[name]
            assert period == pytest.approx(task.period_des, rel=1e-6)
        assert solution.tightness == pytest.approx(2.0, rel=1e-6)

    def test_periods_respect_bounds(self, loaded_system):
        solution = solve_assignment_lp(loaded_system, all_on(loaded_system, 0))
        assert solution is not None
        for name, period in solution.periods.items():
            task = loaded_system.security_tasks[name]
            assert task.period_des - 1e-6 <= period
            assert period <= task.period_max + 1e-6

    def test_schedulability_constraints_hold(self, loaded_system):
        from repro.analysis.interference import InterferenceEnv
        from repro.model.priority import security_priority_order

        assignment = all_on(loaded_system, 0)
        solution = solve_assignment_lp(loaded_system, assignment)
        assert solution is not None
        placed = []
        for task in security_priority_order(loaded_system.security_tasks):
            env = InterferenceEnv.on_core(
                loaded_system.rt_partition.tasks_on(0), placed
            )
            period = solution.periods[task.name]
            assert task.wcet + env.interference(period) <= period + 1e-6
            placed.append((task, period))

    def test_weights_steer_the_optimum(self, loaded_system):
        from dataclasses import replace

        assignment = all_on(loaded_system, 0)
        base = solve_assignment_lp(loaded_system, assignment)
        weighted_system = replace(
            loaded_system, weights={"s2": 100.0}
        )
        weighted = solve_assignment_lp(weighted_system, assignment)
        assert base is not None and weighted is not None
        # Heavy weight on the lowest-priority task pulls its period down
        # (or keeps it equal if already minimal).
        assert weighted.periods["s2"] <= base.periods["s2"] + 1e-9

    def test_lp_at_least_as_good_as_sequential(self, loaded_system):
        """The LP on HYDRA's assignment is at least as tight as HYDRA's
        greedy periods."""
        greedy = HydraAllocator().allocate(loaded_system)
        assert greedy.schedulable
        lp = solve_assignment_lp(loaded_system, greedy.cores())
        assert lp is not None
        assert lp.tightness >= greedy.cumulative_tightness() - 1e-9

    def test_infeasible_returns_none(self, loaded_system):
        # Shrink T_max so far that core 0's RT load cannot fit anything.
        from repro.model.task import SecurityTask, TaskSet
        from dataclasses import replace

        tight = TaskSet(
            [
                SecurityTask(
                    name="impossible",
                    wcet=50.0,
                    period_des=60.0,
                    period_max=65.0,
                )
            ]
        )
        system = replace(loaded_system, security_tasks=tight, weights={})
        assert solve_assignment_lp(system, {"impossible": 0}) is None

    def test_empty_security_set(self, loaded_system):
        from dataclasses import replace
        from repro.model.task import TaskSet

        system = replace(loaded_system, security_tasks=TaskSet(), weights={})
        solution = solve_assignment_lp(system, {})
        assert solution is not None
        assert solution.tightness == 0.0

    def test_scipy_backend_agrees(self, loaded_system, monkeypatch):
        assignment = all_on(loaded_system, 0)
        ours = solve_assignment_lp(loaded_system, assignment)
        monkeypatch.setattr(joint, "solve_lp", solve_lp_highs)
        scipy_solution = solve_assignment_lp(loaded_system, assignment)
        assert ours is not None and scipy_solution is not None
        assert ours.tightness == pytest.approx(
            scipy_solution.tightness, rel=1e-6
        )


class TestHydraGreedy:
    def test_greedy_can_reject_lp_feasible_assignment(self):
        """The documented lexicographic-greedy pathology.

        The high-priority task grabs its minimal period, starving the
        low-priority one; the LP balances the two and stays feasible.
        """
        from repro.model import (
            Partition,
            Platform,
            SecurityTask,
            SystemModel,
            TaskSet,
        )

        platform = Platform(1)
        partition = Partition(platform, TaskSet(), {})
        # Priority is by T_max ascending, so "hi" (T_max = 3.0) precedes
        # "lo" (T_max = 3.9).
        security = TaskSet(
            [
                SecurityTask(
                    name="hi", wcet=1.0, period_des=2.0, period_max=3.0
                ),
                SecurityTask(
                    name="lo", wcet=1.0, period_des=2.0, period_max=3.9
                ),
            ]
        )
        system = SystemModel(
            platform=platform, rt_partition=partition,
            security_tasks=security,
        )
        # Greedy: hi takes T=2 (util .5) → lo needs 2/(1-.5) = 4 > 3.9.
        greedy = HydraAllocator().allocate(system)
        assert not greedy.schedulable
        assert greedy.failed_task == "lo"
        # LP: hi at 3 (util 1/3) → lo at 2·3/(3−1−… ) ≈ 3.85 ≤ 3.9.
        assert solve_assignment_lp(system, {"hi": 0, "lo": 0}) is not None
