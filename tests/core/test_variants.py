"""Unit tests for the ablation allocator variants.

``first-feasible`` and ``slackiest-core`` are core rules of HYDRA's
walk, built through the registry.
"""

from __future__ import annotations

from repro.allocators import get_allocator
from repro.core.hydra import HydraAllocator
from repro.core.variants import LpRefinedHydraAllocator


class TestFirstFeasible:
    def test_takes_lowest_feasible_core(self, loaded_system):
        allocation = get_allocator("first-feasible").allocate(loaded_system)
        assert allocation.schedulable
        # Core 0 is feasible for s0, so first-feasible must pick it.
        assert allocation.assignment_for("s0").core == 0

    def test_never_tighter_than_hydra(self, loaded_system):
        hydra = HydraAllocator().allocate(loaded_system)
        first = get_allocator("first-feasible").allocate(loaded_system)
        assert first.schedulable
        assert first.cumulative_tightness() <= (
            hydra.cumulative_tightness() + 1e-9
        )

    def test_unschedulable_propagates(self, loaded_system):
        from dataclasses import replace
        from repro.model.task import SecurityTask, TaskSet

        impossible = TaskSet(
            [
                SecurityTask(
                    name="x", wcet=95.0, period_des=100.0, period_max=100.0
                )
            ]
        )
        system = replace(loaded_system, security_tasks=impossible, weights={})
        allocation = get_allocator("first-feasible").allocate(system)
        assert not allocation.schedulable
        assert allocation.failed_task == "x"


class TestSlackiestCore:
    def test_prefers_lighter_core(self, loaded_system):
        # Core 0: U = .7; core 1: U = .55 → slackiest picks core 1 for
        # the first task.
        allocation = get_allocator("slackiest-core").allocate(loaded_system)
        assert allocation.schedulable
        assert allocation.assignment_for("s0").core == 1

    def test_accounts_for_placed_security_load(self, two_core_system):
        allocation = get_allocator("slackiest-core").allocate(two_core_system)
        assert allocation.schedulable
        cores = allocation.cores()
        # First task goes to the idle core 1; the second task then sees
        # core 1 carrying security load (u = 5/100) versus core 0's RT
        # load (u = 0.2): core 1 is still slacker → both land on core 1.
        assert cores["sec_hi"] == 1
        assert cores["sec_lo"] == 1


class TestLpRefinedHydra:
    def test_same_assignment_as_hydra(self, loaded_system):
        hydra = HydraAllocator().allocate(loaded_system)
        refined = LpRefinedHydraAllocator().allocate(loaded_system)
        assert refined.schedulable
        assert refined.cores() == hydra.cores()

    def test_never_worse_than_hydra(self, loaded_system):
        hydra = HydraAllocator().allocate(loaded_system)
        refined = LpRefinedHydraAllocator().allocate(loaded_system)
        assert refined.cumulative_tightness() >= (
            hydra.cumulative_tightness() - 1e-9
        )

    def test_info_records_both_tightness_values(self, loaded_system):
        refined = LpRefinedHydraAllocator().allocate(loaded_system)
        assert refined.info["refined_tightness"] >= (
            refined.info["greedy_tightness"] - 1e-9
        )

    def test_failure_propagates(self, loaded_system):
        from dataclasses import replace
        from repro.model.task import SecurityTask, TaskSet

        impossible = TaskSet(
            [
                SecurityTask(
                    name="x", wcet=95.0, period_des=100.0, period_max=100.0
                )
            ]
        )
        system = replace(loaded_system, security_tasks=impossible, weights={})
        allocation = LpRefinedHydraAllocator().allocate(system)
        assert not allocation.schedulable
        assert allocation.failed_task == "x"

    def test_periods_stay_in_bounds(self, loaded_system):
        refined = LpRefinedHydraAllocator().allocate(loaded_system)
        for a in refined.assignments:
            assert a.task.period_des - 1e-6 <= a.period
            assert a.period <= a.task.period_max + 1e-6
