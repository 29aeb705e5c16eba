"""Unit tests for HYDRA (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.analysis.interference import InterferenceEnv
from repro.core.hydra import HydraAllocator
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)
from repro.opt.period import adapt_period


def make_system(
    rt_by_core: dict[int, list[tuple[float, float]]],
    security: list[tuple[float, float, float]],
    cores: int,
) -> SystemModel:
    """Compact constructor: rt_by_core[core] = [(C, T)], security =
    [(C, T_des, T_max)] with priority following list order (T_max asc)."""
    platform = Platform(cores)
    rt_tasks = []
    mapping = {}
    for core, entries in rt_by_core.items():
        for i, (c, t) in enumerate(entries):
            name = f"r{core}_{i}"
            rt_tasks.append(RealTimeTask(name=name, wcet=c, period=t))
            mapping[name] = core
    security_tasks = [
        SecurityTask(
            name=f"s{i}", wcet=c, period_des=tdes, period_max=tmax
        )
        for i, (c, tdes, tmax) in enumerate(security)
    ]
    return SystemModel(
        platform=platform,
        rt_partition=Partition(platform, TaskSet(rt_tasks), mapping),
        security_tasks=TaskSet(security_tasks),
    )


class TestHydraBasics:
    def test_relaxed_system_all_desired(self, two_core_system):
        allocation = HydraAllocator().allocate(two_core_system)
        assert allocation.schedulable
        for a in allocation.assignments:
            assert a.period == pytest.approx(a.task.period_des)
            assert a.tightness == pytest.approx(1.0)

    def test_assignments_in_priority_order(self, loaded_system):
        allocation = HydraAllocator().allocate(loaded_system)
        assert [a.task.name for a in allocation.assignments] == [
            "s0",
            "s1",
            "s2",
        ]

    def test_prefers_idle_core(self):
        # Core 0 busy, core 1 idle: the task must go to core 1 as soon
        # as core 0's interference stretches its period.
        system = make_system(
            {0: [(5.0, 10.0)], 1: []},
            [(10.0, 12.0, 120.0)],
            cores=2,
        )
        allocation = HydraAllocator().allocate(system)
        assert allocation.schedulable
        assert allocation.assignments[0].core == 1
        assert allocation.assignments[0].period == pytest.approx(12.0)

    def test_tie_broken_towards_lowest_core(self, two_core_system):
        # Both cores achieve η = 1 for sec_hi (core 0's load is light
        # enough): the first core evaluated must win.
        allocation = HydraAllocator().allocate(two_core_system)
        assert allocation.assignment_for("sec_hi").core == 0

    def test_unschedulable_names_first_failing_task(self):
        system = make_system(
            {0: [(9.0, 10.0)]},  # U = 0.9
            [(50.0, 60.0, 70.0)],  # needs ~59/0.1 → way past T_max
            cores=1,
        )
        allocation = HydraAllocator().allocate(system)
        assert not allocation.schedulable
        assert allocation.failed_task == "s0"
        assert allocation.assignments == ()

    def test_failure_is_on_lower_priority_task(self):
        # Priority is by T_max, so s1 (T_max = 90) is served first and
        # fits (T = 34/0.6 ≈ 56.7 ≤ 90); s0 then faces s1's
        # interference: 44/(1 − .4 − 30/56.7) ≈ 619 > 300 → s0 fails.
        system = make_system(
            {0: [(4.0, 10.0)]},  # U = 0.4
            [
                (10.0, 30.0, 300.0),  # s0 — lower priority (bigger T_max)
                (30.0, 40.0, 90.0),  # s1 — higher priority
            ],
            cores=1,
        )
        allocation = HydraAllocator().allocate(system)
        assert not allocation.schedulable
        assert allocation.failed_task == "s0"

    def test_interference_from_earlier_assignments_counted(self):
        # One core: the second task's period must reflect the first's.
        system = make_system(
            {0: []},
            [(10.0, 20.0, 2000.0), (10.0, 20.0, 2000.0)],
            cores=1,
        )
        allocation = HydraAllocator().allocate(system)
        assert allocation.schedulable
        first, second = allocation.assignments
        assert first.period == pytest.approx(20.0)
        # K = 10+10 = 20, U = 0.5 → T = 40.
        assert second.period == pytest.approx(40.0)

    def test_algorithm1_manual_trace(self, loaded_system):
        """Replay Algorithm 1 by hand and compare every decision."""
        allocation = HydraAllocator().allocate(loaded_system)
        assert allocation.schedulable
        placed: dict[int, list] = {0: [], 1: []}
        from repro.model.priority import security_priority_order

        for task in security_priority_order(loaded_system.security_tasks):
            best_core, best = None, None
            for core in loaded_system.platform:
                env = InterferenceEnv.on_core(
                    loaded_system.rt_partition.tasks_on(core), placed[core]
                )
                sol = adapt_period(task, env)
                if sol and (best is None or sol.tightness > best.tightness
                            + 1e-12):
                    best, best_core = sol, core
            assert best is not None
            actual = allocation.assignment_for(task.name)
            assert actual.core == best_core
            assert actual.period == pytest.approx(best.period)
            placed[best_core].append((task, best.period))


class TestHydraSolvers:
    def test_gp_solver_matches_closed_form(self, loaded_system):
        closed = HydraAllocator(solver="closed-form").allocate(loaded_system)
        gp = HydraAllocator(solver="gp").allocate(loaded_system)
        assert closed.schedulable and gp.schedulable
        for a_closed, a_gp in zip(closed.assignments, gp.assignments):
            assert a_gp.core == a_closed.core
            assert a_gp.period == pytest.approx(a_closed.period, rel=1e-4)

    def test_exact_rta_never_worse(self, loaded_system):
        closed = HydraAllocator().allocate(loaded_system)
        exact = HydraAllocator(solver="exact-rta").allocate(loaded_system)
        assert exact.schedulable
        assert exact.cumulative_tightness() >= (
            closed.cumulative_tightness() - 1e-9
        )

    def test_exact_rta_rescues_linear_failure(self):
        system = make_system(
            {0: [(4.0, 10.0)]},
            [(5.0, 9.0, 12.0)],
            cores=1,
        )
        assert not HydraAllocator().allocate(system).schedulable
        exact = HydraAllocator(solver="exact-rta").allocate(system)
        assert exact.schedulable

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            HydraAllocator(solver="quantum")

    def test_scheme_names(self):
        assert HydraAllocator().name == "hydra"
        assert HydraAllocator(solver="exact-rta").name == "hydra[exact-rta]"


class TestHydraInvariants:
    def test_all_constraints_hold_after_allocation(self, loaded_system):
        allocation = HydraAllocator().allocate(loaded_system)
        assert allocation.schedulable
        for core in loaded_system.platform:
            on_core = [a for a in allocation.assignments if a.core == core]
            for i, assignment in enumerate(on_core):
                hp = [(a.task, a.period) for a in on_core[:i]]
                env = InterferenceEnv.on_core(
                    loaded_system.rt_partition.tasks_on(core), hp
                )
                lhs = assignment.task.wcet + env.interference(
                    assignment.period
                )
                assert lhs <= assignment.period + 1e-6

    def test_highest_priority_gets_desired_period_when_room_exists(
        self, loaded_system
    ):
        # On this fixture both cores can host s0 at its desired period,
        # and being served first, s0 must achieve tightness 1.
        allocation = HydraAllocator().allocate(loaded_system)
        assert allocation.assignments[0].tightness == pytest.approx(1.0)

    def test_never_beats_optimal(self, loaded_system):
        from repro.core.optimal import OptimalAllocator

        hydra = HydraAllocator().allocate(loaded_system)
        optimal = OptimalAllocator().allocate(loaded_system)
        assert optimal.cumulative_tightness() >= (
            hydra.cumulative_tightness() - 1e-9
        )
