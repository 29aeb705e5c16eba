"""Unit tests for the independent allocation verifier."""

from __future__ import annotations

import pytest

from repro.allocators import get_allocator
from repro.core.hydra import HydraAllocator
from repro.core.nonpreemptive import NonPreemptiveHydraAllocator
from repro.core.optimal import OptimalAllocator
from repro.core.singlecore import SingleCoreAllocator
from repro.core.variants import LpRefinedHydraAllocator
from repro.core.verify import verify_allocation
from repro.model.allocation import Allocation, SecurityAssignment


class TestVerifierAcceptsAllAllocators:
    @pytest.mark.parametrize(
        "allocator",
        [
            HydraAllocator(),
            HydraAllocator(solver="gp"),
            get_allocator("first-feasible"),
            get_allocator("slackiest-core"),
            LpRefinedHydraAllocator(),
            OptimalAllocator(),
            OptimalAllocator(search="branch-bound"),
        ],
        ids=lambda a: a.name,
    )
    def test_every_allocator_produces_verified_output(
        self, loaded_system, allocator
    ):
        allocation = allocator.allocate(loaded_system)
        assert allocation.schedulable
        result = verify_allocation(loaded_system, allocation)
        assert result.ok, result.format()

    def test_exact_rta_allocations_verify_under_exact_mode(
        self, loaded_system
    ):
        allocation = HydraAllocator(solver="exact-rta").allocate(
            loaded_system
        )
        # Exact allocations may violate the stricter linear bound...
        exact_result = verify_allocation(
            loaded_system, allocation, exact=True
        )
        assert exact_result.ok

    def test_np_allocator_correctly_refuses_tight_fixture(
        self, loaded_system
    ):
        # loaded_system's security WCETs (20–40) exceed every core's
        # blocking budget (≤ 6 on core 0, ≤ 15 on core 1), so the
        # blocking-aware allocator must refuse — unlike plain HYDRA.
        allocation = NonPreemptiveHydraAllocator().allocate(loaded_system)
        assert not allocation.schedulable
        assert HydraAllocator().allocate(loaded_system).schedulable

    def test_nonpreemptive_allocator_passes_blocking_audit(self):
        from repro.experiments.fig1 import build_uav_systems

        system, _, _, _ = build_uav_systems(4)
        allocation = NonPreemptiveHydraAllocator().allocate(system)
        result = verify_allocation(system, allocation, non_preemptive=True)
        assert result.ok, result.format()

    def test_plain_hydra_fails_blocking_audit_on_uav(self):
        from repro.experiments.fig1 import build_uav_systems

        system, allocation, _, _ = build_uav_systems(4)
        result = verify_allocation(system, allocation, non_preemptive=True)
        assert not result.ok
        assert any(v.kind == "blocking" for v in result.violations)

    def test_singlecore_verifies(self, rng):
        from repro.core.singlecore import build_singlecore_system
        from repro.taskgen.synthetic import generate_workload

        workload = generate_workload(2, 0.9, rng)
        system = build_singlecore_system(
            workload.platform, workload.rt_tasks, workload.security_tasks
        )
        allocation = SingleCoreAllocator().allocate(system)
        if allocation.schedulable:
            assert verify_allocation(system, allocation).ok


class TestVerifierCatchesViolations:
    def test_unschedulable_allocation_flagged(self, loaded_system):
        failed = Allocation(scheme="x", schedulable=False, failed_task="s0")
        result = verify_allocation(loaded_system, failed)
        assert not result.ok
        assert result.violations[0].kind == "coverage"

    def test_missing_task_detected(self, loaded_system):
        allocation = HydraAllocator().allocate(loaded_system)
        truncated = Allocation(
            scheme="x",
            schedulable=True,
            assignments=allocation.assignments[:-1],
        )
        result = verify_allocation(loaded_system, truncated)
        assert any(v.kind == "coverage" for v in result.violations)

    def test_alien_task_detected(self, loaded_system, security_pair):
        allocation = HydraAllocator().allocate(loaded_system)
        alien = SecurityAssignment(
            task=security_pair["sec_hi"], core=0, period=120.0
        )
        doctored = Allocation(
            scheme="x",
            schedulable=True,
            assignments=(*allocation.assignments, alien),
        )
        result = verify_allocation(loaded_system, doctored)
        assert any(v.kind == "coverage" for v in result.violations)

    def test_bad_core_detected(self, loaded_system):
        allocation = HydraAllocator().allocate(loaded_system)
        moved = tuple(
            SecurityAssignment(task=a.task, core=9, period=a.period)
            if i == 0
            else a
            for i, a in enumerate(allocation.assignments)
        )
        doctored = Allocation(
            scheme="x", schedulable=True, assignments=moved
        )
        result = verify_allocation(loaded_system, doctored)
        assert any(v.kind == "core" for v in result.violations)

    def test_overloaded_core_detected(self, loaded_system):
        # Force all three tasks onto core 0 at their desired periods —
        # the fixture is tight enough that Eq. (6) breaks.
        assignments = tuple(
            SecurityAssignment(task=t, core=0, period=t.period_des)
            for t in loaded_system.security_tasks
        )
        doctored = Allocation(
            scheme="x", schedulable=True, assignments=assignments
        )
        result = verify_allocation(loaded_system, doctored)
        assert any(
            v.kind == "schedulability" for v in result.violations
        ), result.format()

    def test_format_lists_violations(self, loaded_system):
        failed = Allocation(scheme="x", schedulable=False, failed_task="s0")
        text = verify_allocation(loaded_system, failed).format()
        assert "violation" in text
