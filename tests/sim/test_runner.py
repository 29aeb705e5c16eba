"""Unit tests for the system → simulator bridge."""

from __future__ import annotations

import pytest

from repro.core.hydra import HydraAllocator
from repro.errors import ValidationError
from repro.sim.runner import build_sim_tasks, simulate_allocation
from sim_jobs import finished_jobs_of, jobs_of


@pytest.fixture
def allocated(loaded_system):
    allocation = HydraAllocator().allocate(loaded_system)
    assert allocation.schedulable
    return loaded_system, allocation


class TestBuildSimTasks:
    def test_counts_and_kinds(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation)
        rt = [t for t in tasks if t.kind == "rt"]
        sec = [t for t in tasks if t.kind == "security"]
        assert len(rt) == len(system.rt_tasks)
        assert len(sec) == len(system.security_tasks)

    def test_security_below_all_rt_priorities(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation)
        max_rt = max(t.priority for t in tasks if t.kind == "rt")
        min_sec = min(t.priority for t in tasks if t.kind == "security")
        assert min_sec > max_rt

    def test_priorities_are_distinct_and_dense(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation)
        assert sorted(t.priority for t in tasks) == list(range(len(tasks)))

    def test_real_time_band_is_rate_monotonic(self, allocated):
        system, allocation = allocated
        rt = sorted(
            (t for t in build_sim_tasks(system, allocation) if t.kind == "rt"),
            key=lambda t: t.priority,
        )
        periods = [t.period for t in rt]
        assert periods == sorted(periods)
        # The highest priority goes to the shortest period.
        assert rt[0].priority == 0
        assert rt[0].period == min(t.period for t in system.rt_tasks)

    def test_security_band_is_ordered_by_max_period(self, allocated):
        system, allocation = allocated
        band = sorted(
            (t for t in build_sim_tasks(system, allocation)
             if t.kind == "security"),
            key=lambda t: t.priority,
        )
        tmax = {t.name: t.period_max for t in system.security_tasks}
        assert [tmax[t.name] for t in band] == sorted(tmax.values())

    def test_security_periods_match_allocation(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation)
        periods = allocation.periods()
        for t in tasks:
            if t.kind == "security":
                assert t.period == pytest.approx(periods[t.name])
                assert t.deadline == pytest.approx(periods[t.name])

    def test_cores_match_partition_and_allocation(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation)
        cores = allocation.cores()
        for t in tasks:
            if t.kind == "security":
                assert t.core == cores[t.name]
            else:
                assert t.core == system.rt_partition.core_of(t.name)

    def test_global_mode_unbinds_security(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(system, allocation, security_mode="global")
        assert all(
            t.core is None for t in tasks if t.kind == "security"
        )
        assert all(t.core is not None for t in tasks if t.kind == "rt")

    def test_non_preemptible_flag(self, allocated):
        system, allocation = allocated
        tasks = build_sim_tasks(
            system, allocation, preemptible_security=False
        )
        assert all(
            not t.preemptible for t in tasks if t.kind == "security"
        )

    def test_unschedulable_allocation_rejected(self, loaded_system):
        from repro.model.allocation import Allocation

        bad = Allocation(scheme="x", schedulable=False, failed_task="s0")
        with pytest.raises(ValidationError):
            build_sim_tasks(loaded_system, bad)

    def test_unknown_precedence_rejected(self, allocated):
        system, allocation = allocated
        with pytest.raises(ValidationError):
            build_sim_tasks(
                system, allocation, precedence={"s0": ("ghost",)}
            )

    def test_bad_mode_rejected(self, allocated):
        system, allocation = allocated
        with pytest.raises(ValidationError):
            build_sim_tasks(system, allocation, security_mode="quantum")


class TestSimulateAllocation:
    def test_no_deadline_misses_for_admitted_system(self, allocated):
        system, allocation = allocated
        result = simulate_allocation(system, allocation, duration=3000.0)
        assert not result.misses

    def test_security_only_preserves_security_schedule(self, allocated):
        system, allocation = allocated
        full = simulate_allocation(
            system, allocation, duration=2000.0
        )
        alone = simulate_allocation(
            system, allocation, duration=2000.0, security_only=True
        )
        names = set(system.security_tasks.names)
        assert {job.task for job in alone.jobs} == names
        assert len(alone.jobs) == sum(1 for j in full.jobs if j.task in names)
        for name in names:
            full_jobs = jobs_of(full, name)
            alone_jobs = jobs_of(alone, name)
            for field in ("release", "start", "completion"):
                assert [getattr(j, field) for j in alone_jobs] == [
                    getattr(j, field) for j in full_jobs
                ]
        assert alone.misses == [m for m in full.misses if m.task in names]

    def test_security_only_rejected_in_global_mode(self, allocated):
        system, allocation = allocated
        with pytest.raises(ValidationError, match="global"):
            simulate_allocation(
                system,
                allocation,
                duration=100.0,
                security_mode="global",
                security_only=True,
            )

    @pytest.mark.parametrize(
        ("extension", "message"),
        [
            ({"preemptible_security": False}, "paper's model"),
            ({"precedence": {"s0": ("s1",)}}, "paper's model"),
            ({"release_jitter": 0.1}, "paper's model"),
            ({"execution_factor": 0.5}, "paper's model"),
            ({"collect_slices": True}, "slices"),
        ],
    )
    def test_security_only_rejects_every_extension(
        self, allocated, extension, message
    ):
        # The security band is the paper's model only (§V extensions and
        # slices take the reference loop).
        system, allocation = allocated
        with pytest.raises(ValidationError, match=message):
            simulate_allocation(
                system, allocation, duration=100.0, security_only=True,
                **extension,
            )

    def test_global_mode_completes_no_later_on_average(self, allocated):
        # Work-conserving migration can only help security tasks (they
        # may grab any idle core instead of waiting for their own).
        system, allocation = allocated
        part = simulate_allocation(system, allocation, duration=4000.0)
        glob = simulate_allocation(
            system, allocation, duration=4000.0, security_mode="global"
        )

        def mean_response(result):
            responses = [
                j.completion - j.release
                for name in system.security_tasks.names
                for j in finished_jobs_of(result, name)
            ]
            return sum(responses) / len(responses)

        assert mean_response(glob) <= mean_response(part) + 1e-6
