"""Property-based stress tests of the simulator and the verifier oracle.

Random workloads, strong invariants:

* slices of one core never overlap, and busy time conserves exactly;
* a job never runs on two cores at once (migrating tasks included);
* every allocator's output passes the independent verifier;
* serialisation round-trips arbitrary generated models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimTask, Simulator
from sim_jobs import finished_jobs_of, jobs_of

# --------------------------------------------------------------------------
# Random simulator workloads
# --------------------------------------------------------------------------


@st.composite
def sim_workloads(draw):
    cores = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=6))
    tasks = []
    for i in range(n):
        period = draw(
            st.floats(min_value=2.0, max_value=50.0), label=f"T{i}"
        )
        utilization = draw(
            st.floats(min_value=0.05, max_value=0.4), label=f"u{i}"
        )
        migrating = draw(st.booleans(), label=f"m{i}")
        preemptible = draw(st.booleans(), label=f"p{i}")
        jitter = draw(
            st.sampled_from([0.0, 0.0, 0.3]), label=f"j{i}"
        )
        tasks.append(
            SimTask(
                name=f"t{i}",
                wcet=period * utilization,
                period=period,
                priority=i,
                core=None if migrating else draw(
                    st.integers(0, cores - 1), label=f"c{i}"
                ),
                preemptible=preemptible,
                release_jitter=jitter,
            )
        )
    duration = draw(st.floats(min_value=50.0, max_value=300.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return tasks, cores, duration, seed


class TestSimulatorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(workload=sim_workloads())
    def test_slices_never_overlap_per_core(self, workload):
        tasks, cores, duration, seed = workload
        result = Simulator(
            tasks, num_cores=cores, duration=duration, rng=seed,
            collect_slices=True,
        ).run()
        by_core: dict[int, list] = {}
        for s in result.slices:
            by_core.setdefault(s.core, []).append(s)
        for slices in by_core.values():
            slices.sort(key=lambda s: s.start)
            for earlier, later in zip(slices, slices[1:]):
                assert earlier.end <= later.start + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(workload=sim_workloads())
    def test_busy_time_conservation(self, workload):
        tasks, cores, duration, seed = workload
        result = Simulator(
            tasks, num_cores=cores, duration=duration, rng=seed,
            collect_slices=True,
        ).run()
        per_core: dict[int, float] = {m: 0.0 for m in range(cores)}
        for s in result.slices:
            per_core[s.core] += s.end - s.start
        for core in range(cores):
            assert per_core[core] == pytest.approx(
                result.busy_time[core], abs=1e-6
            )
            assert result.busy_time[core] <= duration + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(workload=sim_workloads())
    def test_job_never_on_two_cores_at_once(self, workload):
        tasks, cores, duration, seed = workload
        result = Simulator(
            tasks, num_cores=cores, duration=duration, rng=seed,
            collect_slices=True,
        ).run()
        # Group slices per task; within one task, releases are serial
        # (deadline = period) so its slices must never overlap in time,
        # across *all* cores.
        by_task: dict[str, list] = {}
        for s in result.slices:
            by_task.setdefault(s.task, []).append(s)
        for slices in by_task.values():
            slices.sort(key=lambda s: (s.start, s.end))
            for earlier, later in zip(slices, slices[1:]):
                assert earlier.end <= later.start + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(workload=sim_workloads())
    def test_completed_jobs_received_exactly_wcet(self, workload):
        tasks, cores, duration, seed = workload
        result = Simulator(
            tasks, num_cores=cores, duration=duration, rng=seed,
            collect_slices=True,
        ).run()
        by_task: dict[str, float] = {}
        for s in result.slices:
            by_task[s.task] = by_task.get(s.task, 0.0) + s.end - s.start
        wcets = {t.name: t.wcet for t in tasks}
        for task_name, total in by_task.items():
            finished = len(finished_jobs_of(result, task_name))
            started_unfinished = sum(
                1
                for j in jobs_of(result, task_name)
                if j.completion is None and j.start is not None
            )
            low = wcets[task_name] * finished
            high = wcets[task_name] * (finished + started_unfinished)
            assert low - 1e-6 <= total <= high + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(workload=sim_workloads())
    def test_releases_respect_min_separation(self, workload):
        tasks, cores, duration, seed = workload
        result = Simulator(
            tasks, num_cores=cores, duration=duration, rng=seed
        ).run()
        periods = {t.name: t.period for t in tasks}
        for task in tasks:
            releases = sorted(
                j.release for j in jobs_of(result, task.name)
            )
            for a, b in zip(releases, releases[1:]):
                assert b - a >= periods[task.name] - 1e-9


# --------------------------------------------------------------------------
# Verifier as oracle over allocators, on random systems
# --------------------------------------------------------------------------


class TestVerifierOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        utilization=st.floats(min_value=0.3, max_value=1.8),
    )
    def test_all_allocators_verify_on_random_systems(
        self, seed, utilization
    ):
        from repro.allocators import get_allocator
        from repro.core.hydra import HydraAllocator
        from repro.core.optimal import OptimalAllocator
        from repro.core.variants import LpRefinedHydraAllocator
        from repro.core.verify import verify_allocation
        from repro.experiments.runner import build_hydra_system
        from repro.taskgen.synthetic import SyntheticConfig, generate_workload

        config = SyntheticConfig(security_task_count=(2, 4))
        workload = generate_workload(
            2, utilization, np.random.default_rng(seed), config
        )
        system = build_hydra_system(workload)
        if system is None:
            return
        allocators = [
            HydraAllocator(),
            get_allocator("first-feasible"),
            get_allocator("slackiest-core"),
            LpRefinedHydraAllocator(),
            OptimalAllocator(search="branch-bound"),
        ]
        for allocator in allocators:
            allocation = allocator.allocate(system)
            if allocation.schedulable:
                result = verify_allocation(system, allocation)
                assert result.ok, f"{allocator.name}: {result.format()}"

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        utilization=st.floats(min_value=0.3, max_value=1.5),
    )
    def test_exact_rta_allocations_verify_exactly(self, seed, utilization):
        from repro.core.hydra import HydraAllocator
        from repro.core.verify import verify_allocation
        from repro.experiments.runner import build_hydra_system
        from repro.taskgen.synthetic import SyntheticConfig, generate_workload

        config = SyntheticConfig(security_task_count=(2, 4))
        workload = generate_workload(
            2, utilization, np.random.default_rng(seed), config
        )
        system = build_hydra_system(workload)
        if system is None:
            return
        allocation = HydraAllocator(solver="exact-rta").allocate(system)
        if allocation.schedulable:
            assert verify_allocation(system, allocation, exact=True).ok


# --------------------------------------------------------------------------
# Serialisation round-trip property
# --------------------------------------------------------------------------


class TestSerializationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        utilization=st.floats(min_value=0.2, max_value=1.6),
    )
    def test_workload_roundtrip(self, seed, utilization):
        from repro.taskgen.synthetic import generate_workload
        from workload_sample import workload_from_dict, workload_to_dict

        workload = generate_workload(
            2, utilization, np.random.default_rng(seed)
        )
        restored = workload_from_dict(workload_to_dict(workload))
        assert restored.rt_tasks == workload.rt_tasks
        assert restored.security_tasks == workload.security_tasks
