"""Engine tests for feature combinations and offsets.

The individual features (preemption, precedence, migration, jitter,
execution variation) are covered in ``test_engine.py``; these tests pin
the *interactions*, which is where scheduling engines usually break.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import SimTask, Simulator
from sim_jobs import finished_jobs_of, jobs_of


def run(tasks, cores=1, duration=100.0, **kwargs):
    return Simulator(tasks, num_cores=cores, duration=duration, **kwargs).run()


class TestOffsets:
    def test_first_release_at_offset(self):
        task = SimTask(
            name="t", wcet=1.0, period=10.0, priority=0, core=0, offset=4.0
        )
        result = run([task], duration=30.0)
        assert [j.release for j in jobs_of(result, "t")] == [4.0, 14.0, 24.0]

    def test_offset_shifts_deadline(self):
        task = SimTask(
            name="t", wcet=1.0, period=10.0, priority=0, core=0, offset=4.0
        )
        result = run([task], duration=20.0)
        assert jobs_of(result, "t")[0].deadline == pytest.approx(14.0)

    def test_asynchronous_releases_reduce_interference(self):
        # Synchronous: lo waits for hi. With hi offset past lo's burst,
        # lo runs immediately.
        hi_sync = SimTask(name="hi", wcet=3.0, period=10.0, priority=0,
                          core=0)
        hi_off = SimTask(name="hi", wcet=3.0, period=10.0, priority=0,
                         core=0, offset=5.0)
        lo = SimTask(name="lo", wcet=2.0, period=10.0, priority=1, core=0)
        sync = run([hi_sync, lo], duration=10.0)
        offset = run([hi_off, lo], duration=10.0)
        assert jobs_of(sync, "lo")[0].start == pytest.approx(3.0)
        assert jobs_of(offset, "lo")[0].start == pytest.approx(0.0)


class TestPrecedencePlusMigration:
    def test_dependent_migrating_job_waits_then_runs_anywhere(self):
        pred = SimTask(
            name="pred", wcet=2.0, period=20.0, priority=0, core=0
        )
        blocker = SimTask(
            name="blocker", wcet=6.0, period=20.0, priority=1, core=0
        )
        dep = SimTask(
            name="dep", wcet=1.0, period=20.0, priority=2, core=None,
            predecessors=("pred",),
        )
        result = run([pred, blocker, dep], cores=2, duration=20.0)
        job = jobs_of(result, "dep")[0]
        # pred completes at 2; dep then starts on the idle core 1 even
        # though core 0 is still busy with blocker.
        assert job.start == pytest.approx(2.0)
        assert job.core == 1

    def test_precedence_respected_across_cores(self):
        pred = SimTask(
            name="pred", wcet=5.0, period=20.0, priority=0, core=0
        )
        dep = SimTask(
            name="dep", wcet=1.0, period=20.0, priority=1, core=None,
            predecessors=("pred",),
        )
        result = run([pred, dep], cores=2, duration=20.0)
        # Core 1 is idle the whole time, but dep must still wait for
        # pred's completion at t = 5.
        assert jobs_of(result, "dep")[0].start == pytest.approx(5.0)


class TestNonPreemptiveMigration:
    def test_non_preemptive_migrating_job_finishes_in_place(self):
        roam = SimTask(
            name="roam", wcet=4.0, period=20.0, priority=1, core=None,
            preemptible=False,
        )
        rt = SimTask(
            name="rt", wcet=2.0, period=10.0, priority=0, core=0,
            offset=1.0,
        )
        result = run([rt, roam], cores=1, duration=20.0)
        # roam starts at 0 and, being non-preemptible, completes at 4;
        # rt (released at 1) is blocked until then.
        assert jobs_of(result, "roam")[0].completion == pytest.approx(4.0)
        assert jobs_of(result, "rt")[0].start == pytest.approx(4.0)

    def test_non_preemptive_slices_are_contiguous(self):
        from repro.sim.trace import merge_slices

        roam = SimTask(
            name="roam", wcet=4.0, period=10.0, priority=1, core=None,
            preemptible=False,
        )
        rt = SimTask(
            name="rt", wcet=2.0, period=5.0, priority=0, core=0
        )
        result = run(
            [rt, roam], cores=2, duration=40.0, collect_slices=True
        )
        merged = [
            s for s in merge_slices(result.slices) if s.task == "roam"
        ]
        completed = len(finished_jobs_of(result, "roam"))
        # One contiguous slice per completed job.
        assert len([s for s in merged if s.end - s.start >= 4.0 - 1e-9]) == (
            completed
        )


class TestJitterPlusVariation:
    def test_combined_sporadic_and_sub_wcet(self):
        task = SimTask(
            name="t", wcet=2.0, period=10.0, priority=0, core=0,
            release_jitter=0.4, execution_factor=0.5,
        )
        result = run([task], duration=2000.0)
        releases = [j.release for j in jobs_of(result, "t")]
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert all(10.0 - 1e-9 <= g <= 14.0 + 1e-9 for g in gaps)
        for job in jobs_of(result, "t"):
            if job.completion is not None:
                assert 1.0 - 1e-9 <= job.completion - job.release <= 2.0 + 1e-9

    def test_no_misses_with_lighter_execution(self, loaded_system):
        # If the worst-case admitted system never misses, any sub-WCET
        # run of the same system must not miss either.
        from repro.core.hydra import HydraAllocator
        from repro.sim.runner import simulate_allocation

        allocation = HydraAllocator().allocate(loaded_system)
        result = simulate_allocation(
            loaded_system, allocation, duration=8000.0, rng=7,
            execution_factor=0.4,
        )
        assert not result.misses
