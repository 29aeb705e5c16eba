"""Observed response times in the simulator's job records.

Every claim holds for both event loops: :meth:`Simulator.run` (the
per-core kernel on these inputs) and :meth:`Simulator.run_reference`.
The last class holds the observations to the analysis: no observed
response exceeds its exact response-time bound, and the bound is
attained at the synchronous release.
"""

from __future__ import annotations

import pytest

from repro.analysis.interference import InterferenceEnv
from repro.analysis.rta import response_time
from repro.core.hydra import HydraAllocator
from repro.sim.engine import SimTask, Simulator
from repro.sim.runner import build_sim_tasks
from sim_jobs import jobs_of


@pytest.fixture(params=["run", "run_reference"])
def simulate(request):
    def run(tasks, duration=100.0, cores=1):
        simulator = Simulator(tasks, num_cores=cores, duration=duration)
        return getattr(simulator, request.param)()

    return run


def responses(result, task: str) -> list[float]:
    """Response times of the finished jobs of ``task``, in release
    order."""
    track = result.track(task)
    return [done - release
            for release, done in zip(track.release, track.completion)]


def task(name, wcet, period, priority, core=0):
    return SimTask(name=name, wcet=wcet, period=period, priority=priority,
                   core=core)


class TestPerTask:
    def test_isolated_task(self, simulate):
        result = simulate([task("t", 2.0, 10.0, 0)])
        assert len(jobs_of(result, "t")) == 10
        assert responses(result, "t") == pytest.approx([2.0] * 10)

    def test_interference_spreads_distribution(self, simulate):
        hi = task("hi", 2.0, 7.0, 0)
        lo = task("lo", 3.0, 20.0, 1)
        observed = responses(simulate([hi, lo], duration=700.0), "lo")
        assert min(observed) >= 3.0
        assert max(observed) > min(observed)  # phases differ

    def test_worst_case_at_synchronous_release(self, simulate):
        hi = task("hi", 2.0, 7.0, 0)
        lo = task("lo", 3.0, 20.0, 1)
        observed = responses(simulate([hi, lo], duration=1400.0), "lo")
        bound = response_time(3.0, [(2.0, 7.0)])
        assert max(observed) <= bound + 1e-9
        # The critical instant is t = 0, so the first job attains it.
        assert observed[0] == pytest.approx(bound)

    def test_unfinished_job_is_recorded(self, simulate):
        result = simulate([task("t", 9.0, 10.0, 0)], duration=15.0)
        jobs = jobs_of(result, "t")
        assert len(jobs) == 2
        assert [job.completion is None for job in jobs] == [False, True]
        assert responses(result, "t") == pytest.approx([9.0])

    def test_task_with_no_finished_jobs(self, simulate):
        result = simulate([task("t", 9.0, 10.0, 0)], duration=5.0)
        (job,) = jobs_of(result, "t")
        assert job.start == 0.0
        assert job.completion is None
        assert responses(result, "t") == []

    def test_unknown_task_has_no_jobs(self, simulate):
        result = simulate([task("t", 1.0, 10.0, 0)])
        assert jobs_of(result, "ghost") == []
        assert result.track("ghost").completion == ()


class TestAcrossTasks:
    def test_covers_every_task(self, simulate):
        result = simulate([task("a", 1.0, 10.0, 0), task("b", 2.0, 20.0, 1)])
        assert {job.task for job in result.jobs} == {"a", "b"}

    def test_saturated_core_leaves_the_other_core_alone(self, simulate):
        ok = task("ok", 1.0, 10.0, 0, core=0)
        # Never finishes within the horizon on its own core.
        stuck = task("stuck", 50.0, 60.0, 1, core=1)
        result = simulate([ok, stuck], duration=40.0, cores=2)
        assert responses(result, "stuck") == []
        assert responses(result, "ok") == pytest.approx([1.0] * 4)
        assert {miss.task for miss in result.misses} == set()

    def test_job_counts_follow_the_periods(self, simulate):
        fast = task("fast", 1.0, 10.0, 0, core=0)
        slow = task("slow", 3.0, 50.0, 1, core=1)
        result = simulate([fast, slow], duration=100.0, cores=2)
        assert len(result.jobs) == 12
        observed = responses(result, "fast") + responses(result, "slow")
        # 10 jobs at 1.0 plus 2 jobs at 3.0, each job counted once.
        assert sum(observed) / len(observed) == pytest.approx(16.0 / 12)

    def test_track_matches_the_job_records(self, simulate):
        hi = task("hi", 2.0, 7.0, 0)
        lo = task("lo", 3.0, 20.0, 1)
        result = simulate([hi, lo], duration=100.0)
        for name in ("hi", "lo"):
            finished = [job for job in jobs_of(result, name)
                        if job.completion is not None]
            track = result.track(name)
            assert list(track.release) == [job.release for job in finished]
            assert list(track.start) == [job.start for job in finished]
            assert list(track.completion) == [
                job.completion for job in finished
            ]


class TestAgainstTheAnalysis:
    def test_observed_never_exceeds_the_bound_on_an_allocated_system(
        self, simulate, loaded_system
    ):
        allocation = HydraAllocator().allocate(loaded_system)
        assert allocation.schedulable
        tasks = build_sim_tasks(loaded_system, allocation)
        result = simulate(tasks, duration=12_000.0,
                          cores=loaded_system.platform.num_cores)
        assert result.misses == []
        for core in loaded_system.platform:
            on_core = [a for a in allocation.assignments if a.core == core]
            for i, assignment in enumerate(on_core):
                env = InterferenceEnv.on_core(
                    loaded_system.rt_partition.tasks_on(core),
                    [(a.task, a.period) for a in on_core[:i]],
                )
                bound = response_time(assignment.task.wcet, env.interferers)
                observed = responses(result, assignment.task.name)
                assert observed
                assert max(observed) <= bound + 1e-6
                # Every task releases at t = 0: the critical instant.
                assert observed[0] == pytest.approx(bound)
