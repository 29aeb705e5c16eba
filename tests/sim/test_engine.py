"""Unit tests for the discrete-event scheduling engine.

Schedules small enough to verify by hand, plus conservation laws.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.sim.engine import SimTask, Simulator


def run(tasks, cores=1, duration=100.0, **kwargs):
    return Simulator(tasks, num_cores=cores, duration=duration, **kwargs).run()


class TestSingleTask:
    def test_periodic_releases(self):
        task = SimTask(name="t", wcet=2.0, period=10.0, priority=0, core=0)
        result = run([task], duration=35.0)
        jobs = result.jobs_of("t")
        assert [j.release for j in jobs] == [0.0, 10.0, 20.0, 30.0]

    def test_runs_immediately_when_alone(self):
        task = SimTask(name="t", wcet=2.0, period=10.0, priority=0, core=0)
        result = run([task], duration=20.0)
        first = result.jobs_of("t")[0]
        assert first.start == 0.0
        assert first.completion == pytest.approx(2.0)
        assert first.met_deadline

    def test_busy_time_accounting(self):
        task = SimTask(name="t", wcet=2.0, period=10.0, priority=0, core=0)
        result = run([task], duration=100.0)
        assert result.busy_time[0] == pytest.approx(20.0)
        assert result.utilization_of_core(0) == pytest.approx(0.2)

    def test_unfinished_job_at_horizon(self):
        task = SimTask(name="t", wcet=8.0, period=10.0, priority=0, core=0)
        result = run([task], duration=15.0)
        jobs = result.jobs_of("t")
        assert jobs[0].finished
        assert not jobs[1].finished
        assert jobs[1].completion is None


class TestPreemption:
    def test_high_priority_preempts(self):
        hi = SimTask(name="hi", wcet=2.0, period=10.0, priority=0, core=0)
        lo = SimTask(name="lo", wcet=6.0, period=20.0, priority=1, core=0)
        result = run([hi, lo], duration=20.0, collect_slices=True)
        lo_first = result.jobs_of("lo")[0]
        # lo runs 2→10 minus hi's second instance at 10? hi releases at
        # 0 and 10; lo needs 6 units: 2..8 → completes before t=10.
        assert lo_first.start == pytest.approx(2.0)
        assert lo_first.completion == pytest.approx(8.0)

    def test_preempted_job_resumes(self):
        hi = SimTask(name="hi", wcet=3.0, period=10.0, priority=0, core=0)
        lo = SimTask(name="lo", wcet=9.0, period=30.0, priority=1, core=0)
        result = run([hi, lo], duration=30.0)
        lo_first = result.jobs_of("lo")[0]
        # Timeline: hi 0-3, lo 3-10, hi 10-13, lo 13-15 → completes 15.
        assert lo_first.completion == pytest.approx(15.0)

    def test_response_time_matches_rta(self):
        # Compare the simulator against analytical RTA for the
        # synchronous release pattern (which the simulator produces).
        from repro.analysis.rta import response_time

        hi = SimTask(name="hi", wcet=1.0, period=4.0, priority=0, core=0)
        mid = SimTask(name="mid", wcet=2.0, period=6.0, priority=1, core=0)
        lo = SimTask(name="lo", wcet=3.0, period=12.0, priority=2, core=0)
        result = run([hi, mid, lo], duration=12.0)
        lo_first = result.jobs_of("lo")[0]
        expected = response_time(3.0, [(1.0, 4.0), (2.0, 6.0)])
        assert lo_first.completion == pytest.approx(expected)

    def test_no_misses_for_schedulable_set(self):
        hi = SimTask(name="hi", wcet=1.0, period=4.0, priority=0, core=0)
        mid = SimTask(name="mid", wcet=2.0, period=6.0, priority=1, core=0)
        lo = SimTask(name="lo", wcet=3.0, period=12.0, priority=2, core=0)
        result = run([hi, mid, lo], duration=120.0)
        assert not result.missed_any_deadline

    def test_overload_produces_misses(self):
        a = SimTask(name="a", wcet=3.0, period=4.0, priority=0, core=0)
        b = SimTask(name="b", wcet=3.0, period=6.0, priority=1, core=0)
        result = run([a, b], duration=60.0)
        assert result.missed_any_deadline
        assert any(m.task == "b" for m in result.misses)


class TestMultiCore:
    def test_cores_are_independent(self):
        a = SimTask(name="a", wcet=5.0, period=10.0, priority=0, core=0)
        b = SimTask(name="b", wcet=5.0, period=10.0, priority=1, core=1)
        result = run([a, b], cores=2, duration=10.0)
        assert result.jobs_of("a")[0].completion == pytest.approx(5.0)
        assert result.jobs_of("b")[0].completion == pytest.approx(5.0)

    def test_job_records_core(self):
        a = SimTask(name="a", wcet=1.0, period=10.0, priority=0, core=1)
        result = run([a], cores=2, duration=10.0)
        assert result.jobs_of("a")[0].core == 1

    def test_invalid_core_rejected(self):
        task = SimTask(name="a", wcet=1.0, period=10.0, priority=0, core=3)
        with pytest.raises(ValidationError):
            Simulator([task], num_cores=2, duration=10.0)


class TestNonPreemptive:
    def test_non_preemptible_blocks_higher_priority(self):
        hi = SimTask(
            name="hi", wcet=2.0, period=10.0, priority=0, core=0, offset=1.0
        )
        lo = SimTask(
            name="lo", wcet=5.0, period=20.0, priority=1, core=0,
            preemptible=False,
        )
        result = run([hi, lo], duration=20.0)
        # lo starts at 0 and cannot be preempted: hi (released at 1)
        # waits until 5.
        assert result.jobs_of("lo")[0].completion == pytest.approx(5.0)
        assert result.jobs_of("hi")[0].start == pytest.approx(5.0)

    def test_preemptible_version_for_contrast(self):
        hi = SimTask(
            name="hi", wcet=2.0, period=10.0, priority=0, core=0, offset=1.0
        )
        lo = SimTask(name="lo", wcet=5.0, period=20.0, priority=1, core=0)
        result = run([hi, lo], duration=20.0)
        assert result.jobs_of("hi")[0].start == pytest.approx(1.0)
        assert result.jobs_of("lo")[0].completion == pytest.approx(7.0)


class TestPrecedence:
    def test_dependent_waits_for_fresh_predecessor(self):
        pred = SimTask(
            name="pred", wcet=2.0, period=10.0, priority=0, core=0
        )
        dep = SimTask(
            name="dep", wcet=1.0, period=10.0, priority=1, core=0,
            predecessors=("pred",),
        )
        result = run([pred, dep], duration=30.0)
        first = result.jobs_of("dep")[0]
        # dep released at 0 may only start once pred completed (t=2).
        assert first.start >= 2.0 - 1e-9

    def test_lower_priority_can_run_during_block(self):
        pred = SimTask(
            name="pred", wcet=2.0, period=20.0, priority=0, core=0,
            offset=5.0,
        )
        dep = SimTask(
            name="dep", wcet=1.0, period=20.0, priority=1, core=0,
            predecessors=("pred",),
        )
        other = SimTask(
            name="other", wcet=3.0, period=20.0, priority=2, core=0
        )
        result = run([pred, dep, other], duration=20.0)
        # dep blocked until pred's first completion at t=7; "other"
        # (lower priority) uses the idle window first.
        assert result.jobs_of("other")[0].start == pytest.approx(0.0)
        assert result.jobs_of("dep")[0].start >= 7.0 - 1e-9

    def test_unknown_predecessor_rejected(self):
        dep = SimTask(
            name="dep", wcet=1.0, period=10.0, priority=0, core=0,
            predecessors=("ghost",),
        )
        with pytest.raises(ValidationError):
            Simulator([dep], num_cores=1, duration=10.0)


class TestMigration:
    def test_migrating_task_uses_idle_core(self):
        bound = SimTask(name="rt", wcet=8.0, period=10.0, priority=0, core=0)
        roam = SimTask(
            name="roam", wcet=4.0, period=20.0, priority=1, core=None
        )
        result = run([bound, roam], cores=2, duration=20.0)
        first = result.jobs_of("roam")[0]
        # Core 0 busy until 8; core 1 idle → roam runs there at once.
        assert first.start == pytest.approx(0.0)
        assert first.core == 1

    def test_migrating_task_resumes_after_preemption(self):
        # One core only: RT preempts the migrating job, which resumes.
        bound = SimTask(
            name="rt", wcet=2.0, period=10.0, priority=0, core=0, offset=1.0
        )
        roam = SimTask(
            name="roam", wcet=4.0, period=20.0, priority=1, core=None
        )
        # roam runs 0–1, rt 1–3, roam resumes 3–6 → completes at 6.
        result = run([bound, roam], cores=1, duration=20.0)
        first = result.jobs_of("roam")[0]
        assert first.completion == pytest.approx(6.0)

    def test_single_job_never_runs_twice_at_once(self):
        # Conservation: total slice time equals WCET per completed job.
        from repro.sim.trace import busy_time_by_task

        bound0 = SimTask(name="r0", wcet=5.0, period=10.0, priority=0, core=0)
        bound1 = SimTask(name="r1", wcet=5.0, period=10.0, priority=1, core=1)
        roam = SimTask(
            name="roam", wcet=6.0, period=30.0, priority=2, core=None
        )
        result = run(
            [bound0, bound1, roam], cores=2, duration=30.0,
            collect_slices=True,
        )
        totals = busy_time_by_task(result.slices)
        completed = len(result.completed_jobs_of("roam"))
        assert totals["roam"] == pytest.approx(6.0 * completed, abs=1e-6)
        # No overlapping slices of roam across cores.
        roam_slices = sorted(
            (s for s in result.slices if s.task == "roam"),
            key=lambda s: s.start,
        )
        for earlier, later in zip(roam_slices, roam_slices[1:]):
            assert earlier.end <= later.start + 1e-9


class TestJitter:
    def test_sporadic_gaps_at_least_period(self, rng):
        task = SimTask(
            name="t", wcet=1.0, period=10.0, priority=0, core=0,
            release_jitter=0.5,
        )
        result = Simulator(
            [task], num_cores=1, duration=300.0, rng=rng
        ).run()
        releases = [j.release for j in result.jobs_of("t")]
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert all(gap >= 10.0 - 1e-9 for gap in gaps)
        assert all(gap <= 15.0 + 1e-9 for gap in gaps)
        assert any(gap > 10.0 + 1e-6 for gap in gaps)

    def test_deterministic_without_jitter(self):
        task = SimTask(name="t", wcet=1.0, period=10.0, priority=0, core=0)
        a = Simulator([task], num_cores=1, duration=100.0, rng=1).run()
        b = Simulator([task], num_cores=1, duration=100.0, rng=2).run()
        assert [j.release for j in a.jobs] == [j.release for j in b.jobs]


class TestValidation:
    def test_duplicate_names_rejected(self):
        tasks = [
            SimTask(name="t", wcet=1.0, period=10.0, priority=0, core=0),
            SimTask(name="t", wcet=1.0, period=10.0, priority=1, core=0),
        ]
        with pytest.raises(ValidationError):
            Simulator(tasks, num_cores=1, duration=10.0)

    def test_duplicate_priorities_rejected(self):
        tasks = [
            SimTask(name="a", wcet=1.0, period=10.0, priority=0, core=0),
            SimTask(name="b", wcet=1.0, period=10.0, priority=0, core=0),
        ]
        with pytest.raises(ValidationError):
            Simulator(tasks, num_cores=1, duration=10.0)

    # nan and inf horizons are rejected too: nan used to simulate 0 jobs,
    # and inf would run the loop up to its event budget.
    @pytest.mark.parametrize("duration", [0.0, math.nan, math.inf])
    def test_bad_duration_rejected(self, duration):
        task = SimTask(name="t", wcet=1.0, period=10.0, priority=0, core=0)
        with pytest.raises(ValidationError, match="duration"):
            Simulator([task], num_cores=1, duration=duration)

    @pytest.mark.parametrize(
        "bad",
        [
            {"wcet": 0.0},
            {"release_jitter": -0.1},
            {"kind": "alien"},
            {"wcet": math.inf},
            {"wcet": math.nan},
            {"period": math.nan},
            {"period": math.inf},
            {"deadline": 0.0},
            {"deadline": -5.0},
            {"deadline": math.nan},
            {"deadline": math.inf},
            {"offset": math.inf},
            {"offset": math.nan},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_task_parameters_rejected(self, bad):
        fields = {
            "name": "t", "wcet": 1.0, "period": 10.0, "priority": 0,
            "core": 0, **bad,
        }
        with pytest.raises(ValidationError, match="sim task 't'"):
            SimTask(**fields)


class TestConservationLaws:
    def test_busy_time_equals_slice_time(self):
        tasks = [
            SimTask(name="a", wcet=2.0, period=7.0, priority=0, core=0),
            SimTask(name="b", wcet=3.0, period=13.0, priority=1, core=0),
        ]
        result = run(tasks, duration=91.0, collect_slices=True)
        slice_total = sum(s.length for s in result.slices)
        assert slice_total == pytest.approx(result.busy_time[0], abs=1e-6)

    def test_completed_jobs_receive_exactly_wcet(self):
        from repro.sim.trace import busy_time_by_task

        tasks = [
            SimTask(name="a", wcet=2.0, period=7.0, priority=0, core=0),
            SimTask(name="b", wcet=3.0, period=13.0, priority=1, core=0),
        ]
        result = run(tasks, duration=91.0, collect_slices=True)
        totals = busy_time_by_task(result.slices)
        for name, wcet in (("a", 2.0), ("b", 3.0)):
            finished = len(result.completed_jobs_of(name))
            unfinished = [
                j for j in result.jobs_of(name) if not j.finished
            ]
            partial = sum(
                0.0 if j.start is None else 1.0 for j in unfinished
            )
            assert totals[name] >= wcet * finished - 1e-6
            if partial == 0:
                assert totals[name] == pytest.approx(
                    wcet * finished, abs=1e-6
                )
