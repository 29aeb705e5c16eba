"""The per-core kernel behind ``Simulator.run`` against the reference loop.

The kernel is the reference event loop restricted to one core, so on
each core's tasks alone the two must agree bit for bit.  On the whole
platform the reference also splits a running job's remaining time at
other cores' events, so there they agree on every job and miss, and on
times within 1e-9 relative.  Inputs outside the paper's model must
still take the reference loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.errors import SimulationError
from repro.sim.engine import SimResult, SimTask, Simulator

_times = st.one_of(
    st.floats(min_value=2.0, max_value=50.0),
    # whole numbers make releases and completions on different tasks
    # and cores coincide exactly
    st.integers(min_value=2, max_value=20).map(float),
)


@st.composite
def partitioned_systems(draw):
    """Bound, preemptive, periodic tasks on 1–3 cores: offsets,
    deadlines shorter or longer than the period, overload (misses and
    jobs unfinished at the horizon), priorities interleaved across
    cores."""
    cores = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=7))
    priorities = draw(st.permutations(range(count)))
    tasks = []
    for i in range(count):
        period = draw(_times, label=f"T{i}")
        utilization = draw(st.floats(min_value=0.05, max_value=0.7))
        offset = draw(
            st.one_of(st.just(0.0), st.floats(0.0, 30.0), _times),
            label=f"O{i}",
        )
        stretch = draw(
            st.one_of(st.none(), st.floats(0.3, 1.5)), label=f"D{i}"
        )
        deadline = None if stretch is None else stretch * period
        tasks.append(
            SimTask(
                name=f"t{i}",
                wcet=period * utilization,
                period=period,
                deadline=deadline,
                priority=priorities[i],
                core=draw(st.integers(0, cores - 1), label=f"c{i}"),
                offset=offset,
            )
        )
    duration = draw(
        st.one_of(st.floats(20.0, 300.0), _times.map(lambda t: t * 10))
    )
    return tasks, cores, duration


def columns(track):
    return tuple(list(column) for column in track)


class TestAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(system=partitioned_systems())
    def test_each_core_is_bit_identical_to_the_reference_alone(self, system):
        tasks, cores, duration = system
        kernel = Simulator(tasks, num_cores=cores, duration=duration).run()
        for core in range(cores):
            alone = [task for task in tasks if task.core == core]
            names = {task.name for task in alone}
            reference = Simulator(
                alone, num_cores=cores, duration=duration
            ).run_reference()
            ours = [job for job in kernel.jobs if job.task in names]
            assert ours == reference.jobs
            assert [
                miss for miss in kernel.misses if miss.task in names
            ] == reference.misses
            assert kernel.busy_time[core] == reference.busy_time[core]
            for name in names:
                assert columns(kernel.track(name)) == columns(
                    reference.track(name)
                )

    @settings(max_examples=100, deadline=None)
    @given(system=partitioned_systems())
    def test_whole_system_agrees_with_the_reference(self, system):
        tasks, cores, duration = system
        kernel = Simulator(tasks, num_cores=cores, duration=duration).run()
        reference = Simulator(
            tasks, num_cores=cores, duration=duration
        ).run_reference()
        assert [(j.task, j.release) for j in kernel.jobs] == [
            (j.task, j.release) for j in reference.jobs
        ]

        def order(miss):
            return (miss.task, miss.release)

        assert sorted(kernel.misses, key=order) == sorted(
            reference.misses, key=order
        )
        for ours, theirs in zip(kernel.jobs, reference.jobs):
            assert ours.deadline == theirs.deadline
            assert ours.core == theirs.core
            for mine, other in (
                (ours.start, theirs.start),
                (ours.completion, theirs.completion),
            ):
                assert (mine is None) == (other is None)
                if mine is not None:
                    assert mine == pytest.approx(other, rel=1e-9)
        assert kernel.busy_time == pytest.approx(reference.busy_time, rel=1e-9)

    @pytest.mark.parametrize(
        ("budget", "raises"), [(500, True), (5000, False)]
    )
    def test_event_budget_is_the_reference_budget(
        self, monkeypatch, budget, raises
    ):
        # ~2000 events on core 1; core 0 stays far below any budget
        tasks = [
            SimTask(name="slow", wcet=1.0, period=100.0, priority=0, core=0),
            SimTask(name="fast", wcet=0.5, period=1.0, priority=1, core=1),
        ]
        monkeypatch.setattr(engine, "_MAX_EVENTS", budget)
        for run in (
            Simulator(tasks, num_cores=2, duration=1000.0).run,
            Simulator(tasks[1:], num_cores=2, duration=1000.0).run_reference,
        ):
            if raises:
                with pytest.raises(SimulationError, match="event budget"):
                    run()
            else:
                run()


def _refuse(*args, **kwargs):
    raise AssertionError("the per-core kernel was taken")


def _pair(**change):
    second = {
        "name": "b", "wcet": 4.0, "period": 15.0, "priority": 1, "core": 0,
        **change,
    }
    return [
        SimTask(name="a", wcet=3.0, period=10.0, priority=0, core=0),
        SimTask(**second),
    ]


class TestDispatch:
    @pytest.mark.parametrize(
        ("tasks", "slices"),
        [
            (_pair(core=None), False),
            (_pair(predecessors=("a",)), False),
            (_pair(preemptible=False), False),
            (_pair(release_jitter=0.2), False),
            (_pair(execution_factor=0.5), False),
            (_pair(), True),
        ],
        ids=[
            "migrating", "precedence", "non-preemptive", "jitter",
            "execution-factor", "collect-slices",
        ],
    )
    def test_ineligible_input_runs_the_reference(
        self, monkeypatch, tasks, slices
    ):
        monkeypatch.setattr(Simulator, "_run_kernel", _refuse)
        result = Simulator(
            tasks, num_cores=2, duration=120.0, rng=3, collect_slices=slices
        ).run()
        expected = Simulator(
            tasks, num_cores=2, duration=120.0, rng=3, collect_slices=slices
        ).run_reference()
        assert result == expected

    def test_eligible_input_runs_the_kernel(self, monkeypatch):
        monkeypatch.setattr(Simulator, "_run_kernel", _refuse)
        with pytest.raises(AssertionError, match="kernel"):
            Simulator(_pair(), num_cores=2, duration=120.0).run()


class TestLazyJobs:
    def test_len_of_jobs_builds_no_records(self, monkeypatch):
        # overloaded, so some jobs are still unfinished at the horizon
        tasks = [
            SimTask(name="a", wcet=3.0, period=4.0, priority=0, core=0),
            SimTask(name="b", wcet=3.0, period=6.0, priority=1, core=0),
            SimTask(name="c", wcet=1.0, period=5.0, priority=2, core=1),
        ]
        result = Simulator(tasks, num_cores=2, duration=61.0).run()
        monkeypatch.setattr(engine, "JobRecord", _refuse)
        count = len(result.jobs)
        monkeypatch.undo()
        reference = Simulator(
            tasks, num_cores=2, duration=61.0
        ).run_reference()
        assert any(job.completion is None for job in reference.jobs)
        assert count == len(list(result.jobs)) == len(reference.jobs)
        assert result.jobs == reference.jobs

    def test_track_of_hand_built_records(self):
        result = Simulator(_pair(), num_cores=1, duration=40.0).run()
        built = SimResult(
            duration=40.0, jobs=list(result.jobs), misses=[], busy_time={}
        )
        for name in ("a", "b", "ghost"):
            assert columns(built.track(name)) == columns(result.track(name))
        assert columns(built.track("ghost")) == ([], [], [])
