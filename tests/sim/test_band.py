"""The security band (``repro.sim.band``) against the per-core kernel.

``simulate_security`` runs only the security tasks, in the idle time
the real-time band leaves, so it must reproduce the kernel's security
schedule: the same finished ``(task, release)`` jobs, unfinished jobs
and deadline misses, with releases, starts and completions bit for bit.
Integer-valued inputs make releases tie busy-period ends exactly; float
inputs make the kernel's busy-period ends round differently from a sum
of WCETs.  The constructed cases put security events within ``_EPS`` of
a busy-period boundary, where the kernel's release window decides, and
pin two small systems whose busy-period ends the kernel rounds its own
way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.errors import SimulationError, ValidationError
from repro.sim.attacks import Attack
from repro.sim.band import _period_ends, idle_band, simulate_security
from repro.sim.detection import DetectionIndex
from repro.sim.engine import SimTask, Simulator

_whole = st.integers(min_value=1, max_value=30).map(float)
_times = st.one_of(st.floats(min_value=2.0, max_value=50.0), _whole)


@st.composite
def banded_systems(draw, whole=False):
    """Real-time and security tasks bound to 1–3 cores, every security
    task below every real-time task: offsets, overload (misses and jobs
    unfinished at the horizon) and cores without real-time tasks.
    ``whole`` draws every period, WCET and offset as a whole number."""
    times = _whole if whole else _times
    cores = draw(st.integers(min_value=1, max_value=3))
    rt_count = draw(st.integers(min_value=0, max_value=5))
    sec_count = draw(st.integers(min_value=1, max_value=4))
    priorities = draw(st.permutations(range(rt_count))) + draw(
        st.permutations(range(rt_count, rt_count + sec_count))
    )
    tasks = []
    for i in range(rt_count + sec_count):
        kind = "rt" if i < rt_count else "security"
        period = draw(times, label=f"T{i}")
        whole_wcet = st.integers(1, max(int(period) // 2, 1)).map(float)
        wcet = draw(
            whole_wcet if whole else st.one_of(
                st.floats(0.05, 0.7).map(lambda u, p=period: u * p),
                whole_wcet,
            ),
            label=f"C{i}",
        )
        tasks.append(
            SimTask(
                name=f"{kind[0]}{i}",
                wcet=wcet,
                period=period,
                priority=priorities[i],
                core=draw(st.integers(0, cores - 1), label=f"c{i}"),
                kind=kind,
                offset=draw(st.one_of(st.just(0.0), times), label=f"O{i}"),
            )
        )
    duration = draw(st.integers(min_value=20, max_value=400).map(float))
    return tasks, cores, duration


def assert_same_security_schedule(tasks, cores, duration):
    """The band's security schedule is the kernel's bit for bit: the
    same releases, starts and completions, the same unfinished jobs and
    the same misses."""
    kernel = Simulator(tasks, num_cores=cores, duration=duration).run()
    band = simulate_security(tasks, cores, duration)
    security = [task.name for task in tasks if task.kind == "security"]
    for name in security:
        ours, theirs = band.track(name), kernel.track(name)
        assert list(ours.release) == list(theirs.release)
        assert list(ours.start) == list(theirs.start)
        assert list(ours.completion) == list(theirs.completion)

    def live(jobs):
        return sorted(
            (job.task, job.release, job.start is None)
            for job in jobs
            if job.task in security and job.completion is None
        )

    assert live(band.jobs) == live(kernel.jobs)
    assert len(band.jobs) == sum(
        1 for job in kernel.jobs if job.task in security
    )

    def missed(misses):
        return sorted(
            (m.task, m.release, m.deadline)
            for m in misses
            if m.task in security
        )

    assert missed(band.misses) == missed(kernel.misses)
    return kernel, band


class TestAgainstTheKernel:
    @settings(max_examples=150, deadline=None)
    @given(system=banded_systems(whole=True))
    def test_integer_inputs_tie_busy_period_ends(self, system):
        assert_same_security_schedule(*system)

    @settings(max_examples=150, deadline=None)
    @given(system=banded_systems())
    def test_float_inputs(self, system):
        assert_same_security_schedule(*system)

    def test_busy_time_is_the_security_share(self):
        tasks = [
            SimTask("r", wcet=3.0, period=10.0, priority=0, core=0),
            SimTask("s", wcet=2.0, period=20.0, priority=1, core=0,
                    kind="security"),
            SimTask("t", wcet=4.0, period=25.0, priority=2, core=1,
                    kind="security"),
        ]
        band = simulate_security(tasks, 3, 100.0)
        assert band.busy_time == {0: 10.0, 1: 16.0, 2: 0.0}
        assert {job.task for job in band.jobs} == {"s", "t"}


def _busy_at_ten(security_offset, security_wcet=2.0):
    """A real-time job busy over [10, 15) and one security task."""
    return [
        SimTask("rt", wcet=5.0, period=100.0, priority=0, core=0, offset=10.0),
        SimTask("mon", wcet=security_wcet, period=50.0, priority=1, core=0,
                kind="security", offset=security_offset, surface="fs"),
    ]


class TestBusyPeriodBoundaries:
    @pytest.mark.parametrize("before", [0.0, 5e-10, 9e-10])
    def test_release_at_or_just_before_a_busy_start_waits_for_its_end(
        self, before
    ):
        # The kernel releases the real-time job inside its _EPS window at
        # the security release, and the real-time job takes the core.
        tasks = _busy_at_ten(10.0 - before)
        kernel, band = assert_same_security_schedule(tasks, 1, 200.0)
        assert band.track("mon").start[0] == pytest.approx(15.0, abs=2e-9)
        # Under start-after an attack during the busy period is caught
        # by that job, not by the next one 50 time units later.
        attack = Attack(time=12.0, surface="fs")
        for result in (kernel, band):
            index = DetectionIndex(result, "start-after")
            assert index.detection_time(attack, {"fs": ["mon"]}) == (
                pytest.approx(5.0, abs=2e-9)
            )

    def test_release_well_before_a_busy_start_runs_until_preempted(self):
        _, band = assert_same_security_schedule(_busy_at_ten(9.0), 1, 200.0)
        assert band.track("mon").start[0] == 9.0
        assert band.track("mon").completion[0] == 16.0

    @pytest.mark.parametrize("left", [0.0, 5e-10])
    def test_job_left_with_at_most_eps_completes_at_the_busy_start(
        self, left
    ):
        _, band = assert_same_security_schedule(
            _busy_at_ten(0.0, security_wcet=10.0 + left), 1, 200.0
        )
        assert band.track("mon").completion[0] == 10.0

    def test_real_time_gap_below_eps_is_one_busy_period(self):
        tasks = [
            SimTask("a", wcet=5.0, period=100.0, priority=0, core=0,
                    offset=10.0),
            SimTask("b", wcet=5.0, period=100.0, priority=1, core=0,
                    offset=15.0 + 5e-10),
            SimTask("mon", wcet=3.0, period=100.0, priority=2, core=0,
                    kind="security", offset=12.0),
        ]
        _, band = assert_same_security_schedule(tasks, 1, 200.0)
        assert band.track("mon").start[0] == pytest.approx(20.0)

    def test_real_time_job_shorter_than_eps_ends_at_the_nudge(self):
        # The kernel moves a completion due within _EPS to now + _EPS, so
        # a lone 5e-10 job does not end at its release plus its WCET.
        tasks = [
            SimTask("r", wcet=5e-10, period=3.7, priority=0, core=0,
                    offset=0.3),
            SimTask("mon", wcet=0.5, period=2.3, priority=1, core=0,
                    kind="security", offset=0.1),
        ]
        assert_same_security_schedule(tasks, 1, 20.0)
        assert not idle_band(((0.3, 3.7, 5e-10),), 20.0).settled.any()

    def test_idle_band_busy_periods(self):
        band = idle_band(((0.0, 10.0, 3.0), (5.0, 20.0, 2.0)), 40.0)
        assert band.release.tolist() == [0.0, 5.0, 10.0, 20.0, 25.0, 30.0]
        assert band.rank.tolist() == [0, 1, 0, 0, 1, 0]
        assert band.start.tolist() == [0.0, 5.0, 10.0, 20.0, 25.0, 30.0]
        assert band.end.tolist() == [3.0, 7.0, 13.0, 23.0, 27.0, 33.0]
        assert band.first.tolist() == [0, 1, 2, 3, 4, 5]
        assert band.settled.all()

    def test_only_provably_exact_sums_are_settled(self):
        # Whole numbers: every kernel operation is exact, so every
        # period's sum of WCETs is the kernel's end.
        whole = idle_band(((0.0, 4.0, 1.0), (0.0, 6.0, 2.0)), 100.0)
        assert whole.settled.all()
        assert max(np.diff(whole.first)) > 1
        # Tenths do not sit on a binary grid: only one-job periods,
        # whose end is one addition, are settled.
        tenths = idle_band(((0.0, 0.4, 0.1), (0.3, 0.6, 0.2)), 10.0)
        jobs = np.diff(np.append(tenths.first, len(tenths.release)))
        assert (tenths.settled == (jobs == 1)).all()
        assert not tenths.settled.all()
        # clear[j] bounds every period's end up to j, plus _EPS.
        assert (tenths.clear >= tenths.end + 1e-9).all()
        assert (np.diff(tenths.clear) >= 0).all()

    @pytest.mark.parametrize(
        ("rt", "monitor", "start", "completion"),
        [
            # A monitor released an ulp before the sum of the busy
            # period's WCETs: the kernel ends the period at the release,
            # 21.9, where the sum says 21.900000000000002.
            (
                ((0.0, 9.9, 2.1), (4.2, 6.6, 1.1)), (2.7, 19.2, 1.2),
                [2.7, 21.9, 41.7],
                [3.9000000000000004, 23.099999999999998, 42.900000000000006],
            ),
            # Real-time releases inside a busy period split the running
            # job's remaining time: the monitor's first job completes at
            # 6.5, where a sum of the period's WCETs gives
            # 6.500000000000001.
            (
                ((4.7, 8.3, 1.6), (1.6, 5.7, 1.1), (1.0, 11.1, 1.2)),
                (0.7, 26.2, 1.9),
                [0.7, 26.9, 54.00000000000001],
                [6.5, 28.799999999999997, 59.80000000000001],
            ),
        ],
    )
    def test_busy_period_ends_round_as_the_kernel_rounds_them(
        self, rt, monitor, start, completion
    ):
        tasks = [
            SimTask(f"r{k}", wcet=c, period=t, priority=k, core=0, offset=o)
            for k, (o, t, c) in enumerate(rt)
        ]
        offset, period, wcet = monitor
        tasks.append(
            SimTask("mon", wcet=wcet, period=period, priority=len(rt),
                    core=0, kind="security", offset=offset)
        )
        _, band = assert_same_security_schedule(tasks, 1, 60.0)
        assert list(band.track("mon").start) == start
        assert list(band.track("mon").completion) == completion

    @pytest.mark.parametrize(
        ("rt", "longest"),
        [
            # a backlog busy for over a hundred jobs, then one-job
            # periods
            (((0.0, 0.7, 0.6965), (0.0, 1000.0, 0.5)), 100),
            # three-job periods only
            (((0.0, 10.0, 0.1), (0.0, 10.0, 0.2), (0.0, 10.0, 0.3)), 2),
        ],
    )
    def test_busy_period_ends_add_wcets_in_the_kernel_order(
        self, rt, longest
    ):
        # WCETs whose sums round: each period's end is its start plus
        # its WCETs added one at a time in release order, ties in
        # priority order, as back-to-back kernel completions add them.
        band = idle_band(rt, 150.0)
        assert (band.start.tolist(), band.end.tolist()) == (
            _sequential_periods(rt, 150.0)
        )
        assert max(np.diff(band.first.tolist())) > longest

    @settings(max_examples=100, deadline=None)
    @given(
        rt=st.one_of(
            st.lists(
                st.tuples(
                    st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
                    st.floats(0.5, 20.0),
                    st.floats(0.01, 0.45),
                ).map(lambda task: (task[0], task[1], task[1] * task[2])),
                min_size=1,
                max_size=4,
            ),
            # whole numbers: the closed form is exact and taken as is
            st.lists(
                st.tuples(
                    st.integers(0, 20), st.integers(2, 20), st.integers(1, 9)
                ).map(lambda task: (float(task[0]), float(task[1]),
                                    float(min(task[2], task[1] // 2)))),
                min_size=1,
                max_size=4,
            ),
        ),
        horizon=st.floats(10.0, 3000.0),
    )
    def test_busy_periods_are_the_sequential_recursion(self, rt, horizon):
        band = idle_band(tuple(rt), horizon)
        assert (band.start.tolist(), band.end.tolist()) == (
            _sequential_periods(rt, horizon)
        )

    def test_a_gap_under_the_restarted_sums_splits_a_period(self):
        # Jobs released at 0, 1 and 5 with WCET 1, taken as one period:
        # the third comes after the first two are done, so it starts a
        # period of its own.
        end, late = _period_ends(
            np.array([0.0, 1.0, 5.0]), np.ones(3), np.array([0])
        )
        assert end.tolist() == [3.0]
        assert late.tolist() == [2]


def _sequential_periods(rt, horizon):
    """Busy-period starts and ends by the Lindley recursion, one job at a
    time: a job released more than 1e-9 after the running end starts a
    period, and each job adds its WCET to the running end."""
    releases = sorted(
        (release, rank, task[2])
        for rank, task in enumerate(rt)
        for release in np.cumsum(
            [task[0]] + [task[1]] * int(horizon / task[1] + 2)
        ).tolist()
        if release < horizon
    )
    starts, ends = [], []
    for release, _, wcet in releases:
        if not ends or release > ends[-1] + 1e-9:
            starts.append(release)
            ends.append(release)
        ends[-1] += wcet
    return starts, ends


class TestContract:
    def test_len_of_jobs_builds_no_records(self, monkeypatch):
        result = simulate_security(_busy_at_ten(0.0), 1, 1000.0)
        monkeypatch.setattr(
            engine, "JobRecord", lambda *a: pytest.fail("records built")
        )
        assert len(result.jobs) == 20
        assert len(result.track("mon").completion) == 20

    @pytest.mark.parametrize(
        "change",
        [
            {"preemptible": False},
            {"release_jitter": 0.1},
            {"execution_factor": 0.5},
            {"predecessors": ("rt",)},
            {"core": None},
            {"priority": -1},
        ],
    )
    def test_input_outside_the_band_model_is_rejected(self, change):
        rt, mon = _busy_at_ten(0.0)
        fields = {
            "name": "mon", "wcet": 2.0, "period": 50.0, "priority": 1,
            "core": 0, "kind": "security", **change,
        }
        with pytest.raises(ValidationError):
            simulate_security([rt, SimTask(**fields)], 1, 100.0)

    @pytest.mark.parametrize(
        ("rt_period", "security_period", "budget"),
        [
            (1.0, 100.0, 500),  # more real-time releases than the budget
            (100.0, 1.0, 500),  # more security releases than the budget
            (2.0, 2.0, 800),  # neither alone, but both together
            (100.0, 1.0, 1500),  # fewer releases, but more loop steps
        ],
    )
    def test_event_budget(
        self, monkeypatch, rt_period, security_period, budget
    ):
        # ~1000 releases at period 1, ~500 at period 2, 10 at period 100
        tasks = [
            SimTask("rt", wcet=0.5, period=rt_period, priority=0, core=0),
            SimTask("mon", wcet=0.1, period=security_period, priority=1,
                    core=0, kind="security"),
        ]
        monkeypatch.setattr(engine, "_MAX_EVENTS", budget)
        with pytest.raises(SimulationError, match="event budget"):
            simulate_security(tasks, 1, 1000.0)
        monkeypatch.setattr(engine, "_MAX_EVENTS", 5000)
        simulate_security(tasks, 1, 1000.0)

    def test_security_above_real_time_is_rejected(self):
        tasks = [
            SimTask("rt", wcet=1.0, period=10.0, priority=1, core=0),
            SimTask("mon", wcet=1.0, period=10.0, priority=0, core=0,
                    kind="security"),
        ]
        with pytest.raises(ValidationError, match="real-time band"):
            simulate_security(tasks, 1, 100.0)

    def test_no_security_task_simulates_nothing(self):
        tasks = [SimTask("rt", wcet=1.0, period=10.0, priority=0, core=0)]
        result = simulate_security(tasks, 2, 100.0)
        assert len(result.jobs) == 0 and not result.misses
        assert result.busy_time == {0: 0.0, 1: 0.0}
        assert math.isinf(
            DetectionIndex(result).earliest_completion("rt", 0.0)
        )
