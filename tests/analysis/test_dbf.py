"""Unit tests for the demand bound function and the Eq. (1) test."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dbf import (
    _necessary_horizon,
    dbf_check_points,
    demand_bound,
    necessary_condition,
    total_demand,
)
from repro.model.platform import Platform
from repro.model.task import RealTimeTask


def rt(wcet: float, period: float, deadline: float | None = None,
       name: str = "t") -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period, deadline=deadline)


class TestDemandBound:
    def test_zero_before_first_deadline(self):
        task = rt(2.0, 10.0)
        assert demand_bound(task, 9.999) == 0.0

    def test_one_job_at_first_deadline(self):
        task = rt(2.0, 10.0)
        assert demand_bound(task, 10.0) == 2.0

    def test_steps_at_each_period(self):
        task = rt(2.0, 10.0)
        assert demand_bound(task, 19.0) == 2.0
        assert demand_bound(task, 20.0) == 4.0
        assert demand_bound(task, 35.0) == 6.0

    def test_constrained_deadline_shifts_steps(self):
        task = rt(2.0, 10.0, deadline=5.0)
        assert demand_bound(task, 4.9) == 0.0
        assert demand_bound(task, 5.0) == 2.0
        assert demand_bound(task, 15.0) == 4.0

    def test_zero_horizon(self):
        assert demand_bound(rt(2.0, 10.0), 0.0) == 0.0
        assert demand_bound(rt(2.0, 10.0), -5.0) == 0.0

    def test_total_demand_sums(self):
        tasks = [rt(2.0, 10.0, name="a"), rt(5.0, 20.0, name="b")]
        assert total_demand(tasks, 20.0) == 2 * 2.0 + 5.0


class TestCheckPoints:
    def test_points_are_deadlines(self):
        task = rt(1.0, 10.0, deadline=7.0)
        points = list(dbf_check_points([task], 40.0))
        assert points == [7.0, 17.0, 27.0, 37.0]

    def test_points_merged_and_sorted(self):
        tasks = [rt(1.0, 10.0, name="a"), rt(1.0, 15.0, name="b")]
        points = list(dbf_check_points(tasks, 30.0))
        assert points == [10.0, 15.0, 20.0, 30.0]

    def test_empty_horizon(self):
        assert list(dbf_check_points([rt(1.0, 10.0)], 5.0)) == []


class TestNecessaryCondition:
    def test_implicit_deadlines_reduce_to_utilization(self):
        # U = 1.5 on 2 cores: passes the necessary condition.
        tasks = [
            rt(5.0, 10.0, name="a"),
            rt(5.0, 10.0, name="b"),
            rt(5.0, 10.0, name="c"),
        ]
        assert necessary_condition(tasks, Platform(2))

    def test_over_utilized_fails(self):
        tasks = [
            rt(8.0, 10.0, name="a"),
            rt(8.0, 10.0, name="b"),
            rt(8.0, 10.0, name="c"),
        ]
        assert not necessary_condition(tasks, Platform(2))

    def test_boundary_utilization_passes(self):
        tasks = [rt(10.0, 10.0, name="a"), rt(10.0, 10.0, name="b")]
        assert necessary_condition(tasks, 2)

    def test_accepts_core_count_int(self):
        assert necessary_condition([rt(1.0, 10.0)], 1)

    def test_constrained_deadline_demand_failure(self):
        # Two tasks, each needing 6 units within a deadline of 6 on one
        # core: DBF(6) = 12 > 6 even though U = 0.6 each (sum 1.2 > 1
        # would fail anyway); use a subtler case with U < capacity.
        tasks = [
            rt(6.0, 20.0, deadline=6.0, name="a"),
            rt(6.0, 20.0, deadline=6.0, name="b"),
        ]
        # U = 0.6 total ≤ 1 core, but 12 units are due by t = 6.
        assert not necessary_condition(tasks, 1)

    def test_constrained_deadline_demand_pass(self):
        tasks = [
            rt(2.0, 20.0, deadline=6.0, name="a"),
            rt(2.0, 20.0, deadline=6.0, name="b"),
        ]
        assert necessary_condition(tasks, 1)

    def test_empty_taskset_passes(self):
        assert necessary_condition([], Platform(1))

    def test_saturated_utilization_checks_a_whole_hyperperiod(self):
        # U = 1 + 0.6 + 0.4 = 2 on 2 cores.  Demand fits up to the
        # largest deadline (9), but DBF(10) = 10 + 6 + 6 > 20.
        tasks = [
            rt(5.0, 5.0, name="a"),
            rt(6.0, 10.0, deadline=8.0, name="b"),
            rt(6.0, 15.0, deadline=9.0, name="c"),
        ]
        assert not necessary_condition(tasks, 2)

    def test_utilization_an_ulp_below_capacity_stops_at_the_hyperperiod(self):
        # U = 2/3 + 1 + 1/3 sums to one ulp below 2, which puts the
        # linear horizon near 1e16; the hyperperiod, 12, bounds the scan.
        tasks = [
            rt(2.0, 3.0, deadline=2.0, name="a"),
            rt(3.0, 3.0, name="b"),
            rt(4.0, 12.0, deadline=11.0, name="c"),
        ]
        assert sum(task.utilization for task in tasks) < 2.0
        assert necessary_condition(tasks, 2)

    def test_near_saturated_scan_is_capped(self):
        # U one ulp below 1 with periods 1.1 and 1.3: the linear bound
        # is ~1e15 and the exact hyperperiod of the two floats larger
        # still, so only the check-point cap keeps the scan finite.
        share = 1.0 - 0.7 / 1.1
        wcet = math.nextafter(math.nextafter(1.3 * share, 0.0), 0.0)
        tasks = [rt(0.7, 1.1, deadline=0.9, name="a"), rt(wcet, 1.3, name="b")]
        assert sum(task.utilization for task in tasks) < 1.0
        assert _necessary_horizon(tasks, 1.0) < 1e5
        assert not necessary_condition(tasks, 1)


# ------------------------------------------------------------ properties
#
# Integer task parameters keep every absolute deadline, DBF value and
# comparison below exact in floating point, so the brute-force
# references can be compared with ``==``.


@st.composite
def integer_tasks(draw, periods=st.integers(min_value=1, max_value=40)):
    """1-5 tasks with integer ``C ≤ D ≤ T``."""
    tasks = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        period = draw(periods)
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(rt(wcet, period, deadline=deadline, name=f"t{i}"))
    return tasks


@settings(max_examples=100, deadline=None)
@given(
    tasks=integer_tasks(),
    t=st.integers(min_value=0, max_value=200),
    half=st.booleans(),
)
def test_demand_bound_counts_the_jobs_due_in_the_window(tasks, t, half):
    """DBF(τ, t) is C times the number of jobs released at 0, T, 2T, …
    whose deadline ``k·T + D`` is at most ``t``."""
    horizon = t + 0.5 if half else float(t)
    for task in tasks:
        due = sum(
            1 for k in range(t + 1) if k * task.period + task.deadline <= horizon
        )
        assert demand_bound(task, horizon) == due * task.wcet


@settings(max_examples=100, deadline=None)
@given(tasks=integer_tasks(), horizon=st.integers(min_value=0, max_value=200))
def test_check_points_are_exactly_the_demand_steps(tasks, horizon):
    """The check points up to ``horizon`` are, in increasing order, the
    integers where the total demand steps up — and nothing else."""
    steps = [
        t
        for t in range(1, horizon + 1)
        if total_demand(tasks, t) > total_demand(tasks, t - 0.5)
    ]
    assert list(dbf_check_points(tasks, float(horizon))) == steps


@settings(max_examples=150, deadline=None)
@given(
    tasks=integer_tasks(periods=st.sampled_from([2, 3, 4, 5, 6, 8, 10, 12])),
    cores=st.integers(min_value=1, max_value=3),
)
def test_necessary_condition_matches_a_scan_over_the_hyperperiod(tasks, cores):
    """Eq. (1) holds for all ``t > 0`` iff ``U ≤ M`` and it holds at every
    integer ``t`` up to the hyperperiod ``L``: DBF only steps at integers
    here, and ``DBF(t + L) ≤ DBF(t) + U·L`` carries it past ``L``."""
    utilization = sum(Fraction(int(t.wcet), int(t.period)) for t in tasks)
    hyperperiod = math.lcm(*(int(t.period) for t in tasks))
    expected = utilization <= cores and all(
        total_demand(tasks, t) <= cores * t for t in range(1, hyperperiod + 1)
    )
    assert necessary_condition(tasks, cores) == expected
