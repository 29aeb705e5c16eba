"""Exact RM analyses against a simulated schedule.

With integer ``C ≤ D ≤ T`` a preemptive fixed-priority schedule can be
stepped one time unit at a time, and the first job of each task after a
synchronous release is its worst case (the critical instant).  With a
blocking term ``B`` a lower-priority non-preemptive job holds the core
for the first ``B`` units.  Every exact analysis must reproduce that
schedule exactly, with no tolerance:

* per-task response times, scalar and batched, are the simulated
  completion times;
* ``rta_schedulable``, ``rta-batch`` and :class:`ExactAdmissionCore`
  accept a core exactly when every simulated first job meets its own
  deadline — also when tasks share a name or a whole RM key;
* :func:`rt_schedulable_with_blocking` accepts exactly the blocking
  terms the simulation survives, and :func:`max_tolerable_blocking`
  finds the largest one.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rta_reference import core_response_times
from repro.analysis.admission import ExactAdmissionCore
from repro.analysis.blocking import (
    max_tolerable_blocking,
    rt_schedulable_with_blocking,
)
from repro.analysis.rta import (
    response_times_batch,
    rta_schedulable,
    rta_schedulable_batch,
)
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask


@st.composite
def integer_cores(draw, unique_names=False):
    """1-6 tasks with integer ``C ≤ D ≤ T``.

    Unless ``unique_names``, names come from three letters, so
    same-named tasks, and tasks whose whole RM key ties, are common.
    """
    tasks = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        period = draw(st.integers(min_value=2, max_value=30))
        wcet = draw(st.integers(min_value=1, max_value=period // 2))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        name = f"t{i}" if unique_names else draw(st.sampled_from("abc"))
        tasks.append(
            RealTimeTask(
                name=name,
                wcet=float(wcet),
                period=float(period),
                deadline=float(deadline),
            )
        )
    return tasks


def _simulated_response(
    ordered: list[RealTimeTask], index: int, blocking: int = 0
) -> float:
    """Completion time of ``ordered[index]``'s first job, every task
    released at 0 and ``ordered[0]`` running first, after a blocker
    holds the core for ``[0, blocking)``; ``inf`` if the job is still
    unfinished at its deadline."""
    task = ordered[index]
    higher = ordered[:index]
    backlog = [0] * index
    remaining = int(task.wcet)
    for now in range(int(task.deadline)):
        for j, hp in enumerate(higher):
            if now % int(hp.period) == 0:
                backlog[j] += int(hp.wcet)
        if now < blocking:
            continue
        running = next((j for j, work in enumerate(backlog) if work), None)
        if running is not None:
            backlog[running] -= 1
            continue
        remaining -= 1
        if remaining == 0:
            return float(now + 1)
    return math.inf


def _simulated_schedulable(
    tasks: list[RealTimeTask], blocking: int = 0
) -> bool:
    ordered = rate_monotonic_order(tasks)
    return all(
        _simulated_response(ordered, i, blocking) < math.inf
        for i in range(len(ordered))
    )


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores(unique_names=True))
def test_core_response_times_are_the_simulated_completions(tasks):
    ordered = rate_monotonic_order(tasks)
    responses = core_response_times(tasks)
    for i, task in enumerate(ordered):
        assert responses[task.name] == _simulated_response(ordered, i)


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores())
def test_batch_response_times_are_the_simulated_completions(tasks):
    ordered = rate_monotonic_order(tasks)
    batched = response_times_batch(
        [t.wcet for t in ordered],
        [t.period for t in ordered],
        [t.deadline for t in ordered],
    )
    simulated = [_simulated_response(ordered, i) for i in range(len(ordered))]
    assert np.array_equal(batched, simulated)


@settings(max_examples=150, deadline=None)
@given(tasks=integer_cores())
def test_rta_schedulable_matches_the_simulation(tasks):
    assert rta_schedulable(tasks) == _simulated_schedulable(tasks)


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores())
def test_rta_batch_matches_the_simulation(tasks):
    assert rta_schedulable_batch(tasks) == _simulated_schedulable(tasks)


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores())
def test_admission_core_matches_the_simulation(tasks):
    """Residents pre-seeded, the last task probed."""
    *residents, probe = tasks
    assert ExactAdmissionCore(residents).admits(probe) == (
        _simulated_schedulable(tasks)
    )


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores(), blocking=st.integers(min_value=0, max_value=20))
def test_blocking_verdict_matches_the_simulation(tasks, blocking):
    assert rt_schedulable_with_blocking(tasks, float(blocking)) == (
        _simulated_schedulable(tasks, blocking)
    )


@settings(max_examples=50, deadline=None)
@given(tasks=integer_cores())
def test_max_tolerable_blocking_is_the_largest_simulated_survivor(tasks):
    """Schedulability only changes at integer blocking terms here, so the
    bisection lands within its ``1e-6`` tolerance below the largest
    integer term the simulation survives (0 when none is)."""
    survivor = 0
    while _simulated_schedulable(tasks, survivor + 1):
        survivor += 1
    assert math.isclose(
        max_tolerable_blocking(tasks), survivor, rel_tol=0.0, abs_tol=2e-6
    )
