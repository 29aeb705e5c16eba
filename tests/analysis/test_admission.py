"""Equivalence suites: :class:`ExactAdmissionCore` against ``rta_test``.

The partitioning heuristics admit through the incremental core, so it
must answer every probe exactly as ``rta_test`` on the rebuilt task
list would:

* ``_fixed_point`` is bit-identical to :func:`response_time`;
* incremental streams and pre-seeded (even unschedulable) cores get
  the reference verdict on every probe;
* on 16- to 40-task cores, deadlines placed exactly at a task's
  response time ``R``, one ulp below it and ``1e-10`` either side get
  the reference verdict too — and that verdict is the scalar one: a
  deadline at or above ``R`` passes, one below ``R`` fails.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.admission import ExactAdmissionCore, _fixed_point
from repro.analysis.rta import response_time
from repro.analysis.schedulability import rta_test
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask


@st.composite
def task_sets(
    draw,
    min_size=1,
    max_size=12,
    constrained_deadlines=True,
    mean_total_utilization=None,
):
    """Task sets with bounded parameters.

    Each task's ``C/T`` lies in ``[0.005, 0.6]``, so a handful of tasks
    can saturate a core; with ``mean_total_utilization`` it lies within
    ``0.2``-``1.8`` times that total's per-task share instead.
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    low, high = (0.005, 0.6)
    if mean_total_utilization is not None:
        share = mean_total_utilization / n
        low, high = 0.2 * share, 1.8 * share
    tasks = []
    for i in range(n):
        period = draw(st.floats(min_value=5.0, max_value=1000.0))
        wcet = period * draw(st.floats(min_value=low, max_value=high))
        deadline = period
        if constrained_deadlines and draw(st.booleans()):
            # min() guards the f≈1.0 draws, where round-off could push
            # the deadline one ulp past the period.
            deadline = min(
                period,
                wcet
                + (period - wcet)
                * draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        tasks.append(
            RealTimeTask(
                name=f"t{i:03d}", wcet=wcet, period=period, deadline=deadline
            )
        )
    return tasks


#: 16 to 40 tasks whose utilisations sum to about 0.9, so a core fills
#: past 16 residents before probes start failing.
large_cores = task_sets(min_size=16, max_size=40, mean_total_utilization=0.9)


def _with_deadline(task: RealTimeTask, deadline: float) -> RealTimeTask:
    return RealTimeTask(
        name=task.name, wcet=task.wcet, period=task.period, deadline=deadline
    )


def _response(task: RealTimeTask, core: list[RealTimeTask]) -> float:
    """``task``'s response time on ``core``, solved from scratch with no
    deadline cut-off."""
    ordered = rate_monotonic_order(core)
    higher = ordered[: next(i for i, t in enumerate(ordered) if t is task)]
    return response_time(task.wcet, [(t.wcet, t.period) for t in higher])


def _boundary_deadlines(task: RealTimeTask, response: float) -> list[float]:
    """Deadlines at and around ``response`` that ``task`` can carry."""
    candidates = (
        response,
        math.nextafter(response, 0.0),
        response - 1e-10,
        response + 1e-10,
    )
    return [d for d in candidates if task.wcet <= d <= task.period]


@settings(max_examples=150, deadline=None)
@given(tasks=task_sets(max_size=8))
def test_fixed_point_bit_identical_to_response_time(tasks):
    """``_fixed_point`` is the admission loop's lean twin of
    :func:`response_time` — same accumulation order, bit for bit."""
    ordered = rate_monotonic_order(tasks)
    pairs = [(t.wcet, t.period) for t in ordered[:-1]]
    probe = ordered[-1]
    reference = response_time(probe.wcet, pairs, limit=probe.deadline)
    twin = _fixed_point(probe.wcet, pairs, probe.deadline)
    assert twin == reference or (
        math.isinf(twin) and math.isinf(reference)
    )


@settings(max_examples=60, deadline=None)
@given(stream=task_sets(max_size=14, constrained_deadlines=True))
def test_admission_core_matches_rta_test_incrementally(stream):
    """Every probe verdict equals ``rta_test`` on the rebuilt list, and
    accepted tasks keep the state consistent for the next probe."""
    state = ExactAdmissionCore()
    placed = []
    for task in stream:
        assert state.admits(task) == rta_test([*placed, task])
        if rta_test([*placed, task]):
            state.add(task)
            placed.append(task)


@settings(max_examples=60, deadline=None)
@given(
    residents=task_sets(max_size=10),
    probes=task_sets(min_size=1, max_size=3),
)
def test_admission_core_matches_rta_test_preseeded(residents, probes):
    """Pre-seeded cores — schedulable or not — answer probes exactly
    like the from-scratch reference test, even when a probe shares a
    resident's name."""
    state = ExactAdmissionCore(residents)
    for probe in probes:
        assert state.admits(probe) == rta_test([*residents, probe])


@settings(max_examples=30, deadline=None)
@given(stream=large_cores)
def test_large_core_probes_at_the_deadline_boundary(stream):
    """Streams of 16-40 tasks: each task is probed with its deadline at,
    just below and just above its response time, then with its own
    deadline, and the accepted tasks are committed."""
    state = ExactAdmissionCore()
    placed = []
    for task in stream:
        core = [*placed, task]
        response = _response(task, core)
        lax = rta_test([*placed, _with_deadline(task, task.period)])
        for deadline in _boundary_deadlines(task, response):
            probe = _with_deadline(task, deadline)
            verdict = rta_test([*placed, probe])
            assert state.admits(probe) == verdict
            assert verdict == (deadline >= response and lax)
        verdict = rta_test(core)
        assert state.admits(task) == verdict
        if verdict:
            state.add(task)
            placed.append(task)


@settings(max_examples=25, deadline=None)
@given(stream=large_cores, pick=st.integers(min_value=0))
def test_large_core_resident_at_the_deadline_boundary(stream, pick):
    """A pre-seeded resident whose deadline sits at, just below or just
    above its response time once the probe joins: the warm-started
    re-solve must land on the from-scratch response bit for bit."""
    *residents, probe = stream
    index = pick % len(residents)
    resident = residents[index]
    response = _response(resident, stream)

    def seeded(deadline: float) -> list[RealTimeTask]:
        adjusted = list(residents)
        adjusted[index] = _with_deadline(resident, deadline)
        return adjusted

    lax = rta_test([*seeded(resident.period), probe])
    for deadline in _boundary_deadlines(resident, response):
        core = seeded(deadline)
        verdict = rta_test([*core, probe])
        assert ExactAdmissionCore(core).admits(probe) == verdict
        assert verdict == (deadline >= response and lax)


def test_tied_rm_keys_follow_the_reference_order():
    """A probe whose RM key ``(period, -wcet, name)`` ties a resident's
    queues behind it, where the stable sort in ``rate_monotonic_order``
    puts a task appended to the resident list.  Whichever of the two
    runs second responds at 4."""
    tight = RealTimeTask(name="a", wcet=2.0, period=10.0, deadline=3.0)
    loose = RealTimeTask(name="a", wcet=2.0, period=10.0, deadline=10.0)
    assert rta_test([tight, loose])
    assert ExactAdmissionCore([tight]).admits(loose)
    assert not rta_test([loose, tight])
    assert not ExactAdmissionCore([loose]).admits(tight)
