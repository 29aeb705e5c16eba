"""Equivalence suites: :class:`ExactAdmissionCore` against ``rta_test``.

The partitioning heuristics admit through the incremental core, so it
must answer every probe exactly as ``rta_test`` on the rebuilt task
list would:

* ``_fixed_point`` is bit-identical to :func:`response_time`;
* :func:`response_time_bound` is at least :func:`response_time`, and
  the core skips the fixed point wherever that bound decides;
* incremental streams and pre-seeded (even unschedulable) cores get
  the reference verdict on every probe;
* on 16- to 40-task cores, deadlines placed exactly at a task's
  response time ``R``, one ulp below it and ``1e-10`` either side get
  the reference verdict too — and that verdict is the scalar one: a
  deadline at or above ``R`` passes, one below ``R`` fails.  The same
  holds after light residents were admitted through the bound, whose
  cached responses are then stale lower bounds;
* a probe checks the core's lowest-priority resident first, so a miss
  there rejects after that one fixed point, and probes that join above
  every resident keep the cached responses lower bounds;
* fig2's smoke grid partitions identically through the core and
  through the rebuild-and-test path.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import admission
from repro.analysis.admission import (
    ExactAdmissionCore,
    _fixed_point,
    response_time_bound,
)
from repro.analysis.rta import response_time
from repro.analysis.schedulability import rta_test
from repro.model.platform import Platform
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

#: 2 to 12 implicit-deadline tasks whose utilisations sum to about 0.3:
#: the response-time bound admits each of them without a fixed point.
light_cores = task_sets(
    min_size=2,
    max_size=12,
    constrained_deadlines=False,
    mean_total_utilization=0.3,
)


@st.composite
def interferer_pairs(draw):
    """0 to 6 higher-priority ``(C, T)`` pairs with ``Σ C/T < 1``, with
    arbitrary or harmonic periods."""
    n = draw(st.integers(min_value=0, max_value=6))
    total = draw(st.floats(min_value=0.0, max_value=0.98))
    shares = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
    harmonic = draw(st.booleans())
    period = draw(st.floats(min_value=1.0, max_value=50.0))
    pairs = []
    for share in shares:
        if harmonic:
            period *= draw(st.sampled_from((1, 2, 3, 4)))
        else:
            period = draw(st.floats(min_value=1.0, max_value=1000.0))
        utilization = total * share / sum(shares)
        if utilization > 0.0:
            pairs.append((period * utilization, period))
    return pairs


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


@settings(max_examples=300, deadline=None)
@given(pairs=interferer_pairs(), wcet=st.floats(min_value=0.01, max_value=100.0))
def test_bound_is_at_least_the_response_time(pairs, wcet):
    """The Bini–Nguyen–Richard–Baruah bound never undercuts the exact
    response time; with no interferers it is the response itself."""
    bound = response_time_bound(wcet, pairs)
    assert response_time(wcet, pairs) <= bound
    if not pairs:
        assert bound == wcet


def _no_fixed_point(*args, **kwargs):
    raise AssertionError("the response-time bound should have decided")


@settings(max_examples=60, deadline=None)
@given(
    residents=task_sets(
        max_size=12, constrained_deadlines=False, mean_total_utilization=0.25
    ),
    probes=task_sets(
        max_size=3, constrained_deadlines=False, mean_total_utilization=0.025
    ),
)
def test_light_core_probes_never_run_a_fixed_point(residents, probes):
    """Implicit deadlines and total utilisation at most 0.5: the bound
    decides every task, so seeding and probing the core give the
    ``rta_test`` verdict with ``_fixed_point`` patched to raise."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(admission, "_fixed_point", _no_fixed_point)
        state = ExactAdmissionCore(residents)
        for probe in probes:
            assert state.admits(probe) == rta_test([*residents, probe])


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


def _walk_boundaries(
    state: ExactAdmissionCore,
    placed: list[RealTimeTask],
    stream: list[RealTimeTask],
) -> None:
    """Probe each task of ``stream`` with its deadline at, just below
    and just above its response time, then with its own deadline, and
    commit the accepted tasks to ``state`` (holding ``placed``)."""
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
            _assert_cached_lower_bounds(state, placed)


def _assert_cached_lower_bounds(
    state: ExactAdmissionCore, placed: list[RealTimeTask]
) -> None:
    """Every cached response of a feasible core is at most the task's
    from-scratch response time."""
    ordered = rate_monotonic_order(placed)
    for cached, task in zip(state._responses, ordered):
        assert cached <= _response(task, placed)


def _check_resident_boundaries(stream: list[RealTimeTask], pick: int) -> None:
    """Seed a core with all of ``stream`` but its last task, giving one
    resident a deadline at, just below or just above its response time
    once that last task joins, and probe with the last task."""
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


@settings(max_examples=30, deadline=None)
@given(stream=large_cores)
def test_large_core_probes_at_the_deadline_boundary(stream):
    """Streams of 16-40 tasks on an empty core: every boundary probe
    gets the reference verdict."""
    _walk_boundaries(ExactAdmissionCore(), [], stream)


@settings(max_examples=30, deadline=None)
@given(light=light_cores, stream=large_cores)
def test_boundary_probes_after_bound_admissions(light, stream):
    """The same walk on a core whose light residents were admitted
    through the bound, so their cached responses are stale lower
    bounds that the boundary probes must warm-start from."""
    state = ExactAdmissionCore(light)
    _assert_cached_lower_bounds(state, light)
    _walk_boundaries(state, list(light), stream)


@settings(max_examples=25, deadline=None)
@given(stream=large_cores, pick=st.integers(min_value=0))
def test_large_core_resident_at_the_deadline_boundary(stream, pick):
    """A pre-seeded resident whose deadline sits at, just below or just
    above its response time once the probe joins: the warm-started
    re-solve must give the reference verdict."""
    _check_resident_boundaries(stream, pick)


@settings(max_examples=40, deadline=None)
@given(
    light=light_cores,
    probe=task_sets(min_size=1, max_size=1),
    pick=st.integers(min_value=0),
)
def test_resident_boundary_after_bound_admissions(light, probe, pick):
    """A boundary resident seeded among light tasks caches a stale lower
    bound from the bound; the probe that moves its response onto the
    deadline re-solves from there to the reference verdict."""
    _check_resident_boundaries([*light, *probe], pick)


def test_bound_admissions_cache_stale_lower_bounds():
    """A resident the bound keeps feasible keeps its earlier response
    when a higher-priority task joins: 1 instead of the exact 2."""
    low = RealTimeTask(name="low", wcet=1.0, period=100.0)
    high = RealTimeTask(name="high", wcet=1.0, period=10.0)
    state = ExactAdmissionCore([low, high])
    assert state._responses == [1.0, 1.0]
    assert _response(low, [low, high]) == 2.0
    mid = RealTimeTask(name="mid", wcet=40.0, period=50.0)
    assert rta_test([low, high, mid])
    assert state.admits(mid)


#: Three residents whose bounds fail once the probe joins above them but
#: whose exact responses fit (2.5 ≤ 2.6, 7 ≤ 7.5, 18 ≤ 19), above a
#: lowest-priority resident that responds at 34 alone and at 38 with the
#: probe; the probe itself has the top priority, so its bound decides.
_STACKED = [
    RealTimeTask(name="r1", wcet=2.0, period=10.0, deadline=2.6),
    RealTimeTask(name="r2", wcet=4.0, period=20.0, deadline=7.5),
    RealTimeTask(name="r3", wcet=8.0, period=40.0, deadline=19.0),
]
_TOP_PROBE = RealTimeTask(name="p", wcet=0.5, period=5.0)


def _counting_fixed_point(calls: list[tuple[float, int]]):
    """``_fixed_point`` that records each call's ``(wcet, len(pairs))``."""
    fixed_point = admission._fixed_point

    def counted(wcet, pairs, limit, start=None):
        calls.append((wcet, len(pairs)))
        return fixed_point(wcet, pairs, limit, start)

    return counted


def test_a_missing_lowest_priority_resident_rejects_after_one_fixed_point():
    """The lowest-priority resident misses once the probe joins, so the
    probe is settled by its fixed point alone; a top-down walk would
    first solve the three residents in between."""
    lowest = RealTimeTask(name="low", wcet=10.0, period=80.0, deadline=36.0)
    residents = [*_STACKED, lowest]
    assert rta_test(residents) and not rta_test([*residents, _TOP_PROBE])
    state = ExactAdmissionCore(residents)
    calls: list[tuple[float, int]] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(admission, "_fixed_point", _counting_fixed_point(calls))
        assert not state.admits(_TOP_PROBE)
    assert calls == [(lowest.wcet, 4)]


def test_an_accepted_probe_solves_the_lowest_priority_resident_first():
    """With the lowest resident's deadline at its response (38), the
    probe is accepted: the lowest resident is solved first, then the
    three in between, and the committed responses are lower bounds."""
    lowest = RealTimeTask(name="low", wcet=10.0, period=80.0, deadline=38.0)
    residents = [*_STACKED, lowest]
    assert rta_test([*residents, _TOP_PROBE])
    state = ExactAdmissionCore(residents)
    calls: list[tuple[float, int]] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(admission, "_fixed_point", _counting_fixed_point(calls))
        assert state.admits(_TOP_PROBE)
        state.add(_TOP_PROBE)
    assert calls == [(10.0, 4), (2.0, 1), (4.0, 2), (8.0, 3)]
    assert state._responses == [0.5, 2.5, 7.0, 18.0, 38.0]
    _assert_cached_lower_bounds(state, [*residents, _TOP_PROBE])


@settings(max_examples=30, deadline=None)
@given(stream=large_cores)
def test_probes_above_every_resident_keep_lower_bounds(stream):
    """A stream in reverse RM order joins every probe above the whole
    core, so each one solves the lowest-priority resident first: every
    boundary probe gets the reference verdict, and the cached responses
    stay lower bounds after every ``add``."""
    stream = sorted(
        stream, key=lambda t: (t.period, -t.wcet, t.name), reverse=True
    )
    _walk_boundaries(ExactAdmissionCore(), [], stream)


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


def test_fig2_smoke_grid_partitions_match_the_rebuild_path():
    """Every task set of fig2's smoke grid, on all cores and on the
    SingleCore scheme's ``M − 1``, partitions identically through the
    incremental core (``admission="rta"``) and through an opaque
    callable that rebuilds and tests the core on every probe."""
    from repro.experiments.config import SCALES
    from repro.experiments.fig2 import fig2_grid
    from repro.experiments.scenario import point_workloads
    from repro.partition.heuristics import try_partition_tasks

    def mapping(tasks, platform, test):
        partition = try_partition_tasks(
            tasks, platform, heuristic="best-fit", admission=test,
            ordering="utilization",
        )
        return None if partition is None else partition.as_mapping()

    scale = SCALES["smoke"]
    cores = [c for c in scale.core_counts if c >= 2]
    outcomes = []
    for spec in fig2_grid(cores).sweeps(scale):
        platform = Platform(int(spec.params["cores"]))
        reduced = Platform(platform.num_cores - 1)
        for index, point in enumerate(spec.points):
            for _, workload in point_workloads(
                platform,
                spec.params["combos"],
                int(spec.params["tasksets_per_point"]),
                float(point["utilization"]),
                spec.rng_for(index),
            ):
                for target in (platform, reduced):
                    fast = mapping(workload.rt_tasks, target, "rta")
                    slow = mapping(
                        workload.rt_tasks, target, lambda ts: rta_test(ts)
                    )
                    assert fast == slow
                    outcomes.append(fast is not None)
    assert any(outcomes) and not all(outcomes)
