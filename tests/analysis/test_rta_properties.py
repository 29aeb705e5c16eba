"""Property-based tests for the exact RTA module (hypothesis).

Structural facts the allocators and the batched solver rely on:

* the fixed point is **monotone** in the analysed task's WCET and in
  the blocking term (more work never responds sooner);
* it does **not** depend on the analysed task's own period — only its
  WCET and the interferer set — which is what lets the exact-RTA
  allocator set the minimal period of a lowest-priority security task
  to ``max(T_des, R)``;
* :func:`core_response_times`'s entry for the lowest-priority task
  equals a direct :func:`response_time` call over all higher-priority
  tasks as interferers;
* with constrained deadlines and periods of at least 1, a core whose
  total utilisation exceeds 1 by ``1e-9`` or more fails ``rta_test``:
  the lowest-priority task responds no sooner than ``C/(1 − U_hp)``,
  past its period, and the fixed point's absolute ``1e-12``
  convergence step is far too small to hide that.
"""

from __future__ import annotations

import math

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rta_reference import core_response_times
from repro.analysis.rta import (
    response_time,
    response_times_batch,
)
from repro.analysis.schedulability import rta_test
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask

# Interferer sets are drawn with bounded per-task utilisation so most
# draws converge, but overload (→ inf) remains reachable.
_interferer = st.tuples(
    st.floats(min_value=0.05, max_value=30.0),   # wcet
    st.floats(min_value=5.0, max_value=1000.0),  # period
).filter(lambda ct: ct[0] <= ct[1])

_interferer_sets = st.lists(_interferer, min_size=0, max_size=8)
_wcets = st.floats(min_value=0.05, max_value=50.0)


@settings(max_examples=150, deadline=None)
@given(wcet=_wcets, delta=_wcets, interferers=_interferer_sets)
def test_response_monotone_in_wcet(wcet, delta, interferers):
    base = response_time(wcet, interferers)
    grown = response_time(wcet + delta, interferers)
    assert grown >= base - 1e-9


@settings(max_examples=150, deadline=None)
@given(
    wcet=_wcets,
    blocking=st.floats(min_value=0.0, max_value=40.0),
    extra=st.floats(min_value=0.0, max_value=40.0),
    interferers=_interferer_sets,
)
def test_response_monotone_in_blocking(wcet, blocking, extra, interferers):
    base = response_time(wcet, interferers, blocking=blocking)
    grown = response_time(wcet, interferers, blocking=blocking + extra)
    assert grown >= base - 1e-9


@settings(max_examples=150, deadline=None)
@given(
    wcet=st.floats(min_value=0.05, max_value=20.0),
    periods=st.lists(
        st.floats(min_value=20_000.0, max_value=90_000.0),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    interferers=st.lists(_interferer, min_size=1, max_size=6),
)
def test_response_independent_of_own_period(wcet, periods, interferers):
    """Re-periodising the analysed task (keeping it lowest priority)
    never changes its response time under :func:`core_response_times`.

    The candidate periods (≥ 20 000) exceed every interferer period
    (≤ 1000), so the task stays lowest-priority under RM for each of
    them.  Draws whose fixed point exceeds the smallest candidate
    period are discarded — there the *implicit deadline*, not the
    period's role in the recurrence, would (legitimately) differ.
    """
    direct = response_time(wcet, interferers)
    assume(direct <= min(periods))
    higher = [
        RealTimeTask(name=f"hp{i:02d}", wcet=c, period=t)
        for i, (c, t) in enumerate(interferers)
    ]
    responses = set()
    for period in periods:
        tasks = higher + [
            RealTimeTask(name="own", wcet=wcet, period=period)
        ]
        responses.add(core_response_times(tasks)["own"])
    # Exactly one distinct response across all periods, and it matches
    # the direct computation (up to summation-order round-off: the
    # direct call sums interferers in draw order, the core analysis in
    # RM order).
    assert len(responses) == 1
    assert responses.pop() == pytest.approx(direct, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=8.0),
            st.floats(min_value=10.0, max_value=1000.0),
        ).filter(lambda ct: ct[0] <= ct[1]),
        min_size=1,
        max_size=8,
    )
)
def test_lowest_priority_entry_matches_direct_response_time(data):
    tasks = [
        RealTimeTask(name=f"t{i:02d}", wcet=c, period=t)
        for i, (c, t) in enumerate(data)
    ]
    ordered = rate_monotonic_order(tasks)
    lowest = ordered[-1]
    per_core = core_response_times(tasks)
    direct = response_time(
        lowest.wcet,
        [(t.wcet, t.period) for t in ordered[:-1]],
        limit=lowest.deadline,
    )
    if math.isinf(direct):
        assert math.isinf(per_core[lowest.name])
    else:
        assert per_core[lowest.name] == direct


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=8.0),
            st.floats(min_value=10.0, max_value=1000.0),
        ).filter(lambda ct: ct[0] <= ct[1]),
        min_size=1,
        max_size=10,
    )
)
def test_batch_agrees_with_scalar_everywhere(data):
    tasks = [
        RealTimeTask(name=f"t{i:02d}", wcet=c, period=t)
        for i, (c, t) in enumerate(data)
    ]
    scalar = core_response_times(tasks)
    ordered = rate_monotonic_order(tasks)
    batch = response_times_batch(
        [t.wcet for t in ordered],
        [t.period for t in ordered],
        [t.deadline for t in ordered],
    )
    for task, b in zip(ordered, batch):
        if math.isinf(scalar[task.name]):
            assert math.isinf(b)
        else:
            assert abs(scalar[task.name] - b) <= 1e-9


@st.composite
def _overloaded_cores(draw):
    """2 to 8 tasks with periods ≥ 1 (arbitrary or harmonic), deadlines
    between C and T, and utilisations summing to 1 + 1e-9 … 1.05."""
    n = draw(st.integers(min_value=2, max_value=8))
    total = draw(st.floats(min_value=1.0 + 1e-9, max_value=1.05))
    shares = [draw(st.floats(min_value=0.1, max_value=1.0)) for _ in range(n)]
    harmonic = draw(st.booleans())
    base = draw(st.floats(min_value=1.0, max_value=100.0))
    tasks = []
    for i, share in enumerate(shares):
        if harmonic:
            period = base * draw(st.sampled_from((1, 2, 4, 8)))
        else:
            period = draw(st.floats(min_value=1.0, max_value=1000.0))
        wcet = period * total * share / sum(shares)
        deadline = wcet + (period - wcet) * draw(st.floats(0.0, 1.0))
        tasks.append(
            RealTimeTask(
                name=f"t{i:02d}", wcet=wcet, period=period,
                deadline=min(period, deadline),
            )
        )
    assume(math.fsum(t.utilization for t in tasks) >= 1.0 + 1e-9)
    return tasks


@settings(max_examples=300, deadline=None)
@given(tasks=_overloaded_cores())
def test_total_utilization_above_one_fails_rta(tasks):
    """The fact behind the admission core's divergence cut-off:
    ``rta_test`` rejects every such core here.  Only on time scales
    small enough for the ``1e-12`` convergence step to matter (WCETs
    near ``1e-12``) does one pass, so the cut-off leaves the total
    alone and compares the higher-priority utilisation instead."""
    assert not rta_test(tasks)
