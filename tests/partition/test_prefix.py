"""The prefix property that SingleCore's derived system rests on.

First-fit, best-fit and next-fit try the last core only after every
other core has refused the task.  So their pack onto ``M−1`` cores is
the ``M``-core partition when that leaves core ``M−1`` empty, and fails
otherwise (:data:`repro.partition.heuristics.PREFIX_HEURISTICS`).
Worst-fit opens empty cores first, so it has no such property.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import ADMISSION_TESTS
from repro.model.platform import Platform
from repro.model.task import RealTimeTask
from repro.partition.heuristics import (
    HEURISTICS,
    ORDERINGS,
    PREFIX_HEURISTICS,
    try_partition_tasks,
)


def _pack(tasks, cores, heuristic, admission, ordering):
    """The assignment of a pack onto ``cores`` cores, or ``None``."""
    partition = try_partition_tasks(
        tasks, Platform(cores), heuristic=heuristic, admission=admission,
        ordering=ordering,
    )
    return None if partition is None else partition.as_mapping()


def _derived(tasks, cores, heuristic, admission, ordering):
    """The ``cores − 1``-core pack as read off the ``cores``-core
    partition: that partition if it leaves the last core empty."""
    assignment = _pack(tasks, cores, heuristic, admission, ordering)
    if assignment is None or cores - 1 in assignment.values():
        return None
    return assignment


@st.composite
def rt_task_sets(draw):
    """Up to 16 tasks; utilisations and periods come from small pools
    now and then, so best-fit meets tied core loads."""
    n = draw(st.integers(min_value=1, max_value=16))
    tied = draw(st.booleans())
    tasks = []
    for i in range(n):
        if tied:
            util = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5]))
            period = draw(st.sampled_from([10.0, 20.0, 50.0]))
        else:
            util = draw(st.floats(min_value=0.02, max_value=0.9))
            period = draw(st.floats(min_value=5.0, max_value=1000.0))
        tasks.append(RealTimeTask(name=f"t{i:02d}", wcet=util * period,
                                  period=period))
    return tasks


@settings(max_examples=400, deadline=None)
@given(
    tasks=rt_task_sets(),
    cores=st.integers(min_value=2, max_value=8),
    heuristic=st.sampled_from(PREFIX_HEURISTICS),
    admission=st.sampled_from(ADMISSION_TESTS),
    ordering=st.sampled_from(ORDERINGS),
)
def test_pack_on_one_core_fewer_is_the_derived_one(
    tasks, cores, heuristic, admission, ordering
):
    args = (heuristic, admission, ordering)
    assert _pack(tasks, cores - 1, *args) == _derived(tasks, cores, *args)


def test_both_sides_of_the_property_occur():
    """Seeded draws in which every prefix heuristic both packs a task
    set onto ``M−1`` cores and fails to, so neither branch of the
    property above is vacuous."""
    rng = np.random.default_rng(4)
    outcomes = {h: set() for h in PREFIX_HEURISTICS}
    for _ in range(60):
        cores = int(rng.integers(2, 6))
        tasks = [
            RealTimeTask(name=f"t{i}", wcet=u * 100.0, period=100.0)
            for i, u in enumerate(
                rng.uniform(0.05, 0.7, int(rng.integers(2, 3 * cores)))
            )
        ]
        for heuristic in PREFIX_HEURISTICS:
            args = (heuristic, "rta", "utilization")
            derived = _derived(tasks, cores, *args)
            assert _pack(tasks, cores - 1, *args) == derived
            outcomes[heuristic].add(derived is None)
    assert all(seen == {True, False} for seen in outcomes.values())


def test_worst_fit_is_excluded():
    """Worst-fit spreads a, b and c over three cores, so the derived
    pack would fail, yet a and b+c fit two cores."""
    assert "worst-fit" in HEURISTICS
    assert "worst-fit" not in PREFIX_HEURISTICS
    tasks = [
        RealTimeTask(name=name, wcet=util * 100.0, period=100.0)
        for name, util in (("a", 0.6), ("b", 0.5), ("c", 0.3))
    ]
    args = ("worst-fit", "utilization", "utilization")
    assert _pack(tasks, 3, *args) == {"a": 0, "b": 1, "c": 2}
    assert _derived(tasks, 3, *args) is None
    assert _pack(tasks, 2, *args) == {"a": 0, "b": 1, "c": 1}
