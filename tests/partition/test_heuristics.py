"""Unit tests for the bin-packing partitioning heuristics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import rta_test
from repro.errors import PartitioningError
from repro.model.platform import Platform
from repro.model.task import RealTimeTask
from repro.partition.heuristics import (
    HEURISTICS,
    ORDERINGS,
    partition_tasks,
    try_partition_tasks,
)


def rt(name: str, util: float, period: float = 100.0) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=util * period, period=period)


class TestPlacementRules:
    def test_best_fit_packs_tightest_core(self):
        # Seed two cores unevenly, then watch where the next task goes.
        tasks = [rt("big", 0.6), rt("small", 0.3), rt("probe", 0.2)]
        partition = try_partition_tasks(
            tasks, Platform(2), heuristic="best-fit", admission="utilization"
        )
        assert partition is not None
        # Decreasing utilisation: big→0, small→(best = most loaded that
        # fits: core 0 at .6 fits .3) → 0; probe → core 0 (at .9 fits .2?
        # no, .9 + .2 > 1 → core 1).
        assert partition.core_of("big") == 0
        assert partition.core_of("small") == 0
        assert partition.core_of("probe") == 1

    def test_worst_fit_spreads_load(self):
        tasks = [rt("a", 0.6), rt("b", 0.3), rt("c", 0.2)]
        partition = try_partition_tasks(
            tasks, Platform(2), heuristic="worst-fit", admission="utilization"
        )
        assert partition is not None
        assert partition.core_of("a") == 0
        assert partition.core_of("b") == 1  # emptier core
        assert partition.core_of("c") == 1  # 0.3 < 0.6 → still emptier

    def test_first_fit_prefers_low_index(self):
        tasks = [rt("a", 0.4), rt("b", 0.4), rt("c", 0.4)]
        partition = try_partition_tasks(
            tasks, Platform(3), heuristic="first-fit", admission="utilization"
        )
        assert partition is not None
        assert partition.core_of("a") == 0
        assert partition.core_of("b") == 0
        assert partition.core_of("c") == 1  # 1.2 > 1 on core 0

    def test_next_fit_never_revisits(self):
        tasks = [rt("a", 0.7), rt("b", 0.7), rt("c", 0.2)]
        partition = try_partition_tasks(
            tasks, Platform(3), heuristic="next-fit", admission="utilization"
        )
        assert partition is not None
        # a→0; b doesn't fit 0 → 1; c fits 1 (pointer stays) → 1.
        assert partition.core_of("a") == 0
        assert partition.core_of("b") == 1
        assert partition.core_of("c") == 1

    def test_next_fit_can_fail_where_first_fit_succeeds(self):
        # Input order a, b, c: after b moves the pointer to core 1,
        # next-fit cannot return to core 0 where c would still fit.
        tasks = [rt("a", 0.55), rt("b", 0.75), rt("c", 0.4)]
        next_fit = try_partition_tasks(
            tasks, Platform(2), heuristic="next-fit",
            admission="utilization", ordering="input",
        )
        first_fit = try_partition_tasks(
            tasks, Platform(2), heuristic="first-fit",
            admission="utilization", ordering="input",
        )
        assert next_fit is None
        assert first_fit is not None
        assert first_fit.core_of("c") == 0


class TestOrderings:
    def test_input_order_respected(self):
        tasks = [rt("small", 0.2), rt("big", 0.9)]
        partition = try_partition_tasks(
            tasks,
            Platform(2),
            heuristic="first-fit",
            admission="utilization",
            ordering="input",
        )
        assert partition is not None
        assert partition.core_of("small") == 0

    def test_rm_ordering_places_short_periods_first(self):
        tasks = [
            rt("slow", 0.5, period=1000.0),
            rt("fast", 0.5, period=10.0),
        ]
        partition = try_partition_tasks(
            tasks,
            Platform(2),
            heuristic="first-fit",
            admission="utilization",
            ordering="rm",
        )
        assert partition is not None
        assert partition.core_of("fast") == 0

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ValueError):
            try_partition_tasks(
                [rt("a", 0.1)], Platform(1), ordering="random"
            )

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            try_partition_tasks([rt("a", 0.1)], Platform(1),
                                heuristic="magic")


class TestAdmission:
    def test_rta_admission_produces_schedulable_partition(self, rng):
        from repro.taskgen.synthetic import generate_workload

        for _ in range(5):
            wl = generate_workload(4, 3.0, rng)
            partition = try_partition_tasks(wl.rt_tasks, wl.platform)
            if partition is not None:
                assert all(
                    rta_test(partition.tasks_on(core))
                    for core in partition.platform
                )

    def test_rta_accepts_more_than_liu_layland(self):
        # Harmonic set with U = 1 per core: RTA packs it, LL cannot.
        tasks = [rt("a", 0.5, 4.0), rt("b", 0.5, 8.0)]
        rta_partition = try_partition_tasks(
            tasks, Platform(1), admission="rta"
        )
        ll_partition = try_partition_tasks(
            tasks, Platform(1), admission="liu-layland"
        )
        assert rta_partition is not None
        assert ll_partition is None

    def test_callable_admission(self):
        calls = []

        def noisy(tasks):
            calls.append(len(tasks))
            return True

        partition = try_partition_tasks(
            [rt("a", 0.5), rt("b", 0.5)], Platform(1), admission=noisy
        )
        assert partition is not None
        assert calls  # the callable was actually consulted


class TestFailureModes:
    def test_returns_none_when_oversubscribed(self):
        tasks = [rt("a", 0.9), rt("b", 0.9), rt("c", 0.9)]
        assert try_partition_tasks(tasks, Platform(2)) is None

    def test_partition_tasks_raises(self):
        tasks = [rt("a", 0.9), rt("b", 0.9), rt("c", 0.9)]
        with pytest.raises(PartitioningError):
            partition_tasks(tasks, Platform(2))

    def test_empty_taskset(self):
        partition = try_partition_tasks([], Platform(2))
        assert partition is not None
        assert partition.utilizations() == [0.0, 0.0]

    def test_all_tasks_assigned_exactly_once(self, rng):
        from repro.taskgen.synthetic import generate_workload

        wl = generate_workload(4, 2.0, rng)
        partition = try_partition_tasks(wl.rt_tasks, wl.platform)
        assert partition is not None
        assigned = [
            t.name for m in wl.platform for t in partition.tasks_on(m)
        ]
        assert sorted(assigned) == sorted(wl.rt_tasks.names)


#: Each ordering's task key (``None``: input order) and each
#: heuristic's core key, as the module docstring states them.
_TASK_KEYS = {
    "utilization": lambda t: (-t.utilization, t.name),
    "rm": lambda t: (t.period, -t.wcet, t.name),
    "input": None,
}
_CORE_KEYS = {
    "best-fit": lambda util, m: (-util, m),
    "worst-fit": lambda util, m: (util, m),
    "first-fit": lambda util, m: m,
}


def _reference_partition(tasks, cores, heuristic, ordering):
    """The heuristics written out: for every task, re-sort the cores by
    the heuristic's key (next-fit: the cores from its pointer on) and
    admit through ``rta_test`` on the rebuilt core."""
    key = _TASK_KEYS[ordering]
    placed = [[] for _ in range(cores)]
    util = [0.0] * cores
    assignment, pointer = {}, 0
    for task in sorted(tasks, key=key) if key else tasks:
        if heuristic == "next-fit":
            order = range(pointer, cores)
        else:
            core_key = _CORE_KEYS[heuristic]
            order = sorted(range(cores), key=lambda m: core_key(util[m], m))
        chosen = next((m for m in order if rta_test([*placed[m], task])), None)
        if chosen is None:
            return None
        placed[chosen].append(task)
        util[chosen] += task.utilization
        assignment[task.name] = pointer = chosen
    return assignment


@st.composite
def saturated_workloads(draw):
    """2 to 8 cores and 2 to 4 tasks per core whose utilisations sum to
    0.75–1.0 per core, some with constrained deadlines: enough load that
    probes are rejected and some partitions fail."""
    cores = draw(st.integers(min_value=2, max_value=8))
    n = cores * draw(st.integers(min_value=2, max_value=4))
    share = cores * draw(st.floats(min_value=0.75, max_value=1.0)) / n
    tasks = []
    for i in range(n):
        period = draw(st.sampled_from((10.0, 20.0, 25.0, 50.0, 100.0)))
        period *= draw(st.floats(min_value=1.0, max_value=3.0))
        wcet = period * min(0.95, share * draw(st.floats(0.2, 1.8)))
        deadline = period
        if draw(st.booleans()):
            deadline = wcet + (period - wcet) * draw(st.floats(0.5, 1.0))
        tasks.append(
            RealTimeTask(
                name=f"t{i:02d}", wcet=wcet, period=period,
                deadline=min(period, deadline),
            )
        )
    return tasks, cores


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("heuristic", HEURISTICS)
@settings(max_examples=20, deadline=None)
@given(workload=saturated_workloads())
def test_rta_partitions_match_the_reference_partitioner(
    heuristic, ordering, workload
):
    """The kept probe order and the incremental admission place every
    task where the per-task re-sort with ``rta_test`` places it, and
    fail exactly where it fails."""
    tasks, cores = workload
    partition = try_partition_tasks(
        tasks, Platform(cores), heuristic=heuristic, admission="rta",
        ordering=ordering,
    )
    expected = _reference_partition(tasks, cores, heuristic, ordering)
    assert (None if partition is None else partition.as_mapping()) == expected
