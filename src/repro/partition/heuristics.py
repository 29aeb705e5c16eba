"""Multicore partitioning heuristics for the real-time tasks.

The paper assumes the real-time tasks "are schedulable and assigned to
the cores using [an] existing multicore task partitioning algorithm"
[Davis & Burns survey]; its experiments partition with **best-fit**
(Sec. IV-B).  This module implements the four classic bin-packing
heuristics over an arbitrary admission test:

========  ==========================================================
first-fit place on the lowest-indexed core that admits the task
best-fit  place on the admitting core with the *least* remaining
          utilisation (pack tightly, keep cores free)
worst-fit place on the admitting core with the *most* remaining
          utilisation (spread load)
next-fit  keep a moving pointer, never revisit earlier cores
========  ==========================================================

Tasks are considered in a configurable order (decreasing utilisation by
default, the standard bin-packing choice; rate-monotonic and input order
are also available).

First-fit, best-fit and next-fit (:data:`PREFIX_HEURISTICS`) try the
highest-indexed core ``M−1`` only after every other core has refused
the task: first-fit and next-fit walk the cores in index order, and
best-fit ranks an empty core after every loaded one and breaks ties
by index.  So as long as core ``M−1`` stays empty, each placement on
``M`` cores is the one the same heuristic makes on the first ``M−1``
cores, and a task both refuse is refused on ``M−1`` cores too.  Their
pack onto ``M−1`` cores is therefore the ``M``-core partition when
that partition leaves core ``M−1`` empty, and fails otherwise — which
is how the SingleCore baseline's system is read off HYDRA's partition
(:func:`repro.experiments.scenario.combo_system`).  Worst-fit opens
empty cores first, so it gets no such shortcut.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Sequence

from repro.analysis.admission import ExactAdmissionCore
from repro.analysis.schedulability import (
    AdmissionTest,
    get_admission_test,
    rta_test,
)
from repro.errors import ConfigError, PartitioningError
from repro.model.platform import Platform
from repro.model.system import Partition
from repro.model.task import RealTimeTask, TaskSet

__all__ = [
    "partition_tasks",
    "try_partition_tasks",
    "HEURISTICS",
    "ORDERINGS",
    "PREFIX_HEURISTICS",
]

#: Known placement heuristics.
HEURISTICS = ("first-fit", "best-fit", "worst-fit", "next-fit")

#: Heuristics whose ``M−1``-core pack is the ``M``-core partition when
#: that leaves core ``M−1`` empty, and fails otherwise (module docstring).
PREFIX_HEURISTICS = ("first-fit", "best-fit", "next-fit")

#: Known task orderings.
ORDERINGS = ("utilization", "rm", "input")


def _ordered_tasks(
    tasks: Sequence[RealTimeTask], ordering: str
) -> list[RealTimeTask]:
    if ordering == "utilization":
        return sorted(tasks, key=lambda t: (-t.utilization, t.name))
    if ordering == "rm":
        return sorted(tasks, key=lambda t: (t.period, -t.wcet, t.name))
    if ordering == "input":
        return list(tasks)
    raise ConfigError(
        f"unknown ordering {ordering!r}; known orderings: "
        f"{', '.join(ORDERINGS)}"
    )


class _RebuildCore:
    """A core admitted through an opaque test: each probe tests the
    core's task list rebuilt with the candidate appended."""

    __slots__ = ("_test", "_tasks")

    def __init__(self, test: AdmissionTest) -> None:
        self._test = test
        self._tasks: list[RealTimeTask] = []

    def admits(self, task: RealTimeTask) -> bool:
        return self._test([*self._tasks, task])

    def add(self, task: RealTimeTask) -> None:
        self._tasks.append(task)


def try_partition_tasks(
    tasks: Iterable[RealTimeTask],
    platform: Platform,
    heuristic: str = "best-fit",
    admission: str | AdmissionTest = "rta",
    ordering: str = "utilization",
) -> Partition | None:
    """Partition ``tasks`` onto ``platform``; ``None`` if the heuristic
    fails to place some task.

    Parameters
    ----------
    tasks:
        The real-time tasks to place.
    platform:
        Target platform.
    heuristic:
        One of :data:`HEURISTICS`.
    admission:
        Admission test name (see
        :func:`repro.analysis.schedulability.get_admission_test`) or a
        callable ``Sequence[RealTimeTask] -> bool``.
    ordering:
        One of :data:`ORDERINGS`; order in which tasks are placed.
    """
    if heuristic not in HEURISTICS:
        raise ConfigError(
            f"unknown heuristic {heuristic!r}; known heuristics: "
            f"{', '.join(HEURISTICS)}"
        )
    test: AdmissionTest = (
        get_admission_test(admission) if isinstance(admission, str) else admission
    )
    task_list = list(tasks)
    ordered = _ordered_tasks(task_list, ordering)

    # The default exact-RTA admission keeps incremental per-core state
    # (higher-priority response times cannot change when a task is
    # added below them), which answers each probe at a fraction of the
    # from-scratch cost with a bit-identical verdict.  Any other test —
    # a different name or a caller-supplied callable — rebuilds and
    # tests the core's task list on every probe.
    cores = [
        ExactAdmissionCore() if test is rta_test else _RebuildCore(test)
        for _ in platform
    ]
    # Running utilisation per core, and the cores in probe order as
    # sorted (key, core) pairs: best-fit ranks the fullest core first
    # and worst-fit the emptiest, ties broken by index; first-fit keeps
    # index order.  A placement moves only the chosen core's key, so
    # only that core is re-inserted instead of re-sorting every core
    # for every task.
    core_util = [0.0] * platform.num_cores
    order = [(0.0, m) for m in platform]
    assignment: dict[str, int] = {}
    next_fit_pointer = 0

    for task in ordered:
        if heuristic == "next-fit":
            chosen = next_fit_pointer
            while not cores[chosen].admits(task):
                chosen += 1
                if chosen == len(cores):
                    return None
            next_fit_pointer = chosen
        else:
            # Probing cores in key order means the first admitting core
            # is the one a sort-then-pick would choose, and no admission
            # test runs past it.
            for rank, (_, chosen) in enumerate(order):
                if cores[chosen].admits(task):
                    break
            else:
                return None
        cores[chosen].add(task)
        core_util[chosen] += task.utilization
        assignment[task.name] = chosen
        if heuristic == "best-fit" or heuristic == "worst-fit":
            util = core_util[chosen]
            del order[rank]
            insort(order, (-util if heuristic == "best-fit" else util, chosen))

    return Partition(platform, TaskSet(task_list), assignment)


def partition_tasks(
    tasks: Iterable[RealTimeTask],
    platform: Platform,
    heuristic: str = "best-fit",
    admission: str | AdmissionTest = "rta",
    ordering: str = "utilization",
) -> Partition:
    """Like :func:`try_partition_tasks` but raising
    :class:`~repro.errors.PartitioningError` on failure."""
    task_list = list(tasks)
    partition = try_partition_tasks(
        task_list, platform, heuristic=heuristic, admission=admission,
        ordering=ordering,
    )
    if partition is None:
        raise PartitioningError(
            f"{heuristic} failed to partition {len(task_list)} real-time "
            f"tasks onto {platform.num_cores} cores"
        )
    return partition
