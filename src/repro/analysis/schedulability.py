"""Schedulability tests for fixed-priority single cores and partitioned
systems.

The partitioning heuristics (paper Sec. IV-B uses best-fit) need an
admission test for "does this core still accept this task".  Three tests
of increasing precision are provided:

* :func:`liu_layland_test` — the classic ``U ≤ n(2^{1/n} − 1)`` bound.
* :func:`hyperbolic_test` — Bini–Buttazzo ``Π(U_i + 1) ≤ 2``, strictly
  dominates Liu–Layland.
* :func:`rta_test` — exact response-time analysis, the default.

:func:`partition_schedulable` verifies a complete partition core by
core; :func:`system_schedulable` additionally checks an allocated
security workload (each security task must meet its assigned period on
its assigned core).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from repro.analysis.interference import InterferenceEnv
from repro.analysis.rta import (
    response_time,
    rta_schedulable,
    rta_schedulable_batch,
)
from repro.model.system import Partition
from repro.model.task import RealTimeTask, SecurityTask

__all__ = [
    "liu_layland_bound",
    "liu_layland_test",
    "hyperbolic_test",
    "utilization_test",
    "rta_test",
    "rta_batch_test",
    "AdmissionTest",
    "ADMISSION_TESTS",
    "get_admission_test",
    "partition_schedulable",
    "security_schedulable_on_core",
    "breakdown_utilization",
]

#: Signature of a per-core admission test: given the full set of
#: real-time tasks proposed for one core, return whether the core can
#: schedule all of them under RM.
AdmissionTest = Callable[[Sequence[RealTimeTask]], bool]


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilisation bound ``n(2^{1/n} − 1)`` for ``n``
    tasks (→ ln 2 ≈ 0.693 as ``n`` grows)."""
    if n <= 0:
        return 0.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def liu_layland_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Sufficient RM test: total utilisation within the LL bound."""
    total = sum(task.utilization for task in tasks)
    return total <= liu_layland_bound(len(tasks)) + 1e-12


def hyperbolic_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Bini–Buttazzo hyperbolic bound: ``Π (U_i + 1) ≤ 2``."""
    product = 1.0
    for task in tasks:
        product *= task.utilization + 1.0
        if product > 2.0 + 1e-12:
            return False
    return True


def utilization_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Necessary-only test ``Σ U ≤ 1``; useful as the most permissive
    admission policy for design-space exploration."""
    return sum(task.utilization for task in tasks) <= 1.0 + 1e-12


def rta_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact RM schedulability via scalar response-time analysis
    (:func:`repro.analysis.rta.rta_schedulable`), the default test at
    every core size."""
    return rta_schedulable(tasks)


def rta_batch_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact RM schedulability via the numpy solver
    (:func:`repro.analysis.rta.rta_schedulable_batch`); agrees with
    :func:`rta_test` except when a response time lies within a few ulp
    of its deadline."""
    return rta_schedulable_batch(tasks)


_TESTS: dict[str, AdmissionTest] = {
    "rta": rta_test,
    "rta-batch": rta_batch_test,
    "hyperbolic": hyperbolic_test,
    "liu-layland": liu_layland_test,
    "utilization": utilization_test,
}


#: Known admission-test names, in registration order (the scenario
#: validator and the CLI list consume this instead of private state).
ADMISSION_TESTS = tuple(_TESTS)


def get_admission_test(name: str) -> AdmissionTest:
    """Look up an admission test by name (``rta``, ``hyperbolic``,
    ``liu-layland`` or ``utilization``)."""
    try:
        return _TESTS[name]
    except KeyError:
        from repro.errors import ConfigError

        raise ConfigError(
            f"unknown admission test {name!r}; known tests: "
            f"{', '.join(sorted(_TESTS))}"
        ) from None


def partition_schedulable(
    partition: Partition, test: AdmissionTest = rta_test
) -> bool:
    """Whether every core of ``partition`` passes ``test``."""
    return all(
        test(partition.tasks_on(core)) for core in partition.platform
    )


def security_schedulable_on_core(
    task: SecurityTask,
    period: float,
    rt_tasks: Iterable[RealTimeTask],
    hp_security: Iterable[tuple[SecurityTask, float]] = (),
    exact: bool = False,
) -> bool:
    """Does ``task`` meet its deadline (= ``period``) on a core?

    With ``exact=False`` (default) uses the paper's linearised Eq. (6);
    with ``exact=True`` uses exact RTA.  ``hp_security`` carries the
    higher-priority security tasks already placed on the core together
    with their assigned periods.
    """
    env = InterferenceEnv.on_core(rt_tasks, list(hp_security))
    if exact:
        return response_time(task.wcet, env.interferers, limit=period) <= (
            period + 1e-9
        )
    return task.wcet + env.interference(period) <= period + 1e-9


def breakdown_utilization(
    tasks: Sequence[RealTimeTask],
    test: AdmissionTest = rta_test,
    tolerance: float = 1e-4,
) -> float:
    """Largest uniform scaling factor ``s`` such that the task set with
    WCETs ``s·C`` still passes ``test`` on one core.

    A classic sensitivity metric; exposed for the ablation studies.  Uses
    bisection on ``s ∈ (0, 1/U]``.
    """
    total = sum(task.utilization for task in tasks)
    if total <= 0:
        return math.inf

    def scaled_ok(scale: float) -> bool:
        """Whether the set stays schedulable with WCETs scaled."""
        scaled = [
            RealTimeTask(
                name=t.name,
                wcet=t.wcet * scale,
                period=t.period,
                deadline=t.deadline,
            )
            for t in tasks
            if t.wcet * scale > 0
        ]
        try:
            return test(scaled)
        except Exception:
            return False

    low, high = 0.0, 1.0 / total
    if scaled_ok(high):
        return high
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if scaled_ok(mid):
            low = mid
        else:
            high = mid
    return low
