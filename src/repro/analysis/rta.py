"""Exact response-time analysis (RTA) for fixed-priority preemptive
scheduling on a single core.

The classic Audsley/Joseph–Pandya recurrence: the worst-case response
time of a task with WCET ``C`` under interference from higher-priority
tasks ``(C_i, T_i)`` released synchronously is the least fixed point of

    R = C + Σ_i ⌈R / T_i⌉ · C_i.

The paper replaces the ceiling with the linear envelope ``1 + R/T`` to
stay inside geometric programming (Eq. 5); this module provides the exact
version, used (a) to admit real-time partitions and (b) by the exact-RTA
allocator ablation that quantifies the linearisation's pessimism.

A useful structural fact exploited by the ablation: the fixed point does
**not** depend on the analysed task's own period (only its WCET and the
interferers), so the exact minimal period of a lowest-priority security
task is simply ``max(T_des, R)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.errors import ValidationError
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask

__all__ = [
    "response_time",
    "response_time_env",
    "rta_schedulable",
    "core_response_times",
    "response_times_batch",
    "rta_schedulable_batch",
]

#: Safety cap on fixed-point iterations; the recurrence is monotone and
#: bounded by ``limit`` so this only guards against degenerate inputs.
_MAX_ITERATIONS = 100_000


def response_time(
    wcet: float,
    interferers: Iterable[Interferer] | Sequence[tuple[float, float]],
    limit: float = math.inf,
    blocking: float = 0.0,
) -> float:
    """Least fixed point of the RTA recurrence, or ``inf`` if it exceeds
    ``limit``.

    Parameters
    ----------
    wcet:
        WCET of the task under analysis.
    interferers:
        Higher-priority tasks, as :class:`Interferer` objects or plain
        ``(wcet, period)`` pairs.
    limit:
        Abandon the iteration once the response time exceeds this value
        (typically the task's deadline); returns ``inf`` in that case.
    blocking:
        Optional blocking term (e.g. from non-preemptive lower-priority
        execution); added once, outside the ceiling terms.
    """
    if wcet <= 0:
        raise ValidationError(f"wcet must be positive, got {wcet!r}")
    if blocking < 0:
        raise ValidationError(f"blocking must be non-negative: {blocking!r}")
    pairs = [
        (i.wcet, i.period) if isinstance(i, Interferer) else (i[0], i[1])
        for i in interferers
    ]
    for c, t in pairs:
        if c <= 0 or t <= 0:
            raise ValidationError(
                f"interferer needs positive wcet/period, got ({c!r}, {t!r})"
            )
    # Every sum adds left to right from 0.0: the builtin ``sum`` of
    # floats is compensated from Python 3.12 on, which would move the
    # response (and a verdict within an ulp of its deadline) with the
    # interpreter version.  First a quick divergence check: if the
    # interferers already saturate the core, the recurrence has no
    # finite fixed point.
    hp_utilization = 0.0
    for c, t in pairs:
        hp_utilization += c / t
    if hp_utilization >= 1.0:
        return math.inf

    acc = 0.0
    for c, _ in pairs:
        acc += c
    current = wcet + blocking + acc
    for _ in range(_MAX_ITERATIONS):
        if current > limit:
            return math.inf
        acc = 0.0
        for c, t in pairs:
            acc += math.ceil(current / t - 1e-12) * c
        nxt = wcet + blocking + acc
        if nxt <= current + 1e-12:
            return current
        current = nxt
    raise ValidationError(
        "response-time iteration failed to converge; input parameters are "
        "likely degenerate (extremely small periods vs. horizon)"
    )


def response_time_env(
    wcet: float,
    env: InterferenceEnv,
    limit: float = math.inf,
    blocking: float = 0.0,
) -> float:
    """:func:`response_time` over an :class:`InterferenceEnv`."""
    return response_time(wcet, env.interferers, limit=limit, blocking=blocking)


def core_response_times(
    tasks: Sequence[RealTimeTask],
) -> dict[str, float]:
    """Response time of every task on one core under RM order.

    ``tasks`` is the set of real-time tasks sharing a core; priorities
    follow the rate monotonic order (ties as in
    :func:`repro.model.priority.rate_monotonic_order`).  Returns a
    name → response-time mapping with ``inf`` marking unschedulable
    tasks.
    """
    ordered = rate_monotonic_order(tasks)
    results: dict[str, float] = {}
    higher: list[Interferer] = []
    for task in ordered:
        results[task.name] = response_time(
            task.wcet, higher, limit=task.deadline
        )
        higher.append(Interferer.from_rt(task))
    return results


def response_times_batch(
    wcets: np.ndarray | Sequence[float],
    periods: np.ndarray | Sequence[float],
    deadlines: np.ndarray | Sequence[float] | None = None,
    blocking: float = 0.0,
) -> np.ndarray:
    """Vectorised RTA for one core: all tasks' fixed points at once.

    ``wcets``/``periods`` list the core's tasks in priority order
    (highest first); task ``i`` suffers interference from tasks
    ``j < i``.  Solves every task's recurrence simultaneously with
    numpy — one ``O(n²)`` matrix iteration instead of ``n`` scalar
    fixed-point loops — and returns the response-time vector with
    ``inf`` marking tasks whose fixed point exceeds their deadline (or
    diverges).  It follows :func:`response_time`'s rules (same
    initialisation, same ``1e-12`` ceiling guard, same divergence
    precheck on the interferer utilisation), but numpy's row sum adds
    the interference terms in a different order, so a response time
    can differ from the scalar one by a few ulp — enough to flip a
    verdict whose deadline lies that close to the response time.

    ``deadlines`` defaults to no limit (``inf`` everywhere); pass the
    deadline vector to reproduce the ``limit`` behaviour of the scalar
    path.
    """
    wcet_vec = np.asarray(wcets, dtype=float)
    period_vec = np.asarray(periods, dtype=float)
    if wcet_vec.shape != period_vec.shape or wcet_vec.ndim != 1:
        raise ValidationError(
            "wcets and periods must be 1-D arrays of equal length"
        )
    n = wcet_vec.size
    if n == 0:
        return np.zeros(0)
    if np.any(wcet_vec <= 0) or np.any(period_vec <= 0):
        raise ValidationError("batched RTA needs positive wcets/periods")
    if blocking < 0:
        raise ValidationError(f"blocking must be non-negative: {blocking!r}")
    if deadlines is None:
        deadline_vec = np.full(n, math.inf)
    else:
        deadline_vec = np.asarray(deadlines, dtype=float)
        if deadline_vec.shape != wcet_vec.shape:
            raise ValidationError("deadlines must match the task count")

    # Tasks whose higher-priority interferers already saturate the core
    # have no finite fixed point (the scalar path's divergence precheck).
    utilization = wcet_vec / period_vec
    hp_utilization = np.concatenate(([0.0], np.cumsum(utilization)[:-1]))
    diverged = hp_utilization >= 1.0

    # mask[i, j] = 1 iff task j interferes with task i (strictly higher
    # priority); masked WCET matrix folds the Σ ⌈R/T_j⌉·C_j into one
    # matrix-vector product per iteration.
    mask = np.tri(n, k=-1)
    masked_wcet = mask * wcet_vec[None, :]

    result = np.where(diverged, math.inf, np.nan)

    # Active-task compaction: tasks settle after very different iteration
    # counts (high-priority tasks in one or two, the lowest priority in
    # dozens), so settled tasks are sliced out of the working arrays
    # instead of being re-iterated.  Slicing only drops *rows* of the
    # masked-WCET matrix — the interferer axis the per-task sum reduces
    # over is untouched — so every task's iterate sequence, and hence
    # the result, is bit-for-bit what the uncompacted loop produced.
    rows = np.flatnonzero(~diverged)
    cur = (wcet_vec + blocking + mask @ wcet_vec)[rows]
    mw = masked_wcet[rows]
    w = wcet_vec[rows]
    d = deadline_vec[rows]
    for _ in range(_MAX_ITERATIONS):
        if rows.size == 0:
            break
        # The recurrence is monotone: once the iterate exceeds the
        # deadline the fixed point does too, so those tasks are inf.
        over = cur > d
        if over.any():
            result[rows[over]] = math.inf
            keep = ~over
            rows = rows[keep]
            cur = cur[keep]
            mw = mw[keep]
            w = w[keep]
            d = d[keep]
            if rows.size == 0:
                break
        ceil_terms = np.ceil(cur[:, None] / period_vec[None, :] - 1e-12)
        nxt = w + blocking + (ceil_terms * mw).sum(axis=1)
        settled = nxt <= cur + 1e-12
        if settled.any():
            result[rows[settled]] = cur[settled]
            keep = ~settled
            rows = rows[keep]
            nxt = nxt[keep]
            mw = mw[keep]
            w = w[keep]
            d = d[keep]
        cur = nxt
    if rows.size:
        raise ValidationError(
            "batched response-time iteration failed to converge; input "
            "parameters are likely degenerate"
        )
    return result


def rta_schedulable_batch(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact RM schedulability via :func:`response_times_batch`.

    Agrees with :func:`rta_schedulable` except when a response time
    lies within a few ulp of its deadline (see
    :func:`response_times_batch`).  Backs the registered ``rta-batch``
    admission test.
    """
    if not len(tasks):
        return True
    ordered = rate_monotonic_order(tasks)
    deadlines = np.array([task.deadline for task in ordered])
    responses = response_times_batch(
        [task.wcet for task in ordered],
        [task.period for task in ordered],
        deadlines,
    )
    return bool(np.all(responses <= deadlines + 1e-9))


def rta_schedulable(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact schedulability of one core's real-time tasks under RM.

    True iff every task's response time is at most its own deadline;
    stops at the first task (in priority order) that misses.  This is
    the admission test used by the partitioning heuristics (the paper
    assumes "real-time tasks are schedulable and assigned to the cores
    using existing multicore task partitioning algorithms").
    """
    return _schedulable_with_blocking(tasks, 0.0)


def _schedulable_with_blocking(
    tasks: Sequence[RealTimeTask], blocking: float
) -> bool:
    """Walk ``tasks`` in RM order and check each one's response time,
    with ``blocking`` added once, against its own deadline; stop at the
    first miss.  Shared by :func:`rta_schedulable` and
    :func:`repro.analysis.blocking.rt_schedulable_with_blocking`."""
    higher: list[Interferer] = []
    for task in rate_monotonic_order(tasks):
        response = response_time(
            task.wcet, higher, limit=task.deadline, blocking=blocking
        )
        if not response <= task.deadline + 1e-9:
            return False
        higher.append(Interferer.from_rt(task))
    return True
