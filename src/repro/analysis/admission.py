"""Incremental exact-RTA admission for the partitioning inner loop.

The bin-packing heuristics (:mod:`repro.partition.heuristics`) ask one
question thousands of times per utilisation sweep: *would this core
still be schedulable with this task added?*  The generic formulation —
rebuild the candidate task list, re-sort it, re-run response-time
analysis on every task — discards everything the previous probe
already proved.  :class:`ExactAdmissionCore` keeps per-core state so a
probe only pays for what the candidate can actually change:

* **Divergence cut-off.**  When the *higher-priority* utilisation seen
  by the lowest-priority task reaches 1, its fixed point diverges and
  the reference test rejects, so such probes are rejected in O(1)
  without touching any fixed point.  (Total utilisation > 1 alone is
  *not* used: the reference checks first-job response times only, and
  those can all pass even on an overloaded core.)  The comparison
  carries a ``1e-7`` safety margin so it can only fire where the
  reference's own exact-sum precheck provably also diverges.
* **Higher-priority invariance.**  A task's response time depends only
  on its *higher-priority* interferers, and every resident task was
  verified when it was admitted.  Adding a candidate therefore leaves
  all higher-priority residents' response times bit-for-bit unchanged
  — only the candidate itself and the residents below it need solving.
* **Warm starts.**  Each resident's current response time is cached.
  Response times are monotone in the interferer set, so the cached
  value is a valid lower bound for the re-solve with the candidate
  added, and the monotone fixed-point iteration started there ascends
  the same guarded staircase to the same least fixed point — in one or
  two steps instead of replaying the whole Kleene chain from below.

All three properties are decision-preserving, so the verdict is
identical to calling :func:`repro.analysis.schedulability.rta_test` on
the rebuilt task list at every core size — pinned by an equivalence
property suite (including deadlines within an ulp of the response
time) and the golden fixtures.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from repro.analysis.rta import _MAX_ITERATIONS
from repro.errors import ValidationError
from repro.model.task import RealTimeTask

__all__ = ["ExactAdmissionCore"]

#: Safety margin on the higher-priority-utilisation divergence cut-off:
#: large enough to absorb summation round-off between the incremental
#: running total and the reference's left-to-right exact sum, so the
#: O(1) rejection only fires where the reference's own ``Σ_hp C/T >= 1``
#: precheck provably also diverges.
_UTILIZATION_MARGIN = 1e-7


def _rm_key(task: RealTimeTask) -> tuple[float, float, str]:
    """Rate-monotonic sort key — must match
    :func:`repro.model.priority.rate_monotonic_order` exactly so probes
    see the same priority order the from-scratch test would build."""
    return (task.period, -task.wcet, task.name)


def _insertion_point(
    entries: list[tuple], key: tuple[float, float, str]
) -> int:
    """Where a task with RM ``key`` joins the RM-sorted ``entries``:
    after every resident with an equal key, as the stable sort in
    ``rate_monotonic_order`` places a task appended to the residents."""
    return bisect_right(entries, key, key=itemgetter(0))


def _fixed_point(
    wcet: float,
    pairs: list[tuple[float, float]],
    limit: float,
    start: float | None = None,
) -> float:
    """Lean twin of :func:`repro.analysis.rta.response_time`.

    Identical numerics — same left-to-right accumulation order, same
    divergence precheck, same ``1e-12`` ceiling guard and convergence
    tolerance — with the per-call validation stripped: the admission
    state only ever feeds it ``(C, T)`` pairs it has already validated
    on :meth:`ExactAdmissionCore.add`, and this runs tens of thousands
    of times per utilisation sweep.

    ``start`` warm-starts the iteration from a known lower bound on the
    fixed point (a cached response time from a smaller interferer set).
    The recurrence is monotone, so any start below the least fixed
    point converges to it; ``inf`` short-circuits (a resident already
    past its deadline can only get worse).
    """
    if start is not None and math.isinf(start):
        return math.inf
    hp_utilization = 0.0
    for c, t in pairs:
        hp_utilization += c / t
    if hp_utilization >= 1.0:
        return math.inf
    if start is None:
        # Accumulate interference sums from 0.0 and add ``wcet`` last,
        # exactly as ``wcet + sum(...)`` groups the additions — any
        # other grouping rounds differently and breaks
        # bit-compatibility with the scalar reference.
        acc = 0.0
        for c, _ in pairs:
            acc += c
        current = wcet + acc
    else:
        current = start
    ceil = math.ceil
    for _ in range(_MAX_ITERATIONS):
        if current > limit:
            return math.inf
        acc = 0.0
        for c, t in pairs:
            acc += ceil(current / t - 1e-12) * c
        nxt = wcet + acc
        if nxt <= current + 1e-12:
            return current
        current = nxt
    raise ValidationError(
        "response-time iteration failed to converge; input parameters "
        "are likely degenerate (extremely small periods vs. horizon)"
    )


class ExactAdmissionCore:
    """Mutable admission state of one core under exact RM analysis.

    :meth:`admits` is a pure query (would the core accept this task?);
    :meth:`add` commits a placement.  Residents are kept as plain
    ``(C, T)`` pairs in rate-monotonic order alongside their cached
    response times, ready to feed the fixed-point loop without
    building intermediate objects.
    """

    __slots__ = (
        "_entries",
        "_responses",
        "_utilization",
        "_pending",
        "_feasible",
    )

    def __init__(self, tasks: Iterable[RealTimeTask] = ()) -> None:
        """Start from an empty core, optionally pre-placing ``tasks``
        without admission checks.

        Pre-placed tasks need *not* be schedulable: each
        :meth:`add` recomputes the residents' response times, and a core
        with any resident past its deadline simply rejects every
        subsequent probe (exactly as the from-scratch reference test
        would, since response times are monotone in the task set).
        """
        # One entry per resident, RM-sorted:
        # (rm_key, (wcet, period), deadline).
        self._entries: list[
            tuple[tuple[float, float, str], tuple[float, float], float]
        ] = []
        # Cached response time per resident (``inf`` = past deadline),
        # parallel to ``_entries``.
        self._responses: list[float] = []
        self._utilization = 0.0
        # Responses computed by the last *accepting* probe, keyed by
        # (rm_key, deadline) so a matching ``add`` can splice them in
        # instead of re-solving.
        self._pending: (
            tuple[tuple[tuple[float, float, str], float], list[float]] | None
        ) = None
        # False once any resident's cached response exceeds its
        # deadline: every later probe is then rejected outright, which
        # matches the reference (a failing resident only gets worse as
        # tasks are added).
        self._feasible = True
        for task in tasks:
            self.add(task)

    def __len__(self) -> int:
        """Number of tasks placed on the core."""
        return len(self._entries)

    @property
    def utilization(self) -> float:
        """Total utilisation ``Σ C/T`` of the placed tasks."""
        return self._utilization

    def add(self, task: RealTimeTask) -> None:
        """Commit ``task`` to the core (no admission check)."""
        key = _rm_key(task)
        pos = _insertion_point(self._entries, key)
        if self._pending is not None and self._pending[0] == (
            key,
            task.deadline,
        ):
            # The heuristics always commit the task their accepting
            # probe just verified — reuse that probe's responses.
            responses = self._pending[1]
        else:
            responses = self._solve_with_inserted(pos, task)
        self._entries.insert(
            pos, (key, (task.wcet, task.period), task.deadline)
        )
        self._responses = responses
        self._utilization += task.wcet / task.period
        self._pending = None
        self._feasible = all(
            r <= entry[2] + 1e-9
            for r, entry in zip(responses, self._entries)
        )

    def _solve_with_inserted(
        self, pos: int, task: RealTimeTask, stop_at_miss: bool = False
    ) -> list[float] | None:
        """Response times of all current residents plus ``task``
        inserted at ``pos`` — computed against the *pre-insert*
        ``_entries``/``_responses`` state.

        Residents above ``pos`` keep their cached responses; residents
        below re-solve with ``task`` as an extra interferer,
        warm-started from their cached responses, and the interferer
        list grows in RM order so each fixed point matches the
        from-scratch evaluation.  With ``stop_at_miss`` the solve
        returns ``None`` at the first task past its deadline.
        """
        entries = self._entries
        hp_pairs = [entry[1] for entry in entries[:pos]]
        cand = _fixed_point(task.wcet, hp_pairs, task.deadline)
        if stop_at_miss and not cand <= task.deadline + 1e-9:
            return None
        responses = self._responses[:pos] + [cand]
        hp_pairs.append((task.wcet, task.period))
        for idx in range(pos, len(entries)):
            _, pair, deadline = entries[idx]
            r = _fixed_point(
                pair[0], hp_pairs, deadline, start=self._responses[idx]
            )
            if stop_at_miss and not r <= deadline + 1e-9:
                return None
            responses.append(r)
            hp_pairs.append(pair)
        return responses

    def admits(self, task: RealTimeTask) -> bool:
        """Would the core stay RM-schedulable with ``task`` added?

        Identical verdict to ``rta_test([*placed_tasks, task])`` at a
        fraction of the work.
        """
        self._pending = None
        if not self._feasible:
            # Some resident already misses its deadline; adding more
            # work cannot fix it, and the reference test would see the
            # same failing resident.
            return False
        key = _rm_key(task)
        pos = _insertion_point(self._entries, key)
        # O(1) divergence cut-off: the lowest-priority task after
        # insertion sees every other task as higher priority.  If that
        # higher-priority utilisation reaches 1 its fixed point
        # diverges, so the reference test rejects too.  (Total
        # utilisation > 1 alone is NOT sufficient — rta_test checks
        # first-job response times only, and those can all pass on an
        # overloaded core as long as each task's own hp-utilisation
        # stays below 1.)
        if self._entries and pos == len(self._entries):
            lowest_util = task.wcet / task.period
        elif self._entries:
            last_pair = self._entries[-1][1]
            lowest_util = last_pair[0] / last_pair[1]
        else:
            lowest_util = task.wcet / task.period
        if (
            self._utilization + task.wcet / task.period - lowest_util
            >= 1.0 + _UTILIZATION_MARGIN
        ):
            return False
        responses = self._solve_with_inserted(pos, task, stop_at_miss=True)
        if responses is None:
            return False
        self._pending = ((key, task.deadline), responses)
        return True
