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
* **Warm starts.**  Each resident's response time, or a lower bound
  on it, is cached.  Response times are monotone in the interferer
  set, so the cached value is a valid lower bound for the re-solve
  with the candidate added, and the monotone fixed-point iteration
  started there ascends the same guarded staircase to the same least
  fixed point — in one or two steps instead of replaying the whole
  Kleene chain from below.
* **Bound first.**  Before each fixed point, the response-time upper
  bound of Bini, Nguyen, Richard and Baruah (IEEE Trans. Computers,
  2009), ``R ≤ (C + Σ_hp C_j(1 − U_j)) / (1 − Σ_hp U_j)``, is compared
  with the deadline (:func:`response_time_bound`).  When it proves the
  task fits with a relative margin of ``1e-9``, the fixed point is
  skipped and the task keeps a lower bound on its response instead: a
  resident its previous cached response, the candidate the cold-start
  iterate ``C + Σ_hp C_j``.  Responses only grow as tasks are added,
  so the cache stays a valid warm start for every later solve.

All four properties are decision-preserving, so the verdict is
identical to calling :func:`repro.analysis.schedulability.rta_test` on
the rebuilt task list at every core size — pinned by an equivalence
property suite (including deadlines within an ulp of the response
time) and the golden fixtures.  Cached responses are lower bounds,
not the from-scratch floats: only the verdicts are promised.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from repro.analysis.rta import _MAX_ITERATIONS
from repro.errors import ValidationError
from repro.model.task import RealTimeTask

__all__ = ["ExactAdmissionCore", "response_time_bound"]

#: Safety margin on the higher-priority-utilisation divergence cut-off:
#: large enough to absorb summation round-off between the incremental
#: running total and the reference's left-to-right exact sum, so the
#: O(1) rejection only fires where the reference's own ``Σ_hp C/T >= 1``
#: precheck provably also diverges.
_UTILIZATION_MARGIN = 1e-7

#: Relative safety margin on the response-time bound: the fixed point
#: is skipped only when the bound lies below ``D·(1 − 1e-9)``, so the
#: round-off of the bound's own sums can never admit a task that the
#: exact analysis rejects.
_BOUND_MARGIN = 1e-9
_BOUND_SCALE = 1.0 - _BOUND_MARGIN


def response_time_bound(
    wcet: float, pairs: Iterable[tuple[float, float]]
) -> float:
    """Upper bound on ``response_time(wcet, pairs)``.

    The bound of Bini, Nguyen, Richard and Baruah (IEEE Trans.
    Computers, 2009): with ``U_j = C_j/T_j`` over the higher-priority
    ``(C_j, T_j)`` pairs,

        R ≤ (C + Σ_j C_j(1 − U_j)) / (1 − Σ_j U_j),

    and ``inf`` when ``Σ_j U_j ≥ 1``.  With no interferers it is the
    exact response ``C``.
    """
    utilization = slack = 0.0
    for c, t in pairs:
        u = c / t
        utilization += u
        slack += c * (1.0 - u)
    return _bound(wcet, utilization, slack)


def _bound(wcet: float, utilization: float, slack: float) -> float:
    """:func:`response_time_bound` from the interferers' running sums
    ``Σ U_j`` and ``Σ C_j(1 − U_j)``."""
    if utilization >= 1.0:
        return math.inf
    return (wcet + slack) / (1.0 - utilization)


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
    ``(C, T)`` pairs in rate-monotonic order alongside the terms of the
    response-time bound and cached lower bounds on their response
    times, ready to feed the bound and the fixed-point loop without
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
        # One entry per resident, RM-sorted: (rm_key, (wcet, period),
        # deadline, U, C(1 − U)); the last two feed the response-time
        # bound of every task below it.
        self._entries: list[
            tuple[
                tuple[float, float, str],
                tuple[float, float],
                float,
                float,
                float,
            ]
        ] = []
        # Cached lower bound on each resident's response time, parallel
        # to ``_entries``: the exact response where a fixed point ran,
        # an earlier value where the bound decided (``inf`` = past
        # deadline).
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
        wcet, period = task.wcet, task.period
        util = wcet / period
        self._entries.insert(
            pos,
            (key, (wcet, period), task.deadline, util, wcet * (1.0 - util)),
        )
        self._responses = responses
        self._utilization += util
        self._pending = None
        self._feasible = all(
            r <= entry[2] + 1e-9
            for r, entry in zip(responses, self._entries)
        )

    def _solve_with_inserted(
        self, pos: int, task: RealTimeTask, stop_at_miss: bool = False
    ) -> list[float] | None:
        """Lower bounds on the response times of all current residents
        plus ``task`` inserted at ``pos`` — computed against the
        *pre-insert* ``_entries``/``_responses`` state.

        Residents above ``pos`` keep their cached responses.  For the
        candidate and each resident below it, the response-time bound
        is checked first: if it fits the deadline, the candidate gets
        its cold-start iterate ``C + Σ_hp C`` and a resident keeps its
        cached response.  Otherwise the task runs the exact fixed
        point, a resident warm-started from its cached response, over
        an interferer list that grows in RM order so each fixed point
        matches the from-scratch evaluation.  With ``stop_at_miss`` the
        solve returns ``None`` at the first task past its deadline.
        """
        entries = self._entries
        cached = self._responses
        hp_pairs: list[tuple[float, float]] = []
        # Σ C, Σ U and Σ C(1 − U) over ``hp_pairs``, left to right from
        # 0.0, so Σ C is the very sum ``_fixed_point`` starts from.
        hp_wcet = hp_util = hp_slack = 0.0
        for _, pair, _, util, slack in entries[:pos]:
            hp_pairs.append(pair)
            hp_wcet += pair[0]
            hp_util += util
            hp_slack += slack
        wcet, period, deadline = task.wcet, task.period, task.deadline
        if _bound(wcet, hp_util, hp_slack) <= deadline * _BOUND_SCALE:
            cand = wcet + hp_wcet
        else:
            cand = _fixed_point(wcet, hp_pairs, deadline)
            if stop_at_miss and not cand <= deadline + 1e-9:
                return None
        responses = cached[:pos]
        responses.append(cand)
        hp_pairs.append((wcet, period))
        util = wcet / period
        hp_util += util
        hp_slack += wcet * (1.0 - util)
        for idx in range(pos, len(entries)):
            _, pair, deadline, util, slack = entries[idx]
            r = cached[idx]
            if _bound(pair[0], hp_util, hp_slack) > deadline * _BOUND_SCALE:
                r = _fixed_point(pair[0], hp_pairs, deadline, start=r)
                if stop_at_miss and not r <= deadline + 1e-9:
                    return None
            responses.append(r)
            hp_pairs.append(pair)
            hp_util += util
            hp_slack += slack
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
