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
  without touching any fixed point.  The comparison carries a ``1e-7``
  safety margin so it can only fire where the reference's own
  exact-sum precheck provably also diverges.  (Total utilisation above
  1 is not used.  With constrained deadlines ``D ≤ T`` the
  lowest-priority task responds no sooner than ``C/(1 − U_hp)``, which
  passes its period once the total exceeds 1, so the reference rejects
  such a core too, at every time scale: its fixed point stops on a
  ``1e-12`` step relative to the iterate, which can hide an excess of
  a few ``1e-12`` at most.  The higher-priority sum needs no such
  argument: ``Σ_hp U ≥ 1`` makes the reference's own precheck
  diverge.)
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
* **Lowest-priority resident first.**  The core's last resident sees
  every other task as interference, so it is the task most likely to
  miss once a candidate joins above it.  A probe checks it before the
  candidate and the residents in between, and a rejection usually
  costs that one fixed point.  Its interferers and bound sums are the
  ones the top-down walk would give it, so the verdict and every
  response are unchanged.

All five properties are decision-preserving, so the verdict is
identical to calling :func:`repro.analysis.schedulability.rta_test` on
the rebuilt task list at every core size — pinned by an equivalence
property suite (including deadlines within an ulp of the response
time) and the golden fixtures.  Cached responses are lower bounds,
not the from-scratch floats: only the verdicts are promised.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
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

    :class:`ExactAdmissionCore` evaluates the same bound from running
    sums (:func:`_bound`); this pairwise form is the oracle the tests
    hold above :func:`~repro.analysis.rta.response_time`, which pins the
    bound the admission core skips fixed points on.
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


def _resum(prefix: list[float], terms: Iterable[float], pos: int) -> None:
    """Rebuild the running sums ``prefix`` from index ``pos`` on, adding
    ``terms`` (the summands from ``pos`` on) left to right."""
    prefix[pos:] = accumulate(terms, initial=prefix[pos])


def _fixed_point(
    wcet: float,
    pairs: list[tuple[float, float]],
    limit: float,
    start: float | None = None,
) -> float:
    """Lean twin of :func:`repro.analysis.rta.response_time`.

    Identical numerics — same left-to-right accumulation order, same
    divergence precheck, same ``1e-12`` ceiling guard and relative
    convergence step — with the per-call validation stripped: the admission
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
        if nxt <= current * (1.0 + 1e-12):
            return current
        current = nxt
    raise ValidationError(
        "response-time iteration failed to converge; input parameters "
        "are likely degenerate (extremely small periods vs. horizon)"
    )


class ExactAdmissionCore:
    """Mutable admission state of one core under exact RM analysis.

    :meth:`admits` is a pure query (would the core accept this task?);
    :meth:`add` commits a placement.  Residents are kept as parallel
    lists in rate-monotonic order — plain RM keys, ``(C, T)`` pairs,
    deadlines, the bound's terms ``U`` and ``C(1 − U)``, prefix sums of
    ``C``, ``U`` and ``C(1 − U)``, and cached lower bounds on their
    response times — so a probe reads its candidate's interference sums
    off the prefixes and slices its interferers, with no loop over the
    residents above it.
    """

    __slots__ = (
        "_keys", "_pairs", "_deadlines", "_utils", "_slacks",
        "_prefix_wcet", "_prefix_util", "_prefix_slack",
        "_responses", "_utilization", "_pending", "_feasible",
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
        # One entry per resident in each, RM-sorted: the RM key (for
        # ``bisect_right``), ``(C, T)``, the deadline, and ``U`` and
        # ``C(1 − U)``, which feed the response-time bound of every
        # task below it.
        self._keys: list[tuple[float, float, str]] = []
        self._pairs: list[tuple[float, float]] = []
        self._deadlines: list[float] = []
        self._utils: list[float] = []
        self._slacks: list[float] = []
        # Σ C, Σ U and Σ C(1 − U) over the first i residents at index i,
        # added left to right from 0.0: the very floats a loop over the
        # residents above an insertion point accumulates, so Σ C is the
        # sum ``_fixed_point`` starts from.
        self._prefix_wcet = [0.0]
        self._prefix_util = [0.0]
        self._prefix_slack = [0.0]
        # Cached lower bound on each resident's response time: the exact
        # response where a fixed point ran, an earlier value where the
        # bound decided (``inf`` = past deadline).
        self._responses: list[float] = []
        # Σ U in add order, for the divergence cut-off.
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

    def add(self, task: RealTimeTask) -> None:
        """Commit ``task`` to the core (no admission check)."""
        key = _rm_key(task)
        pos = bisect_right(self._keys, key)
        # The heuristics always commit the task their accepting probe
        # just verified — reuse that probe's responses, which it found
        # all within their deadlines.
        reuse = self._pending is not None and self._pending[0] == (
            key,
            task.deadline,
        )
        responses = (
            self._pending[1] if reuse else self._solve_with_inserted(pos, task)
        )
        wcet, period = task.wcet, task.period
        util = wcet / period
        self._keys.insert(pos, key)
        self._pairs.insert(pos, (wcet, period))
        self._deadlines.insert(pos, task.deadline)
        self._utils.insert(pos, util)
        self._slacks.insert(pos, wcet * (1.0 - util))
        _resum(self._prefix_wcet, map(itemgetter(0), self._pairs[pos:]), pos)
        _resum(self._prefix_util, self._utils[pos:], pos)
        _resum(self._prefix_slack, self._slacks[pos:], pos)
        self._responses = responses
        self._utilization += util
        self._pending = None
        if not reuse:
            self._feasible = all(
                r <= d + 1e-9 for r, d in zip(responses, self._deadlines)
            )

    def _solve_with_inserted(
        self, pos: int, task: RealTimeTask, stop_at_miss: bool = False
    ) -> list[float] | None:
        """Lower bounds on the response times of all current residents
        plus ``task`` inserted at ``pos`` — computed against the
        *pre-insert* state.

        Residents above ``pos`` keep their cached responses.  For the
        candidate and each resident below it, the response-time bound
        is checked first: if it fits the deadline, the candidate gets
        its cold-start iterate ``C + Σ_hp C`` and a resident keeps its
        cached response.  Otherwise the task runs the exact fixed
        point, a resident warm-started from its cached response, over
        its interferers in RM order, with the bound's sums added in RM
        order too, so each fixed point matches the from-scratch
        evaluation.  The lowest-priority resident is solved first, then
        the candidate and the residents in between; with
        ``stop_at_miss`` the solve returns ``None`` at the first task
        past its deadline.
        """
        pairs, deadlines, cached = self._pairs, self._deadlines, self._responses
        wcet, period, deadline = task.wcet, task.period, task.deadline
        last = len(pairs) - 1
        if pos <= last:
            # Every lower resident's interferers, Σ U and Σ C(1 − U): the
            # candidate's prefix sums, then the candidate, then the
            # residents in between, in RM order.
            util = wcet / period
            hp_pairs = pairs[:last]
            hp_pairs.insert(pos, (wcet, period))
            hp_utils = list(accumulate(
                self._utils[pos:last], initial=self._prefix_util[pos] + util
            ))
            hp_slacks = list(accumulate(
                self._slacks[pos:last],
                initial=self._prefix_slack[pos] + wcet * (1.0 - util),
            ))
            lowest, limit = cached[last], deadlines[last]
            c = pairs[last][0]
            if _bound(c, hp_utils[-1], hp_slacks[-1]) > limit * _BOUND_SCALE:
                lowest = _fixed_point(c, hp_pairs, limit, start=lowest)
                if stop_at_miss and not lowest <= limit + 1e-9:
                    return None
        hp_util, hp_slack = self._prefix_util[pos], self._prefix_slack[pos]
        if _bound(wcet, hp_util, hp_slack) <= deadline * _BOUND_SCALE:
            cand = wcet + self._prefix_wcet[pos]
        else:
            cand = _fixed_point(wcet, pairs[:pos], deadline)
            if stop_at_miss and not cand <= deadline + 1e-9:
                return None
        responses = cached[:pos]
        responses.append(cand)
        if pos > last:
            return responses
        for idx in range(pos, last):
            r, limit, c = cached[idx], deadlines[idx], pairs[idx][0]
            hp = idx - pos
            if _bound(c, hp_utils[hp], hp_slacks[hp]) > limit * _BOUND_SCALE:
                r = _fixed_point(c, hp_pairs[: idx + 1], limit, start=r)
                if stop_at_miss and not r <= limit + 1e-9:
                    return None
            responses.append(r)
        responses.append(lowest)
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
        pos = bisect_right(self._keys, key)
        # O(1) divergence cut-off: the lowest-priority task after
        # insertion sees every other task as higher priority.  If that
        # higher-priority utilisation reaches 1 its fixed point
        # diverges, so the reference test rejects too.  (The total
        # utilisation is not compared: the reference's fixed point
        # stops once an iterate grows by at most a relative 1e-12, so
        # a total just above 1 would need a margin argument that this
        # cut-off does not — see the module docstring.)
        util = task.wcet / task.period
        lowest_util = self._utils[-1] if pos < len(self._utils) else util
        if (
            self._utilization + util - lowest_util
            >= 1.0 + _UTILIZATION_MARGIN
        ):
            return False
        responses = self._solve_with_inserted(pos, task, stop_at_miss=True)
        if responses is None:
            return False
        self._pending = ((key, task.deadline), responses)
        return True
