"""Intrusion detection-time measurement (paper Sec. IV-A, Fig. 1).

The paper assumes "intrusions are correctly detected by the security
tasks (e.g., there is no false positive/negative errors)": an attack on
surface σ is noticed by the first sufficiently-fresh job of a security
task monitoring σ.  Two freshness policies are provided:

* ``"release-after"`` (default): the detecting job must have been
  *released* at or after the attack instant — the conservative reading
  (a check that was already queued may have captured pre-attack state).
* ``"start-after"``: the job must have *started executing* after the
  attack; slightly more optimistic (a queued-but-not-started check scans
  the compromised state).

Detection time is the detecting job's completion minus the attack time;
``inf`` when no qualifying job completes inside the simulated horizon.
An ``inf`` is ambiguous on its own: if *some* security task monitors the
attacked surface the sample is merely **censored** by the horizon (a
later job would have caught it), whereas an unmonitored surface is
**undetectable** forever.  :func:`undetected_breakdown` separates the
two so reports never have to print a bare ``inf``.

Scoring many attacks against one run uses :class:`DetectionIndex`: a
per-monitor anchor-sorted array with a suffix-minimum over completion
times, turning the naive O(jobs × attacks) rescan into
O(jobs·log jobs + attacks·log jobs).  It indexes a task on its first
query, from that task's columns alone (``SimResult.track``), so tasks
no attack asks about cost nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError
from repro.model.task import SecurityTask, TaskSet
from repro.sim.attacks import Attack
from repro.sim.engine import SimResult

__all__ = [
    "build_surface_map",
    "detection_time",
    "detection_times",
    "undetected_breakdown",
    "DetectionIndex",
    "DETECTION_POLICIES",
]

DETECTION_POLICIES = ("release-after", "start-after")

#: Slack applied when comparing a job's anchor against the attack time,
#: mirroring the float tolerance of the reference scan.
_ANCHOR_TOL = 1e-9


def build_surface_map(
    security_tasks: TaskSet | Iterable[SecurityTask],
) -> dict[str, list[str]]:
    """surface → names of security tasks that monitor it."""
    result: dict[str, list[str]] = {}
    for task in security_tasks:
        if task.surface:
            result.setdefault(task.surface, []).append(task.name)
    return result


def detection_time(
    result: SimResult,
    attack: Attack,
    surface_map: Mapping[str, Sequence[str]],
    policy: str = "release-after",
) -> float:
    """Time from ``attack`` to its detection in ``result`` (or ``inf``)."""
    if policy not in DETECTION_POLICIES:
        raise ValidationError(
            f"unknown detection policy {policy!r}; expected one of "
            f"{DETECTION_POLICIES}"
        )
    monitors = surface_map.get(attack.surface, ())
    if not monitors:
        return math.inf
    monitor_set = set(monitors)
    best = math.inf
    for job in result.jobs:
        if job.task not in monitor_set or job.completion is None:
            continue
        anchor = job.release if policy == "release-after" else job.start
        if anchor is None:
            continue
        if anchor >= attack.time - 1e-9 and job.completion < best:
            best = job.completion
    if math.isinf(best):
        return math.inf
    return best - attack.time


class DetectionIndex:
    """Pre-sorted view of one run's finished monitor jobs.

    For each task the finished jobs are sorted by their policy anchor
    (release or start instant); alongside the anchors a suffix-minimum
    array of completion times answers "earliest completion among jobs
    anchored at or after *t*" with one bisection.  Queries are therefore
    exactly the reference :func:`detection_time` semantics (same anchor
    tolerance, same minimum-completion tie handling) without rescanning
    the job list per attack.  A task is indexed on its first query.
    """

    __slots__ = ("policy", "_result", "_anchors", "_earliest")

    def __init__(self, result: SimResult, policy: str = "release-after"):
        if policy not in DETECTION_POLICIES:
            raise ValidationError(
                f"unknown detection policy {policy!r}; expected one of "
                f"{DETECTION_POLICIES}"
            )
        self.policy = policy
        self._result = result
        self._anchors: dict[str, list[float]] = {}
        self._earliest: dict[str, list[float]] = {}

    def _index(self, task: str) -> list[float]:
        track = self._result.track(task)
        anchors = (
            track.release if self.policy == "release-after" else track.start
        )
        pairs = sorted(
            (anchor, completion)
            for anchor, completion in zip(anchors, track.completion)
            if anchor is not None
        )
        earliest = [math.inf] * len(pairs)
        running = math.inf
        for i in range(len(pairs) - 1, -1, -1):
            running = min(running, pairs[i][1])
            earliest[i] = running
        self._anchors[task] = [anchor for anchor, _ in pairs]
        self._earliest[task] = earliest
        return self._anchors[task]

    def earliest_completion(self, task: str, after: float) -> float:
        """Earliest completion of a ``task`` job anchored ≥ ``after``
        (up to the anchor tolerance), or ``inf``."""
        anchors = self._anchors.get(task)
        if anchors is None:
            anchors = self._index(task)
        if not anchors:
            return math.inf
        i = bisect_left(anchors, after - _ANCHOR_TOL)
        if i == len(anchors):
            return math.inf
        return self._earliest[task][i]

    def detection_time(
        self, attack: Attack, surface_map: Mapping[str, Sequence[str]]
    ) -> float:
        """Indexed equivalent of the module-level :func:`detection_time`."""
        monitors = surface_map.get(attack.surface, ())
        if not monitors:
            return math.inf
        best = min(
            self.earliest_completion(name, attack.time) for name in monitors
        )
        if math.isinf(best):
            return math.inf
        return best - attack.time


def detection_times(
    result: SimResult,
    attacks: Iterable[Attack],
    security_tasks: TaskSet | Iterable[SecurityTask],
    policy: str = "release-after",
) -> list[float]:
    """Detection time of every attack against one simulation run.

    Scores every attack through one :class:`DetectionIndex`;
    result-identical to calling :func:`detection_time` per attack.
    """
    surface_map = build_surface_map(security_tasks)
    index = DetectionIndex(result, policy=policy)
    return [index.detection_time(attack, surface_map) for attack in attacks]


def undetected_breakdown(
    times: Sequence[float],
    attacks: Sequence[Attack],
    surface_map: Mapping[str, Sequence[str]],
) -> tuple[int, int]:
    """Split the undetected (``inf``) samples of ``times`` into
    ``(censored, undetectable)`` counts.

    *Censored*: the attacked surface has at least one monitor, so only
    the simulation horizon prevented detection.  *Undetectable*: no
    security task monitors the surface, so no horizon would help.
    """
    if len(times) != len(attacks):
        raise ValidationError(
            f"times/attacks length mismatch: {len(times)} != {len(attacks)}"
        )
    censored = 0
    undetectable = 0
    for value, attack in zip(times, attacks):
        if not math.isinf(value):
            continue
        if surface_map.get(attack.surface):
            censored += 1
        else:
            undetectable += 1
    return censored, undetectable
