"""Discrete-event simulator for partitioned fixed-priority preemptive
scheduling.

This is the substrate standing in for the paper's ARM/Xenomai testbed
(DESIGN §5): it reproduces the *scheduling-level* behaviour — which job
runs when on which core — that the Fig. 1 detection-time experiment
measures.  Supported features:

* M cores, partitioned tasks (each bound to one core) with distinct
  fixed priorities, fully preemptive (the paper's model);
* periodic or sporadic releases (per-task release jitter: inter-arrival
  drawn uniformly from ``[T, (1+jitter)·T]``);
* optional **non-preemptive** tasks (paper §V extension);
* optional **precedence constraints** between tasks (paper §V): a job
  may only start once every predecessor task has completed a job no
  older than the job's own release ("check the checker first");
* optional **migrating** tasks (``core=None``) scheduled globally on any
  idle core (paper §V's global-scheduling direction).

:meth:`Simulator.run_reference` is the reference event loop: it
advances the whole platform from event to event (releases and
completions); in between, each core runs the highest-priority eligible
job.  Output is a list of :class:`~repro.sim.events.JobRecord` plus
optional execution slices and per-core busy-time accounting, which the
tests use to check conservation laws.

:meth:`Simulator.run` takes a per-core kernel instead when the input is
the paper's model: every task bound to a core, preemptible, strictly
periodic (``release_jitter == 0``), always running its full WCET
(``execution_factor == 1``) and free of predecessors, with
``collect_slices`` off.  Cores then never interact, so the kernel runs
each core's tasks alone on a ready heap.  It is the reference loop
restricted to one core, step for step — the same ``_EPS`` release
window, completion test and nudge, ``(priority, seq)`` ties, event
budget and deadline-miss rules — so its output on each core is bit for
bit what :meth:`Simulator.run_reference` gives for that core's tasks
alone (the oracle the tests hold it to).  Against the reference on the
whole platform it can differ by ulps, because the global loop also
splits a running job's remaining time at other cores' events.  Any
other input (the §V extensions) runs the reference loop.  The kernel
keeps finished jobs as per-task columns (:meth:`SimResult.track`) and
builds job records only when ``SimResult.jobs`` is read.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.sim.events import DeadlineMiss, ExecutionSlice, JobRecord, JobTrack

__all__ = ["SimTask", "SimResult", "Simulator"]

_EPS = 1e-9

#: Loop iterations one run (one core, in the kernel) may take.
_MAX_EVENTS = 4_000_000
_BUDGET_MESSAGE = (
    "event budget exceeded; workload far too dense for the simulated horizon"
)


def _positive(value: float) -> bool:
    """Finite and above zero (``nan`` and ``inf`` fail)."""
    return math.isfinite(value) and value > 0


def _per_core(task: "SimTask") -> bool:
    """The paper's model, which runs per core: bound to a core,
    preemptible, strictly periodic, at its full WCET, without
    predecessors."""
    return (
        task.core is not None
        and task.preemptible
        and task.release_jitter == 0.0
        and task.execution_factor == 1.0
        and not task.predecessors
    )


@dataclass(frozen=True, slots=True)
class SimTask:
    """A task as seen by the simulator.

    ``priority``: smaller is higher; must be unique across tasks.
    ``core``: the hosting core, or ``None`` for a migrating task that may
    run on any core.  ``release_jitter``: sporadic slack as a fraction of
    the period (0 = strictly periodic).  ``predecessors``: names of tasks
    whose fresh completion must precede each job's start.
    """

    name: str
    wcet: float
    period: float
    priority: int
    core: int | None
    deadline: float | None = None
    kind: str = "rt"
    surface: str | None = None
    preemptible: bool = True
    predecessors: tuple[str, ...] = ()
    release_jitter: float = 0.0
    offset: float = 0.0
    #: Lower bound of the actual execution time as a fraction of the
    #: WCET; each job draws uniformly from [factor·C, C].  1.0 (default)
    #: reproduces the worst-case-everywhere model of the analysis.
    execution_factor: float = 1.0

    def __post_init__(self) -> None:
        if not (_positive(self.wcet) and _positive(self.period)):
            raise ValidationError(
                f"sim task {self.name!r}: wcet and period must be positive"
            )
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        elif not _positive(self.deadline):
            raise ValidationError(
                f"sim task {self.name!r}: deadline must be positive"
            )
        if self.kind not in ("rt", "security"):
            raise ValidationError(
                f"sim task {self.name!r}: kind must be 'rt' or 'security'"
            )
        if self.release_jitter < 0:
            raise ValidationError(
                f"sim task {self.name!r}: release_jitter must be ≥ 0"
            )
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValidationError(
                f"sim task {self.name!r}: offset must be ≥ 0"
            )
        if not (0.0 < self.execution_factor <= 1.0):
            raise ValidationError(
                f"sim task {self.name!r}: execution_factor must lie in "
                f"(0, 1], got {self.execution_factor}"
            )


class _Job:
    """Mutable in-flight job state."""

    __slots__ = (
        "task_id", "release", "deadline", "remaining", "start", "core", "seq"
    )

    def __init__(
        self, task_id: int, release: float, deadline: float, wcet: float,
        seq: int,
    ) -> None:
        self.task_id = task_id
        self.release = release
        self.deadline = deadline
        self.remaining = wcet
        self.start: float | None = None
        self.core: int | None = None
        self.seq = seq


class _KernelJobs(Sequence):
    """The job records of a kernel run, built from its per-task columns
    on the first read that needs a record; ``len`` never builds them."""

    __slots__ = ("tracks", "_tasks", "_unfinished", "_records")

    def __init__(
        self,
        tasks: Sequence[SimTask],
        tracks: dict[str, JobTrack],
        unfinished: list[JobRecord],
    ) -> None:
        self.tracks = tracks
        self._tasks = tasks
        self._unfinished = unfinished
        self._records: list[JobRecord] | None = None

    def _built(self) -> list[JobRecord]:
        if self._records is None:
            records = list(self._unfinished)
            for task in self._tasks:
                name, deadline, core = task.name, task.deadline, task.core
                records.extend(
                    JobRecord(name, release, release + deadline, start,
                              completion, core)
                    for release, start, completion in zip(*self.tracks[name])
                )
            records.sort(key=lambda job: (job.release, job.task))
            self._records = records
        return self._records

    def __len__(self) -> int:
        return len(self._unfinished) + sum(
            len(track.completion) for track in self.tracks.values()
        )

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._built() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._built())


def _tracks_of(jobs: Sequence[JobRecord]) -> dict[str, JobTrack]:
    """Per-task columns of the finished jobs in ``jobs``."""
    if isinstance(jobs, _KernelJobs):
        return jobs.tracks
    columns: dict[str, tuple[list, list, list]] = {}
    for job in jobs:
        if job.completion is None:
            continue
        task = columns.get(job.task)
        if task is None:
            task = columns[job.task] = ([], [], [])
        task[0].append(job.release)
        task[1].append(job.start)
        task[2].append(job.completion)
    return {name: JobTrack(*task) for name, task in columns.items()}


_NO_JOBS = JobTrack((), (), ())


@dataclass
class SimResult:
    """Everything observable about one simulation run.

    ``jobs`` holds every job record in ``(release, task)`` order.  A run
    of the per-core kernel keeps its finished jobs as per-task columns
    and builds the records only when ``jobs`` is first iterated or
    indexed; ``len(result.jobs)`` and :meth:`track` answer from the
    columns.
    """

    duration: float
    jobs: Sequence[JobRecord]
    misses: list[DeadlineMiss]
    busy_time: dict[int, float]
    slices: list[ExecutionSlice] = field(default_factory=list)
    _tracks: dict[str, JobTrack] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def track(self, task: str) -> JobTrack:
        """The finished jobs of ``task`` as release/start/completion
        columns, in ``jobs`` order (empty for an unknown task)."""
        if self._tracks is None:
            self._tracks = _tracks_of(self.jobs)
        return self._tracks.get(task, _NO_JOBS)

    def jobs_of(self, task: str) -> list[JobRecord]:
        """All job records of ``task``, in release order."""
        return [job for job in self.jobs if job.task == task]

    def completed_jobs_of(self, task: str) -> list[JobRecord]:
        """Finished jobs of ``task``, in release order."""
        return [job for job in self.jobs if job.task == task and job.finished]

    def utilization_of_core(self, core: int) -> float:
        """Fraction of the simulated window the core was busy."""
        if self.duration <= 0:
            return 0.0
        return self.busy_time.get(core, 0.0) / self.duration

    @property
    def missed_any_deadline(self) -> bool:
        return bool(self.misses)


class Simulator:
    """Event-driven multicore fixed-priority scheduler simulator."""

    def __init__(
        self,
        tasks: Iterable[SimTask],
        num_cores: int,
        duration: float,
        rng: np.random.Generator | int | None = None,
        collect_slices: bool = False,
    ) -> None:
        self.tasks: tuple[SimTask, ...] = tuple(tasks)
        if num_cores < 1:
            raise ValidationError("need at least one core")
        if not _positive(duration):
            raise ValidationError("duration must be positive")
        self.num_cores = num_cores
        self.duration = float(duration)
        self.collect_slices = collect_slices
        if isinstance(rng, (int, np.integer)) or rng is None:
            rng = np.random.default_rng(rng)
        self._rng = rng

        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate simulator task names")
        priorities = [t.priority for t in self.tasks]
        if len(set(priorities)) != len(priorities):
            raise ValidationError("simulator priorities must be distinct")
        self._index = {t.name: i for i, t in enumerate(self.tasks)}
        for t in self.tasks:
            if t.core is not None and not (0 <= t.core < num_cores):
                raise ValidationError(
                    f"task {t.name!r} bound to invalid core {t.core}"
                )
            for pred in t.predecessors:
                if pred not in self._index:
                    raise ValidationError(
                        f"task {t.name!r} depends on unknown task {pred!r}"
                    )

    # -- release pattern ---------------------------------------------------

    def _next_interval(self, task: SimTask) -> float:
        if task.release_jitter <= 0.0:
            return task.period
        return task.period * (
            1.0 + float(self._rng.uniform(0.0, task.release_jitter))
        )

    def _execution_time(self, task: SimTask) -> float:
        if task.execution_factor >= 1.0:
            return task.wcet
        return task.wcet * float(
            self._rng.uniform(task.execution_factor, 1.0)
        )

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate the horizon: on the per-core kernel when every task
        is bound, preemptible, strictly periodic, runs its full WCET and
        has no predecessors (and slices are off), else on
        :meth:`run_reference`."""
        if not self.collect_slices and all(map(_per_core, self.tasks)):
            return self._run_kernel()
        return self.run_reference()

    def _run_kernel(self) -> SimResult:
        tracks: dict[str, JobTrack] = {}
        unfinished: list[JobRecord] = []
        misses: list[DeadlineMiss] = []
        busy = {m: 0.0 for m in range(self.num_cores)}
        for m in range(self.num_cores):
            on_core = [task for task in self.tasks if task.core == m]
            if on_core:
                busy[m] = _simulate_core(
                    on_core, m, self.duration, tracks, unfinished, misses
                )
        return SimResult(
            duration=self.duration,
            jobs=_KernelJobs(self.tasks, tracks, unfinished),
            misses=misses,
            busy_time=busy,
        )

    def run_reference(self) -> SimResult:
        """The global event loop: every input, the §V extensions
        included, and the oracle the per-core kernel is tested against."""
        tasks = self.tasks
        num_cores = self.num_cores
        duration = self.duration

        release_heap: list[tuple[float, int, int]] = []  # (time, seq, task)
        seq = 0
        for i, task in enumerate(tasks):
            heapq.heappush(release_heap, (task.offset, seq, i))
            seq += 1

        ready_bound: list[list[_Job]] = [[] for _ in range(num_cores)]
        ready_global: list[_Job] = []
        running: list[_Job | None] = [None] * num_cores
        last_completion = [-math.inf] * len(tasks)

        jobs_out: list[JobRecord] = []
        misses: list[DeadlineMiss] = []
        busy = {m: 0.0 for m in range(num_cores)}
        slices: list[ExecutionSlice] = []
        live_jobs: list[_Job] = []

        def eligible(job: _Job) -> bool:
            preds = tasks[job.task_id].predecessors
            if not preds:
                return True
            return all(
                last_completion[self._index[p]] >= job.release - _EPS
                for p in preds
            )

        now = 0.0
        guard = 0
        while now < duration - _EPS:
            guard += 1
            if guard > _MAX_EVENTS:
                raise SimulationError(_BUDGET_MESSAGE)
            # 1. releases due now ------------------------------------------
            while release_heap and release_heap[0][0] <= now + _EPS:
                rel_time, _, i = heapq.heappop(release_heap)
                task = tasks[i]
                job = _Job(
                    i,
                    rel_time,
                    rel_time + task.deadline,
                    self._execution_time(task),
                    seq,
                )
                seq += 1
                live_jobs.append(job)
                if task.core is None:
                    ready_global.append(job)
                else:
                    ready_bound[task.core].append(job)
                nxt = rel_time + self._next_interval(task)
                if nxt < duration:
                    heapq.heappush(release_heap, (nxt, seq, i))
                    seq += 1

            # 2. scheduling decision per core -------------------------------
            # A task is a single flow of control: when a job outlives its
            # period (overload) the successor must wait for it, so only
            # the earliest live job of each task is dispatchable.  Bound
            # tasks get this for free (same core, seq-ordered ties);
            # migrating tasks need the explicit filter or two cores could
            # run two jobs of one task concurrently.
            earliest_live: dict[int, int] = {}
            for job in live_jobs:
                seen = earliest_live.get(job.task_id)
                if seen is None or job.seq < seen:
                    earliest_live[job.task_id] = job.seq
            for m in range(num_cores):
                current = running[m]
                if (
                    current is not None
                    and not tasks[current.task_id].preemptible
                    and current.remaining > _EPS
                ):
                    continue  # non-preemptible job keeps the core
                # Highest-priority eligible bound job on this core;
                # include the currently running job as a candidate.
                candidates: list[_Job] = [
                    j for j in ready_bound[m] if eligible(j)
                ]
                if current is not None:
                    candidates.append(current)
                best: _Job | None = None
                if candidates:
                    best = min(
                        candidates,
                        key=lambda j: (tasks[j.task_id].priority, j.seq),
                    )
                # A migrating job may take the core if it beats ``best``
                # (chosen jobs are removed from the pool immediately, so
                # two cores can never grab the same job in one pass).
                global_candidates = [
                    j
                    for j in ready_global
                    if eligible(j) and earliest_live[j.task_id] == j.seq
                ]
                global_best: _Job | None = None
                if global_candidates:
                    global_best = min(
                        global_candidates,
                        key=lambda j: (tasks[j.task_id].priority, j.seq),
                    )
                chosen = best
                if global_best is not None and (
                    best is None
                    or tasks[global_best.task_id].priority
                    < tasks[best.task_id].priority
                ):
                    chosen = global_best
                if chosen is current:
                    continue
                # Preempt the incumbent back to its ready pool.
                if current is not None:
                    if tasks[current.task_id].core is None:
                        ready_global.append(current)
                    else:
                        ready_bound[m].append(current)
                running[m] = chosen
                if chosen is not None:
                    if chosen is global_best:
                        ready_global.remove(chosen)
                    else:
                        ready_bound[m].remove(chosen)
                    chosen.core = m
                    if chosen.start is None:
                        chosen.start = now

            # 3. next event time --------------------------------------------
            horizon = duration
            if release_heap:
                horizon = min(horizon, release_heap[0][0])
            for m in range(num_cores):
                job = running[m]
                if job is not None:
                    horizon = min(horizon, now + job.remaining)
            if horizon <= now + _EPS:
                horizon = now + _EPS  # numerical nudge; completions fire below

            # 4. advance ------------------------------------------------------
            dt = horizon - now
            for m in range(num_cores):
                job = running[m]
                if job is None:
                    continue
                busy[m] += dt
                if self.collect_slices:
                    slices.append(
                        ExecutionSlice(
                            task=tasks[job.task_id].name,
                            core=m,
                            start=now,
                            end=horizon,
                        )
                    )
                job.remaining -= dt
                if job.remaining <= _EPS:
                    last_completion[job.task_id] = horizon
                    jobs_out.append(
                        JobRecord(
                            task=tasks[job.task_id].name,
                            release=job.release,
                            deadline=job.deadline,
                            start=job.start,
                            completion=horizon,
                            core=m,
                        )
                    )
                    if horizon > job.deadline + 1e-6:
                        misses.append(
                            DeadlineMiss(
                                task=tasks[job.task_id].name,
                                release=job.release,
                                deadline=job.deadline,
                            )
                        )
                    live_jobs.remove(job)
                    running[m] = None
            now = horizon

        # Jobs still unfinished at the horizon.
        for job in live_jobs:
            jobs_out.append(
                JobRecord(
                    task=tasks[job.task_id].name,
                    release=job.release,
                    deadline=job.deadline,
                    start=job.start,
                    completion=None,
                    core=job.core,
                )
            )
            if job.deadline < duration - 1e-6:
                misses.append(
                    DeadlineMiss(
                        task=tasks[job.task_id].name,
                        release=job.release,
                        deadline=job.deadline,
                    )
                )

        jobs_out.sort(key=lambda j: (j.release, j.task))
        return SimResult(
            duration=duration,
            jobs=jobs_out,
            misses=misses,
            busy_time=busy,
            slices=slices,
        )


def _simulate_core(
    tasks: Sequence[SimTask],
    core: int,
    duration: float,
    tracks: dict[str, JobTrack],
    unfinished: list[JobRecord],
    misses: list[DeadlineMiss],
) -> float:
    """Run the tasks bound to ``core`` alone: the reference loop
    restricted to one core, step for step.

    Adds each task's finished-job columns to ``tracks``, its jobs still
    live at the horizon to ``unfinished``, and its deadline misses to
    ``misses`` (in completion order, then the live jobs in release
    order, as the reference loop does); returns the core's busy time.
    A job is ``[priority, seq, task, release, remaining, start]``:
    ``(priority, seq)`` is unique, so heap order never looks further.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    names = [task.name for task in tasks]
    priority = [task.priority for task in tasks]
    wcet = [task.wcet for task in tasks]
    period = [task.period for task in tasks]
    deadline = [task.deadline for task in tasks]
    released: list[list[float]] = [[] for _ in tasks]
    started: list[list[float]] = [[] for _ in tasks]
    completed: list[list[float]] = [[] for _ in tasks]

    releases = [(task.offset, k, k) for k, task in enumerate(tasks)]
    heapq.heapify(releases)
    seq = len(tasks)
    ready: list[list] = []
    job: list | None = None
    busy = 0.0
    now = 0.0
    events = 0
    end = duration - _EPS
    while now < end:
        events += 1
        if events > _MAX_EVENTS:
            raise SimulationError(_BUDGET_MESSAGE)
        window = now + _EPS
        # 1. releases due now
        while releases and releases[0][0] <= window:
            release, _, k = heappop(releases)
            heappush(ready, [priority[k], seq, k, release, wcet[k], None])
            seq += 1
            following = release + period[k]
            if following < duration:
                heappush(releases, (following, seq, k))
                seq += 1
        # 2. the highest-priority ready job takes the core
        if ready and (job is None or ready[0] < job):
            job = heappop(ready) if job is None else heapq.heapreplace(
                ready, job
            )
            if job[5] is None:
                job[5] = now
        # 3. next event time, with the reference's numerical nudge
        horizon = duration
        if releases and releases[0][0] < horizon:
            horizon = releases[0][0]
        if job is not None and now + job[4] < horizon:
            horizon = now + job[4]
        if horizon <= window:
            horizon = window
        # 4. advance
        if job is not None:
            dt = horizon - now
            busy += dt
            job[4] -= dt
            if job[4] <= _EPS:
                k, release = job[2], job[3]
                released[k].append(release)
                started[k].append(job[5])
                completed[k].append(horizon)
                if horizon > release + deadline[k] + 1e-6:
                    misses.append(
                        DeadlineMiss(names[k], release, release + deadline[k])
                    )
                job = None
        now = horizon

    live = ready if job is None else [*ready, job]
    live.sort(key=lambda entry: entry[1])
    for _, _, k, release, _, start in live:
        due = release + deadline[k]
        unfinished.append(
            JobRecord(names[k], release, due, start, None,
                      None if start is None else core)
        )
        if due < duration - 1e-6:
            misses.append(DeadlineMiss(names[k], release, due))
    for k, name in enumerate(names):
        tracks[name] = JobTrack(released[k], started[k], completed[k])
    return busy
