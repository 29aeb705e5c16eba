"""Security tasks in the idle time the real-time band leaves.

HYDRA runs every security task at a priority strictly below every
real-time task of its core (:func:`repro.sim.runner.build_sim_tasks`).
Under preemptive fixed priority the real-time band's schedule on a core
therefore does not depend on the security tasks, and they see the band
only through the idle time it leaves.

:func:`simulate_security` simulates only the security jobs that way:

1. :func:`idle_band` computes a core's real-time busy periods once, from
   the merged releases, with the Lindley recursion
   e_k = max(e_{k-1}, r_k) + C_k.  Numpy finds where the busy periods
   begin with the recursion's closed form; each period's end is its
   start plus its WCETs added one at a time, restarting at every
   period, so the sums do not drift over the horizon.
2. The security tasks run under the per-core kernel's step rules (the
   ``_EPS`` release window and nudge, ``(priority, seq)`` ties) on a
   clock that jumps over every busy period: a security job due while
   the real-time band holds the core waits for the busy period's end,
   and one running when a busy period begins resumes at its end.

Every security start and completion is then a float operation the kernel
also makes, on the same operands, so the security schedule is the
kernel's bit for bit, once each busy period's end is the kernel's own
value.  That end is the one place where care is needed: the kernel
reaches it through each real-time job's remaining time, split at every
release inside the period (a security release too), which rounds
differently from adding WCETs.  The sum of WCETs is taken as the end
only where it *is* the kernel's: a period entered at its first release,
with no security release in it or within ``_EPS`` after it, that holds
one job longer than ``_EPS``, or that lies on a core whose offsets,
periods and WCETs are whole multiples of one power of two above
``_EPS``, with every time below 2**53 of it (then every kernel operation
on the band is exact, whatever its order).  Every other period the
security jobs wait on is replayed with the kernel's loop over its
real-time jobs and the security releases that fall in it.  Periods no
security job waits on are skipped.

The per-core kernel (:mod:`repro.sim.engine`) stays the oracle
(``tests/sim/test_band.py`` holds the two to the same security jobs and
misses, times bit for bit), and the path for every caller that reads
real-time jobs.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.sim import engine
from repro.sim.engine import (
    _BUDGET_MESSAGE,
    _EPS,
    SimResult,
    SimTask,
    Simulator,
    _KernelJobs,
    _per_core,
)
from repro.sim.events import DeadlineMiss, JobRecord, JobTrack

__all__ = ["IdleBand", "idle_band", "simulate_security"]

# A replayed real-time job's heap key: its rank above its index.
_KEY_SHIFT = 40
_KEY_INDEX = (1 << _KEY_SHIFT) - 1


def _release_count(offset: float, period: float, duration: float) -> int:
    """Slightly more than the releases the kernel makes below
    ``duration``."""
    if offset >= duration:
        return 0
    return int((duration - offset) / period) + 2


def _releases(offset: float, period: float, duration: float) -> np.ndarray:
    """The release instants below ``duration``, bit for bit the kernel's
    ``release + period`` chain."""
    count = _release_count(offset, period, duration)
    if not count:
        return np.empty(0)
    while True:
        times = np.full(count, period)
        times[0] = offset
        np.cumsum(times, out=times)
        if times[-1] >= duration:
            return times[: np.searchsorted(times, duration)]
        count += count // 64 + 2  # the chain's rounding fell short


class IdleBand(NamedTuple):
    """A core's real-time jobs over the horizon and its busy periods.

    The jobs are in release order, simultaneous releases in priority
    order (the order the kernel runs them in): ``release``, ``rank``
    (the task's place in priority order) and ``wcet``.  Busy period
    ``j`` runs jobs ``first[j]`` up to ``first[j + 1]`` from ``start[j]``
    to ``end[j]``, the sum of their WCETs; where ``settled[j]`` that sum
    is the kernel's end of the period when it is entered at ``start[j]``
    and no security release falls in it.  ``clear[j]`` bounds from above
    the kernel's end, plus ``_EPS``, of every period up to ``j``: a
    security release after it finds those periods over.  Busy periods
    less than ``_EPS`` apart are one period, as the kernel's release
    window makes them.
    """

    release: np.ndarray
    rank: np.ndarray
    wcet: np.ndarray
    first: np.ndarray
    start: np.ndarray
    end: np.ndarray
    settled: np.ndarray
    clear: np.ndarray


def _period_ends(
    release: np.ndarray, wcet: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each busy period's end: the release of its first job
    (``first[j]``) plus the WCETs of its jobs (up to ``first[j + 1]``)
    added one at a time, in order.  Also returns the jobs released more
    than ``_EPS`` after that running sum reaches them: each begins a busy
    period of its own."""
    count = np.diff(np.append(first, len(wcet)))
    # One numpy step per depth d adds the d-th WCET of every period that
    # has one; sorted longest first, those periods are a prefix.
    by_count = np.argsort(-count, kind="stable")
    offsets = first[by_count]
    acc = release[offsets] + wcet[offsets]
    depths = np.arange(1, count[by_count[0]])
    having = np.searchsorted(-count[by_count], -depths, side="left")
    late = []
    for depth, rows in zip(depths.tolist(), having.tolist()):
        jobs = offsets[:rows] + depth
        late.append(jobs[release[jobs] > acc[:rows] + _EPS])
        acc[:rows] += wcet[jobs]
    end = np.empty_like(acc)
    end[by_count] = acc
    return end, np.concatenate([np.empty(0, dtype=first.dtype), *late])


def _grid_unit(rt: tuple[tuple[float, float, float], ...]) -> float:
    """The largest power of two that every nonzero offset, period and
    WCET of ``rt`` is a whole multiple of."""
    unit = math.inf
    for value in (value for task in rt for value in task if value):
        numerator, denominator = value.as_integer_ratio()
        unit = min(unit, (numerator & -numerator) / denominator)
    return unit


def idle_band(
    rt: tuple[tuple[float, float, float], ...], duration: float
) -> IdleBand:
    """The busy periods of the real-time tasks ``rt`` — ``(offset,
    period, wcet)`` triples of one core, highest priority first — over
    ``[0, duration)``.

    Raises :class:`~repro.errors.SimulationError` when the core has more
    releases than the kernel's event budget.
    """
    counts = [_release_count(o, p, duration) for o, p, _ in rt]
    if sum(counts) > engine._MAX_EVENTS:
        raise SimulationError(_BUDGET_MESSAGE)
    chains = [_releases(o, p, duration) for o, p, _ in rt]
    if not sum(map(len, chains)):
        times, indexes = np.empty(0), np.empty(0, dtype=np.intp)
        return IdleBand(times, indexes, times, indexes, times, times,
                        np.empty(0, dtype=bool), times)
    release = np.concatenate(chains)
    rank = np.concatenate(
        [np.full(len(chain), k) for k, chain in enumerate(chains)]
    )
    wcet = np.concatenate(
        [np.full(len(chain), c) for chain, (_, _, c) in zip(chains, rt)]
    )
    # Time order; simultaneous releases in priority order.
    order = np.argsort(release, kind="stable")
    release, rank, wcet = release[order], rank[order], wcet[order]
    # Closed-form Lindley on global prefix sums, e_k = max_{j≤k}(r_j −
    # P_{j−1}) + P_k, to find where each busy period begins.
    done = np.cumsum(wcet)
    before = np.concatenate(([0.0], done[:-1]))
    ends = np.maximum.accumulate(release - before) + done
    first = np.concatenate(
        ([0], np.flatnonzero(release[1:] > ends[:-1] + _EPS) + 1)
    )
    unit = _grid_unit(rt)
    if unit > _EPS and max(duration, ends[-1], done[-1]) < unit * 2.0**53:
        # On the grid every sum is exact: the closed form gives each
        # period's end, and that is the kernel's.
        end = ends[np.append(first[1:], len(release)) - 1]
        settled = np.ones(len(first), dtype=bool)
        slack = np.zeros(len(first))
    else:
        # The prefix sums drift over a long horizon, so check the periods
        # against the sums restarted at each one: merge those less than
        # _EPS apart, split those with a gap inside.
        while True:
            end, late = _period_ends(release, wcet, first)
            joined = release[first[1:]] <= end[:-1] + _EPS
            if not late.size and not joined.any():
                break
            first = np.union1d(first[np.concatenate(([True], ~joined))], late)
        count = np.diff(np.append(first, len(release)))
        # A lone job shorter than _EPS ends at the kernel's nudge instead.
        settled = (count == 1) & (wcet[first] > _EPS)
        # The kernel's end and the sum of WCETs differ by a few roundings
        # per job, and by at most _EPS per job that has less than _EPS left
        # to run.
        slack = np.where(
            settled, 0.0, count * (_EPS + 16 * np.spacing(np.abs(end)))
        )
    start = release[first]
    clear = np.maximum.accumulate(end + slack + _EPS)
    return IdleBand(release, rank, wcet, first, start, end, settled, clear)


def simulate_security(
    tasks: Iterable[SimTask], num_cores: int, duration: float
) -> SimResult:
    """Simulate the security tasks of ``tasks`` in the idle time their
    cores' real-time tasks leave.

    The input must be the per-core kernel's (every task bound to a core,
    preemptible, strictly periodic, at its full WCET, without
    predecessors) with every security task below every real-time task
    of its core.  The result holds the security tasks only: their jobs
    (finished ones as per-task columns, :meth:`SimResult.track`), their
    deadline misses, and their busy time per core.

    Raises :class:`~repro.errors.SimulationError` when a core's
    releases, real-time and security together, exceed the kernel's event
    budget.  The kernel counts events (releases and completions) against
    that budget, so it can give up on a core with fewer releases.
    """
    # The simulator's own checks: unique names and priorities, valid
    # cores, a positive horizon.
    simulator = Simulator(tasks, num_cores=num_cores, duration=duration, rng=0)
    tasks = simulator.tasks
    duration = simulator.duration
    for task in tasks:
        if not _per_core(task):
            raise ValidationError(
                f"sim task {task.name!r}: the security band takes the "
                f"paper's model only, tasks bound to a core (not global), "
                f"preemptive, strictly periodic, at their full WCET and "
                f"without predecessors"
            )
    security = [task for task in tasks if task.kind == "security"]
    tracks: dict[str, JobTrack] = {}
    unfinished: list[JobRecord] = []
    misses: list[DeadlineMiss] = []
    busy = {m: 0.0 for m in range(num_cores)}
    for m in range(num_cores):
        mine = [task for task in security if task.core == m]
        if not mine:
            continue
        rt = sorted(
            (task for task in tasks if task.core == m and task.kind == "rt"),
            key=lambda task: task.priority,
        )
        if rt and rt[-1].priority > min(task.priority for task in mine):
            raise ValidationError(
                f"core {m}: a security task outranks a real-time task; the "
                f"security band needs every security task below the "
                f"real-time band"
            )
        releases = sum(
            _release_count(task.offset, task.period, duration)
            for task in (*rt, *mine)
        )
        if releases > engine._MAX_EVENTS:
            raise SimulationError(_BUDGET_MESSAGE)
        band = idle_band(
            tuple((task.offset, task.period, task.wcet) for task in rt),
            duration,
        )
        busy[m] = _security_on_core(
            mine, m, duration, band, tracks, unfinished, misses
        )
    return SimResult(
        duration=duration,
        jobs=_KernelJobs(security, tracks, unfinished),
        misses=misses,
        busy_time=busy,
    )


def _replay(
    now: float,
    ri: int,
    next_rt: float,
    rt_jobs: tuple,
    releases: list,
    release_due,
    duration: float,
    events: int,
) -> tuple[float, int, float, int]:
    """The per-core kernel's loop over the real-time jobs from ``ri``,
    due at ``now``, to the end of their busy period, for a period whose
    end the sum of WCETs may not give.  The security jobs, all below the
    real-time ones, only wait: ``release_due`` moves the security
    releases on the way from the ``releases`` heap to the ready heap.
    ``rt_jobs`` reads a real-time job's release, rank and WCET by index.
    Returns the end, the next real-time job and its release, and the
    event count.
    """
    rt_release, rt_rank, rt_wcet = rt_jobs
    heappush, heappop = heapq.heappush, heapq.heappop
    end = duration - _EPS
    budget = engine._MAX_EVENTS
    pending: list[int] = []  # heap keys of the released jobs
    left: dict[int, float] = {}
    due = releases[0][0] if releases else math.inf
    while now < end:
        events += 1
        if events > budget:
            raise SimulationError(_BUDGET_MESSAGE)
        window = now + _EPS
        if due <= window:
            release_due(window)
            due = releases[0][0] if releases else math.inf
        while next_rt <= window:
            heappush(pending, (rt_rank(ri) << _KEY_SHIFT) + ri)
            left[ri] = rt_wcet(ri)
            ri += 1
            try:
                next_rt = rt_release(ri)
            except IndexError:
                next_rt = math.inf
        if not pending:
            break
        i = pending[0] & _KEY_INDEX
        horizon = duration
        if due < horizon:
            horizon = due
        if next_rt < horizon:
            horizon = next_rt
        remaining = left[i]
        if now + remaining < horizon:
            horizon = now + remaining
        if horizon <= window:
            horizon = window
        remaining -= horizon - now
        left[i] = remaining
        if remaining <= _EPS:
            heappop(pending)
        now = horizon
    return now, ri, next_rt, events


def _security_on_core(
    tasks: list[SimTask],
    core: int,
    duration: float,
    band: IdleBand,
    tracks: dict[str, JobTrack],
    unfinished: list[JobRecord],
    misses: list[DeadlineMiss],
) -> float:
    """The security tasks of ``core``: the per-core kernel's loop over
    their releases, with every real-time busy period one step that holds
    the core from its start to its end.  Fills ``tracks``,
    ``unfinished`` and ``misses`` as the kernel does and returns the
    security busy time.  A job is ``[priority, seq, task, index,
    remaining, start]``, ``index`` being its place in its task's release
    chain.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    names = [task.name for task in tasks]
    priority = [task.priority for task in tasks]
    wcet = [task.wcet for task in tasks]
    deadline = [task.deadline for task in tasks]
    real = [
        _releases(task.offset, task.period, duration).tolist()
        for task in tasks
    ]
    released: list[list[float]] = [[] for _ in tasks]
    started: list[list[float]] = [[] for _ in tasks]
    completed: list[list[float]] = [[] for _ in tasks]
    # The busy periods, closed by a sentinel that starts at infinity;
    # ``known[j]`` is the end of period ``j`` if it is settled, else NaN.
    rt_count = len(band.release)
    first = [*band.first.tolist(), rt_count]
    period_start = [*band.start.tolist(), math.inf]
    known = np.where(band.settled, band.end, math.nan).tolist()
    clear = band.clear.tolist()
    periods = len(known)
    # A replay reads the real-time jobs one by one: in place where few
    # periods need one, from lists where many may.
    arrays = (band.release, band.rank, band.wcet)
    rt_jobs = tuple(
        array.item if band.settled.all() else array.tolist().__getitem__
        for array in arrays
    )

    releases = [(chain[0], k, k, 0) for k, chain in enumerate(real) if chain]
    heapq.heapify(releases)
    seq = len(tasks)
    ready: list[list] = []
    job: list | None = None
    busy = 0.0
    now = 0.0
    ri = 0  # the first real-time job not yet released
    pj = 0  # the busy period of job ``ri``
    next_rt = period_start[0]  # the release of job ``ri``
    events = 0
    budget = engine._MAX_EVENTS
    end = duration - _EPS

    def release_due(window: float) -> None:
        nonlocal seq
        while releases and releases[0][0] <= window:
            _, _, k, i = heappop(releases)
            heappush(ready, [priority[k], seq, k, i, wcet[k], None])
            seq += 1
            if i + 1 < len(real[k]):
                heappush(releases, (real[k][i + 1], seq, k, i + 1))
                seq += 1

    def busy_period(now: float) -> float:
        """From ``now``, where the real-time job ``ri`` is due, to the
        end of its busy period; returns that end, and moves ``ri``,
        ``pj`` and ``next_rt`` on to the next real-time job.  The
        security releases on the way join ``ready``."""
        nonlocal events, ri, pj, next_rt
        stop = known[pj]
        if (
            now == next_rt
            and ri == first[pj]
            and stop == stop  # settled
            and (not releases or releases[0][0] > stop + _EPS)
        ):
            pj += 1
            ri = first[pj]
            next_rt = period_start[pj]
            return stop
        now, ri, next_rt, events = _replay(
            now, ri, next_rt, rt_jobs, releases, release_due, duration,
            events,
        )
        pj = bisect_right(first, ri) - 1
        return now

    while now < end:
        events += 1
        if events > budget:
            raise SimulationError(_BUDGET_MESSAGE)
        window = now + _EPS
        # 1. security releases due now
        if releases and releases[0][0] <= window:
            release_due(window)
        # 2. a real-time release due now starts a busy period, which
        #    holds the core to its end
        if next_rt <= window:
            now = busy_period(now)
            continue
        # 3. the highest-priority ready job takes the core
        if ready and (job is None or ready[0] < job):
            job = heappop(ready) if job is None else heapq.heapreplace(
                ready, job
            )
            if job[5] is None:
                job[5] = now
        if job is None:
            # Nothing to run until the next security release: skip the
            # busy periods over by then, but not one that touches it or
            # runs into the next.
            if not releases:
                break
            due = releases[0][0]
            skip = bisect_left(clear, due, pj)
            while pj < skip < periods and period_start[skip] <= clear[skip - 1]:
                skip -= 1
            if skip > pj:
                pj = skip
                ri = first[skip]
                next_rt = period_start[skip]
            now = min(due, next_rt)
            continue
        # 4. next event time, with the kernel's numerical nudge
        horizon = duration
        if releases and releases[0][0] < horizon:
            horizon = releases[0][0]
        if next_rt < horizon:
            horizon = next_rt
        if now + job[4] < horizon:
            horizon = now + job[4]
        if horizon <= window:
            horizon = window
        # 5. advance
        dt = horizon - now
        busy += dt
        job[4] -= dt
        now = horizon
        # While no security release falls due, the job resumes at the end
        # of each settled busy period that preempts it: cross those here.
        if job[4] > _EPS and now == next_rt and ri == first[pj]:
            due = releases[0][0] if releases else math.inf
            remaining = job[4]
            crossed = pj
            while due > (stop := known[pj]) + _EPS:  # false for NaN
                now = stop
                pj += 1
                next_rt = period_start[pj]
                if now >= end or not next_rt < due or now + remaining < next_rt:
                    break
                dt = next_rt - now
                busy += dt
                remaining -= dt
                now = next_rt
                if remaining <= _EPS:
                    break
            ri = first[pj]
            job[4] = remaining
            events += pj - crossed
            if events > budget:
                raise SimulationError(_BUDGET_MESSAGE)
        if job[4] <= _EPS:
            k, i = job[2], job[3]
            release = real[k][i]
            released[k].append(release)
            started[k].append(job[5])
            completed[k].append(now)
            if now > release + deadline[k] + 1e-6:
                misses.append(
                    DeadlineMiss(names[k], release, release + deadline[k])
                )
            job = None

    live = ready if job is None else [*ready, job]
    live.sort(key=lambda entry: entry[1])
    for _, _, k, i, _, start in live:
        release = real[k][i]
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
