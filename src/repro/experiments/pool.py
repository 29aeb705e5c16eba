"""Persistent worker pool shared across sweeps.

Before this module existed the :class:`~repro.experiments.parallel.
SweepEngine` created a fresh :class:`~concurrent.futures.
ProcessPoolExecutor` inside every ``run()`` call, so a multi-panel
invocation like ``repro-hydra all`` paid process fan-out latency once
*per sweep*.  A :class:`WorkerPool` decouples executor lifetime from
engine lifetime:

* **lazy spawn** — constructing a pool is free; worker processes start
  on the first parallel :meth:`map` and a log line (logger
  ``repro.pool``, INFO) records each spawn, so reuse is observable;
* **reuse** — one pool serves every sweep of every engine that holds
  it: all panels of ``repro-hydra all``, chained ``sweep --config``
  runs, or a whole pytest session;
* **serial fallback** — a pool sized 1 never spawns processes and runs
  :meth:`map` in-process, so callers need no special-casing;
* **explicit shutdown** — :meth:`shutdown` (or the context manager)
  ends the workers; the pool transparently respawns if used again.

The process-wide pool used by the CLI and by engines that were given a
worker count but no pool lives behind :func:`get_shared_pool` /
:func:`shutdown_shared_pool`; an :mod:`atexit` hook reaps it so
library users cannot leak worker processes.

Determinism is unaffected: the pool only changes *where* a point
executes, never its SeedSequence stream, so pooled results are
byte-identical to serial ones.
"""

from __future__ import annotations

import atexit
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable

from repro.errors import ValidationError

__all__ = ["WorkerPool", "get_shared_pool", "shutdown_shared_pool"]

log = logging.getLogger("repro.pool")


class WorkerPool:
    """A lazily-spawned, reusable process pool with a serial fallback.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` means the visible CPU count.  ``0`` and
        ``1`` both mean serial (matching the engine's ``workers``
        convention): :meth:`map` runs in-process and no worker is ever
        spawned — likewise on a single-CPU machine.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValidationError(
                f"max_workers must be >= 0, got {max_workers}"
            )
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self._executor: ProcessPoolExecutor | None = None
        #: Times a process pool was actually spawned (0 until first
        #: parallel map; stays 0 forever for a serial pool).  The CI
        #: smoke and the reuse tests assert on this.
        self.spawn_count = 0

    # -- lifecycle -----------------------------------------------------

    def _reap_if_broken(self) -> bool:
        """Detect and reap a dead executor (workers OOM-killed, a
        ``KeyboardInterrupt`` that took the children down, …).

        A broken :class:`ProcessPoolExecutor` raises
        :class:`BrokenProcessPool` on *every* later submit, so holding
        one would poison each subsequent sweep — and, behind
        :func:`get_shared_pool`, every later server job.  Reaping here
        means the next :meth:`map` simply respawns.  Returns whether a
        dead executor was reaped (the recovery is logged, so
        ``REPRO_LOG=info``/``warning`` makes it observable).
        """
        executor = self._executor
        if executor is None or not getattr(executor, "_broken", False):
            return False
        log.warning(
            "worker pool is broken (%s); reaping dead executor "
            "(%d processes, %d spawn(s) so far)",
            getattr(executor, "_broken", None) or "workers died",
            self.max_workers, self.spawn_count,
        )
        self._executor = None
        executor.shutdown(wait=False)
        return True

    def _ensure_executor(self) -> ProcessPoolExecutor:
        self._reap_if_broken()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers
            )
            self.spawn_count += 1
            log.info(
                "spawned worker pool: %d processes (spawn #%d, pid %d)",
                self.max_workers, self.spawn_count, os.getpid(),
            )
        return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """End the worker processes (idempotent).  The pool stays
        usable — a later :meth:`map` simply respawns."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- execution -----------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        *iterables: Iterable[Any],
        limit: int | None = None,
    ) -> list[Any]:
        """``[fn(*args) for args in zip(*iterables)]`` — in-process for
        a serial pool, over the workers otherwise (results in order).

        ``limit`` caps the number of in-flight tasks below the pool
        size, so a caller that asked for less parallelism than the
        shared pool offers (an engine with ``workers=2`` attached to a
        4-wide pool) keeps its requested footprint.  ``limit=1`` runs
        in-process.

        A pool whose workers died (e.g. OOM-killed) is respawned once
        and the batch retried; per-point determinism makes the retry
        safe.  If the respawned pool breaks too, the batch falls back
        to serial in-process execution instead of propagating
        :class:`BrokenProcessPool` forever.  An interrupt (``^C``)
        mid-map reaps the executor before propagating, so the pool —
        including the process-wide shared one — is never left holding
        dead workers that every later sweep would trip over.
        """
        # zip() terminates at the shortest iterable, so infinite
        # companions like itertools.repeat(...) are fine here.
        calls = list(zip(*iterables))
        if self.max_workers == 1 or limit == 1:
            return [fn(*args) for args in calls]
        try:
            return self._dispatch(fn, calls, limit)
        except BrokenProcessPool as exc:
            log.warning(
                "worker pool broke; respawning and retrying once "
                "(%d processes; cause: %s)",
                self.max_workers,
                " ".join(str(exc).split()) or "workers died",
            )
            self.shutdown(wait=False)
            try:
                return self._dispatch(fn, calls, limit)
            except BrokenProcessPool as exc:
                log.warning(
                    "respawned worker pool broke too; running this "
                    "batch serially in-process (%d processes; cause: %s)",
                    self.max_workers,
                    " ".join(str(exc).split()) or "workers died",
                )
                self.shutdown(wait=False)
                return [fn(*args) for args in calls]
        except KeyboardInterrupt:
            # The interrupt usually reached the workers as well (same
            # process group), leaving the executor broken; reap it so
            # the pool stays usable after the caller handles the ^C.
            log.warning("interrupted mid-map; reaping worker pool")
            self.shutdown(wait=False)
            raise

    def _dispatch(
        self,
        fn: Callable[..., Any],
        calls: list[tuple[Any, ...]],
        limit: int | None,
    ) -> list[Any]:
        executor = self._ensure_executor()
        if limit is None or limit >= len(calls):
            futures = [executor.submit(fn, *args) for args in calls]
            return [future.result() for future in futures]
        # Sliding window: at most `limit` tasks outstanding.  Draining
        # the oldest first keeps results ordered without buffering.
        from collections import deque

        results: list[Any] = [None] * len(calls)
        pending: deque[tuple[int, Any]] = deque()
        for index, args in enumerate(calls):
            if len(pending) >= limit:
                done_index, future = pending.popleft()
                results[done_index] = future.result()
            pending.append((index, executor.submit(fn, *args)))
        while pending:
            done_index, future = pending.popleft()
            results[done_index] = future.result()
        return results


# -- the process-wide shared pool --------------------------------------------

_shared_pool: WorkerPool | None = None
_atexit_registered = False


def get_shared_pool(max_workers: int | None = None) -> WorkerPool:
    """The process-wide :class:`WorkerPool`, created on first use.

    Every engine that asks for parallelism without bringing its own
    pool lands here, so one CLI invocation — or one pytest session —
    forks at most one pool no matter how many sweeps it runs.  Asking
    for *more* workers than the current pool has replaces it with a
    larger one (cheap unless it already spawned); asking for fewer
    reuses the existing pool — worker count never affects results,
    only parallelism.
    """
    global _shared_pool, _atexit_registered
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    requested = max(1, int(max_workers))
    if _shared_pool is None:
        _shared_pool = WorkerPool(requested)
        if not _atexit_registered:
            atexit.register(shutdown_shared_pool)
            _atexit_registered = True
    elif requested > _shared_pool.max_workers:
        log.info(
            "replacing shared worker pool: %d -> %d processes "
            "(reason: larger fan-out requested)",
            _shared_pool.max_workers, requested,
        )
        _shared_pool.shutdown()
        _shared_pool = WorkerPool(requested)
    else:
        # An interrupt or worker death mid-sweep can leave the shared
        # pool holding a dead executor; hand back a healthy pool (it
        # respawns on next use) instead of one that raises
        # BrokenProcessPool for every later sweep and server job.
        _shared_pool._reap_if_broken()
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Shut down and forget the shared pool (idempotent).  The CLI
    calls this after its experiments finish; the next
    :func:`get_shared_pool` starts fresh."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None
