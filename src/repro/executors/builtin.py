"""The built-in execution backends, registered in listing order:
``serial``, ``pool``, ``subprocess-workers``.

``serial`` computes points on the calling thread — the golden
reference every other backend is pinned against.  ``pool`` fans points
over a fork pool that the :class:`PoolExecutor` owns; a ``workers > 1``
engine or job runner with no executor uses it.  ``subprocess-workers``
is :class:`~repro.executors.subproc.SubprocessExecutor`.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ValidationError
from repro.executors.api import Executor
from repro.executors.registry import register_executor
from repro.executors.subproc import SubprocessExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = ["SerialExecutor", "PoolExecutor"]

log = logging.getLogger("repro.pool")


class SerialExecutor(Executor):
    """Compute every point in-process, in order (the reference)."""

    name = "serial"
    workers = 1

    def run_points(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        from repro.experiments.parallel import execute_point

        return [(index, execute_point(spec, index)) for index in indices]


class PoolExecutor(Executor):
    """Fan points over one lazily spawned fork pool that this executor
    owns.

    ``workers`` is the pool size: ``None`` means the CPU count, and
    ``0`` and ``1`` mean serial (the engine's convention): points run
    in-process and nothing is spawned, as for any one-point batch.  The
    pool spawns at the first multi-point batch (logged as ``spawned
    worker pool`` at INFO on ``repro.pool`` and counted in
    :attr:`spawn_count`), serves every later batch, and ends with
    :meth:`close`; a closed executor respawns if used again.  Whoever
    built the executor owns its pool: a :class:`~repro.jobs.JobRunner`
    closes the one it resolves, a bare ``SweepEngine(workers=N)`` keeps
    its own for its lifetime, and an executor handed to either stays
    its creator's.

    A pool whose workers died (OOM-killed, say) is respawned once and
    the batch retried, which determinism makes safe; if it breaks
    again the batch runs in-process.  A ``^C`` mid-batch reaps the pool
    before it propagates, so no dead workers are kept for later.
    """

    name = "pool"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 0:
            raise ValidationError(f"workers must be >= 0, got {workers}")
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self._pool: ProcessPoolExecutor | None = None
        self._spawn_lock = threading.Lock()  # a runner's threads share it
        self.spawn_count = 0

    def run_points(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        from repro.experiments.parallel import execute_point

        if self.workers > 1 and len(indices) > 1:
            try:
                try:
                    return self._dispatch(spec, indices)
                except BrokenProcessPool as exc:
                    self._reap("worker pool broke; respawning and "
                               "retrying once", exc)
                try:
                    return self._dispatch(spec, indices)
                except BrokenProcessPool as exc:
                    self._reap("respawned worker pool broke too; running "
                               "this batch serially in-process", exc)
            except KeyboardInterrupt as exc:
                # The interrupt usually reached the workers as well
                # (same process group) and broke the pool.
                self._reap("interrupted mid-batch; reaping worker pool", exc)
                raise
        return [(i, execute_point(spec, i)) for i in indices]

    def _dispatch(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        from repro.experiments.parallel import _execute_point_job

        with self._spawn_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self.spawn_count += 1
                log.info(
                    "spawned worker pool: %d processes (spawn #%d, pid %d)",
                    self.workers, self.spawn_count, os.getpid(),
                )
            pool = self._pool
        document = spec.to_dict()
        futures = [
            pool.submit(_execute_point_job, document, index)
            for index in indices
        ]
        return [(index, f.result()) for index, f in zip(indices, futures)]

    def _reap(self, why: str, cause: BaseException) -> None:
        """Log ``why`` and drop a pool that broke or was interrupted,
        without waiting for its workers."""
        log.warning(
            "%s (%d processes; cause: %s)", why, self.workers,
            " ".join(str(cause).split()) or type(cause).__name__,
        )
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def close(self) -> None:
        """End the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


@register_executor(
    "serial",
    title="In-process serial execution (the golden reference)",
    description=(
        "Computes every sweep point on the calling thread, in order. "
        "No processes, no transport — this is the reference backend "
        "all others must match byte for byte."
    ),
    tags=("local", "reference"),
)
def _make_serial(workers: int | None = None) -> SerialExecutor:
    return SerialExecutor()


@register_executor(
    "pool",
    title="Persistent fork pool (the default parallel path)",
    description=(
        "Fans points over one fork pool, spawned lazily at the first "
        "multi-point batch and reused by every later sweep of its "
        "owner (one CLI invocation, one job service).  Identical to "
        "passing --workers N without an --executor."
    ),
    tags=("local",),
)
def _make_pool(workers: int | None = None) -> PoolExecutor:
    return PoolExecutor(workers=workers)


@register_executor(
    "subprocess-workers",
    title="Long-lived worker subprocesses over an NDJSON task protocol",
    description=(
        "Spawns N worker subprocesses once and streams (spec, index) "
        "tasks to them as newline-delimited JSON on stdin/stdout — no "
        "pickling, no shared memory, the same wire shape a multi-host "
        "backend needs.  Workers heartbeat (also while computing), "
        "dead or hung workers are respawned, and their in-flight "
        "points are retried with bounded exponential backoff; "
        "determinism makes the retry safe, so fault-injected runs are "
        "byte-identical to serial ones."
    ),
    tags=("local", "distributed", "fault-tolerant"),
)
def _make_subprocess(workers: int | None = None) -> SubprocessExecutor:
    return SubprocessExecutor(workers=workers)
