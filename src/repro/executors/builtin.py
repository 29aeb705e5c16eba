"""The built-in execution backends, registered in listing order:
``serial``, ``pool``, ``subprocess-workers``.

``serial`` computes points on the calling thread — the golden
reference every other backend is pinned against.  ``pool`` fans points
over the process-wide :class:`~repro.experiments.pool.WorkerPool` (or
an injected one); a ``workers > 1`` engine with no executor uses it.
``subprocess-workers`` is :class:`~repro.executors.subproc.
SubprocessExecutor`.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import TYPE_CHECKING, Any, Sequence

from repro.executors.api import Executor
from repro.executors.registry import register_executor
from repro.executors.subproc import SubprocessExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec
    from repro.experiments.pool import WorkerPool

__all__ = ["SerialExecutor", "PoolExecutor"]


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
    """Fan points over a persistent :class:`WorkerPool`.

    Without an injected pool this fetches the process-wide shared pool
    (:func:`repro.experiments.pool.get_shared_pool`) afresh for each
    multi-point batch, so a pool grown or shut down between sweeps is
    never revived as an orphan.  The pool's owner keeps its lifecycle:
    :meth:`close` never shuts down the shared pool (the CLI/atexit hook
    reaps it) nor an injected one.
    """

    name = "pool"

    def __init__(
        self,
        workers: int | None = None,
        pool: "WorkerPool | None" = None,
    ) -> None:
        if pool is not None:
            self.workers = pool.max_workers
        else:
            self.workers = max(1, int(workers or (os.cpu_count() or 1)))
        self._injected_pool = pool

    def _pool(self) -> "WorkerPool":
        if self._injected_pool is not None:
            return self._injected_pool
        from repro.experiments.pool import get_shared_pool

        return get_shared_pool(self.workers)

    def run_points(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        from repro.experiments.parallel import (
            _execute_point_job,
            execute_point,
        )

        # A one-point batch runs inline without asking for the shared
        # pool, which would replace a warm pool smaller than requested.
        pool = None if len(indices) == 1 else self._pool()
        if pool is None or pool.max_workers == 1:
            return [(i, execute_point(spec, i)) for i in indices]
        computed = pool.map(
            _execute_point_job, repeat(spec.to_dict()), indices,
            limit=self.workers,
        )
        return list(zip(indices, computed))


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
    title="Process-wide persistent fork pool (the default parallel path)",
    description=(
        "Fans points over the shared WorkerPool — one lazy fork per "
        "process, reused by every sweep.  Identical to passing "
        "--workers N without an --executor: the engine's historic "
        "parallel behaviour, addressable by name."
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
