"""Pluggable sweep execution backends.

An :class:`Executor` turns ``(spec, indices)`` into ordered
``(index, payload)`` pairs; *how* — in-process, a fork pool, worker
subprocesses, one day another host — is the backend's business.  The
engine persists the payloads, so every backend shares one correctness
bar: byte-identical payloads to :func:`~repro.experiments.parallel.
execute_point` (executor choice can never change a result, which is
also why executor names stay out of cache keys and job ids).

Backends self-register with :func:`register_executor` and are resolved
by name everywhere an executor is accepted: ``SweepEngine(executor=
...)``, the CLI's ``--executor`` flag, job submissions, and the
``python -m repro executors`` listing.

Built-ins:

``serial``
    In-process, in-order — the golden reference.
``pool``
    :class:`PoolExecutor`, a fork pool the executor owns, spawned at
    the first multi-point batch and reused until :meth:`~Executor.
    close` — what a ``workers=N`` engine or job runner uses when no
    executor is named.
``subprocess-workers``
    Long-lived worker subprocesses speaking newline-delimited JSON,
    with heartbeats, per-task timeouts, and bounded retry of points
    lost to worker deaths (:mod:`repro.executors.subproc`).
"""

from repro.executors.api import Executor
from repro.executors.builtin import PoolExecutor, SerialExecutor
from repro.executors.registry import (
    ExecutorInfo,
    UnknownExecutorError,
    executor_names,
    get_executor,
    get_executor_info,
    iter_executor_info,
    register_executor,
    unregister_executor,
)
from repro.executors.subproc import SubprocessExecutor

__all__ = [
    "Executor",
    "ExecutorInfo",
    "PoolExecutor",
    "SerialExecutor",
    "SubprocessExecutor",
    "UnknownExecutorError",
    "executor_names",
    "get_executor",
    "get_executor_info",
    "iter_executor_info",
    "register_executor",
    "unregister_executor",
]
